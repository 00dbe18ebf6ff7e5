package sim

import "math"

// RNG is a small, fast, deterministic random stream (SplitMix64 core).
// Every noise process in the reproduction draws from a seeded RNG so runs
// are exactly repeatable. math/rand is deliberately avoided: its global
// state and historical algorithm changes make cross-version determinism
// fragile, and the simulator needs per-actor streams.
type RNG struct {
	state uint64
	// spare holds a cached second normal deviate from the Marsaglia polar
	// method; spareOK says whether it is valid.
	spare   float64
	spareOK bool
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64n returns a uniform value in [0, n). n must be positive.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n(0)")
	}
	// Rejection sampling to avoid modulo bias.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Intn returns a uniform int in [0, n).
func (r *RNG) Intn(n int) int { return int(r.Uint64n(uint64(n))) }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// signedFloat64 returns a uniform value in [-1, 1): exactly 2*Float64()-1,
// computed in integers so no architecture can fuse it.
func (r *RNG) signedFloat64() float64 {
	return float64(int64(r.Uint64()>>11)*2-(1<<53)) / (1 << 53)
}

// NormFloat64 returns a standard normal deviate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	if r.spareOK {
		r.spareOK = false
		return r.spare
	}
	for {
		u := r.signedFloat64()
		v := r.signedFloat64()
		s := float64(u*u) + float64(v*v)
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.spareOK = true
		return u * f
	}
}

// Normal returns a normal deviate with the given mean and standard
// deviation, truncated at zero (negative durations are meaningless).
func (r *RNG) Normal(mean, stddev float64) float64 {
	v := mean + float64(stddev*r.NormFloat64())
	if v < 0 {
		return 0
	}
	return v
}

// Jitter returns d scaled by a uniform factor in [1-f, 1+f].
func (r *RNG) Jitter(d Time, f float64) Time {
	scale := 1 + float64(f*r.signedFloat64())
	return Time(float64(d) * scale)
}
