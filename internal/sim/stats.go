package sim

import "math"

// CacheStats counts the traffic of a memoization cache — hits, misses,
// and invalidations. The attacher-side registration cache
// (xpmem.Session.RegCacheStats) reports one; harnesses read the
// counters to check cache behaviour.
type CacheStats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
}

// Sample accumulates observations and reports summary statistics. The
// experiment harnesses use it for the mean ± stddev values the paper's
// figures report.
type Sample struct {
	xs []float64
}

// Add appends an observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// AddTime appends a duration observation in seconds.
func (s *Sample) AddTime(t Time) { s.Add(t.Seconds()) }

// N reports the number of observations. Only tests read it: insitu's
// tests count the attachments a run sampled.
func (s *Sample) N() int { return len(s.xs) }

// Mean reports the arithmetic mean (0 when empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Stddev reports the sample standard deviation (0 with <2 observations).
func (s *Sample) Stddev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	ss := 0.0
	for _, x := range s.xs {
		d := x - m
		ss += float64(d * d)
	}
	return math.Sqrt(ss / float64(n-1))
}
