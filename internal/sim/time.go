// Package sim provides the deterministic virtual-time simulation core that
// every XEMEM substrate runs on.
//
// The simulator is a cooperative, conservative, virtual-time scheduler: the
// unit of concurrency is an Actor (a goroutine with a private simulated
// clock), and the World guarantees that exactly one actor executes at a
// time — always the one whose clock is globally minimal (ties broken by
// actor ID). Because execution is exclusive and the dispatch order is a
// pure function of (time, ID), simulations are bit-for-bit reproducible:
// shared state needs no locking, and seeded RNG streams make noise
// processes repeatable.
//
// Costs are charged explicitly: substrate code calls Actor.Advance with a
// duration from the cost model (see Costs). Contended hardware — a CPU
// core that handles all IPIs, a kernel lock — is a Resource, which
// serializes acquisitions in virtual time and records the queueing delay
// that contention introduced.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation. A Time is also used for durations; the arithmetic is the
// same and keeping one type avoids a conversion tax on the hot paths.
type Time int64

// Common durations, in simulated nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever is the "no bound" time: the deadline of a wait that cannot
// expire (see Actor.Await).
const Forever = Time(math.MaxInt64)

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis reports t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats t with an adaptive unit, e.g. "1.500ms".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

// PerSecond converts an amount of work done in a duration to a rate per
// second. It returns 0 for non-positive durations.
func PerSecond(amount float64, d Time) float64 {
	if d <= 0 {
		return 0
	}
	return amount / d.Seconds()
}
