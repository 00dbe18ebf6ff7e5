package sim

import "time"

// Clock is a virtual clock: its Now is simulated time.
type Clock struct{ now int64 }

// Now reports the virtual time.
func (c *Clock) Now() int64 { return c.now }

// Advance moves the virtual clock forward by d.
func (c *Clock) Advance(d time.Duration) { c.now += int64(d) }

// Stamp's parameter shadows the time package, so time.Now here reads
// the virtual clock.
func Stamp(time *Clock) int64 { return time.Now() }
