// Package sim is a partition-fixture stub of the engine's actor API:
// just enough surface for the analyzer to resolve receiver types.
package sim

// Actor is the stub actor.
type Actor struct{ id int }

// Identity methods — immutable, safe to read on any actor.
func (a *Actor) ID() int      { return a.id }
func (a *Actor) Name() string { return "" }
func (a *Actor) World() any   { return nil }

// State methods — private to the actor's own dispatch.
func (a *Actor) Now() int64       { return 0 }
func (a *Actor) Advance(d int64)  {}
func (a *Actor) Unblock(b *Actor) {}
func (a *Actor) RNG() int         { return 0 }

// Pool is the stub scheduler surface: Go runs a closure on another
// goroutine.
type Pool struct{}

func (p *Pool) Go(f func()) {}
