// Package app exercises the partition analyzer: state access on a
// foreign actor inside an actor closure is flagged; identity reads,
// own-receiver primitives, explicit two-actor helpers, build-time code,
// and reasoned suppressions stay silent.
package app

import "fixture/internal/sim"

// Peers wires a captured actor into a worker closure the wrong way:
// the worker reads and mutates the waiter's state directly.
func Peers(spawn func(func(*sim.Actor)), waiter *sim.Actor) {
	spawn(func(a *sim.Actor) {
		_ = waiter.Now()   // flagged: foreign clock read
		waiter.Advance(5)  // flagged: foreign clock mutation
		_ = waiter.RNG()   // flagged: foreign RNG stream draw
		a.Unblock(waiter)  // silent: the running actor's own primitive
		_ = waiter.ID()    // silent: immutable identity
		_ = waiter.Name()  // silent
		_ = waiter.World() // silent
	})
}

// Helper receives both actors as parameters: the caller handed them
// over explicitly, which is the two-actor contract the engine's own
// primitives use.
func Helper(a, b *sim.Actor) {
	_ = b.Now()
	a.Unblock(b)
}

// Nested actor closures re-scope: the outer running actor is foreign
// inside the inner actor body, but a plain closure (a Poll condition)
// inherits the dispatch it runs in.
func Nested(spawn func(func(*sim.Actor))) {
	spawn(func(a *sim.Actor) {
		spawn(func(b *sim.Actor) {
			_ = a.Now() // flagged: a is not the running actor here
			_ = b.Now() // silent
		})
		cond := func() bool { return a.Now() > 0 } // silent: runs within a's dispatch
		_ = cond
	})
}

// Excused documents a known safe pairing.
func Excused(spawn func(func(*sim.Actor)), peer *sim.Actor) {
	spawn(func(a *sim.Actor) {
		_ = peer.Now() //xemem:allow partition -- fixture: the peer is quiescent by construction
	})
}

// Build runs before any actor does: no actor scope, no findings.
func Build(actors []*sim.Actor) int64 {
	var total int64
	for _, a := range actors {
		total += a.Now()
	}
	return total
}
