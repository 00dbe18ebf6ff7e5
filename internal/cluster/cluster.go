// Package cluster provides the multi-node coupling for the §7 weak-
// scaling experiments: the allreduce barrier that ties the per-node HPC
// simulation components together at every conjugate-gradient iteration
// (the paper's HPCCG build uses OpenMPI collectives over InfiniBand).
//
// The barrier is where OS noise amplifies with scale: a global iteration
// finishes when the *slowest* node arrives, so per-node noise that is
// negligible locally (a daemon burst on one Linux node) stretches every
// node's iteration. The multi-enclave configuration's flat scaling in
// Fig. 9 is precisely the absence of that tail.
package cluster

import "xemem/internal/sim"

// Allreduce is an N-party barrier with a fixed collective latency. All
// parties leave at max(arrival times) + latency.
type Allreduce struct {
	n       int
	latency sim.Time

	arrived   int
	maxT      sim.Time
	releaseAt sim.Time
	waiters   []*sim.Actor
	gen       int // completed-generation counter; guards spurious wakeups

	// Rounds counts completed barrier generations.
	Rounds int
}

// NewAllreduce creates a barrier for n parties with the given collective
// latency (wire + switch + software for the node count).
func NewAllreduce(n int, latency sim.Time) *Allreduce {
	if n < 1 {
		panic("cluster: allreduce over zero parties")
	}
	return &Allreduce{n: n, latency: latency}
}

// Arrive joins the current barrier generation, blocking until every party
// has arrived, and returns with the actor's clock at the collective's
// completion time.
func (b *Allreduce) Arrive(a *sim.Actor) {
	if a.Now() > b.maxT {
		b.maxT = a.Now()
	}
	b.arrived++
	if b.arrived < b.n {
		myGen := b.gen
		b.waiters = append(b.waiters, a)
		// An actor sharing state with other subsystems can be woken
		// spuriously (any Unblock targets the actor, not the wait);
		// re-block until this generation actually completes.
		for b.gen == myGen {
			a.Block("allreduce")
		}
		a.AdvanceTo(b.releaseAt)
		return
	}
	// Last arriver releases the generation.
	b.releaseAt = b.maxT + b.latency
	b.arrived = 0
	b.maxT = 0
	b.gen++
	b.Rounds++
	// Unblock never yields, so no waiter re-arrives mid-loop, and the
	// next generation reuses the emptied slice.
	for _, w := range b.waiters {
		a.Unblock(w)
	}
	b.waiters = b.waiters[:0]
	a.AdvanceTo(b.releaseAt)
}
