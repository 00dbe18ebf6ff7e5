package core

import (
	"fmt"

	"xemem/internal/sim"
	"xemem/internal/xproto"
)

// Bootstrap retry parameters: each attempt rebroadcasts and waits one
// window, doubling the window each time (fault-injected worlds only — the
// zero-fault window is unbounded, see bootWindow). Eight attempts ride
// out even a 10% loss rate with overwhelming probability; an enclave that
// still cannot reach the name server marks itself crashed so its
// processes fail with ErrEnclaveDown instead of polling a kernel that
// will never come up.
const (
	bootAttempts = 8
	bootBaseWait = 200 * sim.Microsecond
	bootPoll     = 5 * sim.Microsecond
)

// bootstrap performs the §3.2 joining protocol on the kernel actor:
//
//  1. Broadcast MsgPingNS on every channel. A neighbour replies MsgPongNS
//     if it has a path to the name server; neighbours that do not yet
//     have one remember the ping and answer when they bootstrap, so boot
//     order between siblings does not matter.
//  2. The channel the first pong arrives on becomes the default route
//     toward the name server.
//  3. Send a hop-routed MsgEnclaveIDReq toward the name server. Every
//     intermediate enclave records the arrival link in its outstanding
//     request list and forwards; the name server allocates an ID and the
//     response retraces the path, with each hop learning a route to the
//     new enclave as it passes (§3.2's map maintenance).
//
// While waiting, the kernel runs its normal message handler, which also
// takes the pong and the ID response (see handle) — it may itself be a
// forwarding hop for enclaves deeper in the tree.
//
// Under fault injection both waits are bounded: lost pings or ID
// requests are rebroadcast with fresh request IDs (duplicate pongs are
// ignored; a duplicate ID allocation wastes an enclave ID at the name
// server, which is harmless), and an enclave that exhausts its attempts
// marks itself crashed. In the zero-fault world the first attempt's
// window is unbounded, so it always completes.
func (m *Module) bootstrap(a *sim.Actor) {
	if len(m.links) == 0 {
		panic(fmt.Sprintf("core: enclave %s has no channels and does not host the name server", m.name))
	}

	// Phase 1: find a path to the name server.
	for attempt := 0; attempt < bootAttempts && m.R.NSLink() == nil; attempt++ {
		pingReq := m.newReqID()
		for _, l := range m.links {
			m.sendOn(a, l, &xproto.Message{Type: xproto.MsgPingNS, ReqID: pingReq})
		}
		if !m.drainUntil(a, m.bootWindow(attempt), func() bool { return m.R.NSLink() != nil }) {
			return // crashed mid-boot
		}
	}
	if m.R.NSLink() == nil {
		m.failBoot()
		return
	}

	// Phase 2: obtain an enclave ID over the learned path.
	for attempt := 0; attempt < bootAttempts && m.R.Self() == xproto.NoEnclave; attempt++ {
		idReq := m.newReqID()
		m.bootIDReq = idReq
		m.sendOn(a, m.R.NSLink(), &xproto.Message{Type: xproto.MsgEnclaveIDReq, ReqID: idReq})
		if !m.drainUntil(a, m.bootWindow(attempt), func() bool { return m.R.Self() != xproto.NoEnclave }) {
			return
		}
	}
	m.bootIDReq = 0
	if m.R.Self() == xproto.NoEnclave {
		m.failBoot()
	}
}

// bootWindow is how long bootstrap attempt waits for its answer:
// bootBaseWait doubled per attempt under fault injection, sim.Forever in
// the zero-fault world, where nothing is ever lost.
func (m *Module) bootWindow(attempt int) sim.Time {
	if m.w.Injector() == nil {
		return sim.Forever
	}
	return bootBaseWait << attempt
}

// drainUntil serves arriving messages for up to window, returning early
// once done() holds. It reports false when the enclave crashed (shutdown
// poison) — the caller must unwind.
func (m *Module) drainUntil(a *sim.Actor, window sim.Time, done func() bool) bool {
	deadline := a.Deadline(window)
	for !done() {
		// A bounded window polls the inbox; an unbounded one lets the
		// receive below block on it.
		if deadline != sim.Forever && !a.PollDeadline(bootPoll, deadline, func() bool { return m.In.Len() > 0 }) {
			return true // window expired; caller decides whether to retry
		}
		msg, via, ok := m.receive(a)
		if !ok {
			if m.stopped {
				return false
			}
			continue
		}
		m.handle(a, msg, via)
	}
	return true
}

// failBoot marks the enclave dead after an unbootstrappable fault plan.
func (m *Module) failBoot() {
	m.crashed = true
	m.stopped = true
}

// flushPendingPings answers pings that arrived before this enclave had a
// path to the name server.
func (m *Module) flushPendingPings(a *sim.Actor) {
	pings := m.pendingPings
	m.pendingPings = nil
	for _, p := range pings {
		m.sendOn(a, p.via, &xproto.Message{Type: xproto.MsgPongNS, ReqID: p.reqID})
	}
}
