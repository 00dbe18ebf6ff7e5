package core_test

import (
	"testing"

	"xemem/internal/core"
	"xemem/internal/sim"
	"xemem/internal/xproto"
)

// TestWarmWaitReadyAllocatesNothing: every public call starts with
// WaitReady, which on a ready module returns without building its poll
// condition, so a thousand more warm calls allocate as much as a few.
func TestWarmWaitReadyAllocatesNothing(t *testing.T) {
	run := func(calls int) func() {
		return func() {
			n := newTestNode(t)
			n.lmod.Start()
			n.w.Spawn("caller", func(a *sim.Actor) {
				for i := 0; i < calls; i++ {
					n.lmod.WaitReady(a)
				}
			})
			if err := n.w.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A per-call allocation would cost 1,000 here; the slack absorbs the
	// few the runtime makes on its own, as it does under the race detector.
	few := testing.AllocsPerRun(5, run(10))
	many := testing.AllocsPerRun(5, run(1010))
	if many-few >= 10 {
		t.Fatalf("1000 more warm calls cost %v allocations (%v vs %v), want none per call", many-few, many, few)
	}
}

// TestRPCReasonsNameEveryType: a request waits under "rpc:<type>",
// read from a table built once instead of concatenated per request; the
// table must name every message type as the concatenation did.
func TestRPCReasonsNameEveryType(t *testing.T) {
	for i := 0; i < 256; i++ {
		mt := xproto.MsgType(i)
		if got, want := core.RPCReason(mt), "rpc:"+mt.String(); got != want {
			t.Fatalf("reason for %v = %q, want %q", mt, got, want)
		}
	}
}
