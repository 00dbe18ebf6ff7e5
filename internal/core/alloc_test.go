package core_test

import (
	"testing"

	"xemem/internal/core"
	"xemem/internal/extent"
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

// TestWarmRPCAllocatesOnlyMessages: rpcOnce recycles its pending entry,
// with the wait condition bound to it, through a per-module free list,
// so a warm name lookup from a co-kernel allocates only its messages:
// the request, the response, and the inbox's delivered copy of each. An
// entry or a condition made per request would add two per call.
func TestWarmRPCAllocatesOnlyMessages(t *testing.T) {
	run := func(calls int) func() {
		return func() {
			n := newTestNode(t)
			n.lmod.Start()
			ck := n.addKitten(t, "kitten0", 32<<20)
			kp, heap, err := ck.OS.NewProcess("sim", 64)
			if err != nil {
				t.Fatal(err)
			}
			n.w.Spawn("caller", func(a *sim.Actor) {
				if _, err := ck.Module.Make(a, kp, heap.Base, extent.PageSize, xproto.PermRead, "seg"); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < calls; i++ {
					if _, err := ck.Module.Lookup(a, "seg"); err != nil {
						t.Error(err)
						return
					}
				}
			})
			if err := n.w.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	few := testing.AllocsPerRun(5, run(10))
	many := testing.AllocsPerRun(5, run(1010))
	if perCall := (many - few) / 1000; perCall >= 4.5 {
		t.Fatalf("a warm lookup RPC costs %.2f allocations (%v vs %v over 1000 calls), want 4", perCall, many, few)
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
