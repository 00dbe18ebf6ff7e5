package core_test

import (
	"errors"
	"testing"

	"xemem/internal/core"
	"xemem/internal/extent"
	"xemem/internal/sim"
	"xemem/internal/xproto"
)

// TestFig3MessageSequence pins the wire-level protocol of Figure 3: the
// export allocates a segid at the name server; the attach request routes
// through the name server to the owning enclave; the owner returns the
// page-frame list; the detach notification retraces the path. The trace
// hooks observe every message each module sends.
func TestFig3MessageSequence(t *testing.T) {
	n := newTestNode(t)
	n.lmod.Start()
	ck := n.addKitten(t, "kitten0", 64<<20)

	var kittenSent, linuxSent []xproto.MsgType
	ck.Module.Trace = func(m *xproto.Message) { kittenSent = append(kittenSent, m.Type) }
	n.lmod.Trace = func(m *xproto.Message) { linuxSent = append(linuxSent, m.Type) }

	kp, heap, err := ck.OS.NewProcess("exp", 64)
	if err != nil {
		t.Fatal(err)
	}
	lp := n.linux.NewProcess("att", 1)

	n.w.Spawn("driver", func(a *sim.Actor) {
		ck.Module.WaitReady(a)
		// Reset traces after the bootstrap chatter.
		kittenSent, linuxSent = nil, nil

		segid, err := ck.Module.Make(a, kp, heap.Base, 8*extent.PageSize, xproto.PermRead, "")
		if err != nil {
			t.Error(err)
			return
		}
		apid, err := n.lmod.GetWith(a, lp, segid, core.GetOpts{Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		va, err := n.lmod.AttachWith(a, lp, segid, apid, core.AttachOpts{Bytes: core.AttachAll, Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		// AttachAll mapped the whole 8-page segment.
		if r := lp.AS.FindRegion(va); r == nil || r.Pages() != 8 {
			t.Errorf("whole-segment attach mapped %v", r)
		}
		if err := n.lmod.Detach(a, lp, va); err != nil {
			t.Error(err)
		}
		a.Advance(sim.Millisecond)
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}

	// The exporting enclave's wire activity: segid allocation request
	// (Fig. 3 steps 2–3), the permission grant, then the attach response
	// carrying the frame list (steps 6–7).
	wantKitten := []xproto.MsgType{xproto.MsgSegidAllocReq, xproto.MsgGetResp, xproto.MsgAttachResp}
	if !sameTypes(kittenSent, wantKitten) {
		t.Errorf("kitten sent %v, want %v", kittenSent, wantKitten)
	}
	// The management enclave (attacher + name server): segid response,
	// get request (routed to owner after NS resolution), attach request
	// (steps 4–5), detach notification.
	wantLinux := []xproto.MsgType{
		xproto.MsgSegidAllocResp,
		xproto.MsgGetReq,
		xproto.MsgAttachReq,
		xproto.MsgDetachNotify,
	}
	if !sameTypes(linuxSent, wantLinux) {
		t.Errorf("linux sent %v, want %v", linuxSent, wantLinux)
	}
}

// noFaults is an injector that never injects anything: installing it
// turns on the bounded request and bootstrap waits without perturbing a
// single delivery.
type noFaults struct{}

func (noFaults) DeliveryFault(string, *sim.Actor, int) (bool, sim.Time) { return false, 0 }
func (noFaults) ServiceDown(string, sim.Time) bool                      { return false }

// TestRequestBoundOnlyUnderInjection pins the one request path's policy
// resolution. In the zero-fault world a request's wait is unbounded: a
// 1 ns timeout is ignored and the requester wakes the instant its
// response is handled. With an injector installed, the same path arms
// the timeout (1 ns expires before any answer) and, with the default
// policy, polls — landing within one poll quantum of the unbounded
// latency.
func TestRequestBoundOnlyUnderInjection(t *testing.T) {
	get := func(inj sim.Injector, opts core.GetOpts) (sim.Time, *core.Module, error) {
		n := newTestNode(t)
		if inj != nil {
			n.w.SetInjector(inj)
		}
		n.lmod.Start()
		ck := n.addKitten(t, "kitten0", 64<<20)
		kp, heap, err := ck.OS.NewProcess("exp", 64)
		if err != nil {
			t.Fatal(err)
		}
		lp := n.linux.NewProcess("att", 1)
		var took sim.Time
		var gerr error
		n.w.Spawn("driver", func(a *sim.Actor) {
			segid, err := ck.Module.Make(a, kp, heap.Base, 8*extent.PageSize, xproto.PermRead, "")
			if err != nil {
				t.Error(err)
				return
			}
			n.lmod.WaitReady(a)
			start := a.Now()
			_, gerr = n.lmod.GetWith(a, lp, segid, opts)
			took = a.Now() - start
		})
		if err := n.w.Run(); err != nil {
			t.Fatal(err)
		}
		return took, n.lmod, gerr
	}

	tiny := core.GetOpts{Timeout: sim.Nanosecond, Retries: -1}
	unbounded, _, err := get(nil, tiny)
	if err != nil {
		t.Fatalf("zero-fault get with a 1ns timeout: %v", err)
	}
	if _, mod, err := get(noFaults{}, tiny); !errors.Is(err, core.ErrTimeout) || mod.Stats.Timeouts != 1 {
		t.Fatalf("injected get with a 1ns timeout: err=%v timeouts=%d, want ErrTimeout once", err, mod.Stats.Timeouts)
	}
	bounded, _, err := get(noFaults{}, core.GetOpts{})
	if err != nil {
		t.Fatalf("injected get with the default policy: %v", err)
	}
	t.Logf("get latency: blocking %v, polled %v", unbounded, bounded)
	if d := bounded - unbounded; d < 0 || d >= 2*sim.Microsecond {
		t.Fatalf("polled get took %v, blocking get %v: want at most one 2µs poll quantum more", bounded, unbounded)
	}
}

func sameTypes(got, want []xproto.MsgType) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
