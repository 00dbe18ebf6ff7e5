package core_test

// Table-driven protocol edge tests: segid error handling across chain
// depths, and enclave teardown while the enclave sits on a live route.

import (
	"errors"
	"testing"

	"xemem/internal/core"
	"xemem/internal/extent"
	"xemem/internal/pisces"
	"xemem/internal/proc"
	"xemem/internal/sim"
	"xemem/internal/xproto"
)

// addChain grows a chain of co-kernels under the management enclave and
// returns them shallowest-first.
func addChain(t *testing.T, n *testNode, depth int) []*pisces.CoKernel {
	t.Helper()
	out := make([]*pisces.CoKernel, depth)
	parent := n.lmod
	for i := 0; i < depth; i++ {
		ck, err := pisces.CreateCoKernel(
			"kitten"+string(rune('0'+i)), n.w, n.pm, n.linux.Zone(), 32<<20, parent)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ck
		parent = ck.Module
	}
	return out
}

// TestUnknownSegidAcrossDepths: every stale/forged-handle operation must
// fail cleanly no matter how many hops sit between requester and owner.
func TestUnknownSegidAcrossDepths(t *testing.T) {
	cases := []struct {
		name  string
		depth int // co-kernels between the exporter and the Linux requester
		run   func(t *testing.T, n *testNode, a *sim.Actor, exp *pisces.CoKernel, kp *proc.Process, segid xproto.Segid)
	}{
		{"get-forged-segid/direct", 1, func(t *testing.T, n *testNode, a *sim.Actor, _ *pisces.CoKernel, _ *proc.Process, _ xproto.Segid) {
			lp := n.linux.NewProcess("req", 1)
			if _, err := n.lmod.GetWith(a, lp, xproto.Segid(0xbadf00d), core.GetOpts{Perm: xproto.PermRead}); !errors.Is(err, core.ErrNoSuchSegid) {
				t.Errorf("forged segid: %v", err)
			}
		}},
		{"get-forged-segid/two-hops", 2, func(t *testing.T, n *testNode, a *sim.Actor, _ *pisces.CoKernel, _ *proc.Process, _ xproto.Segid) {
			lp := n.linux.NewProcess("req", 1)
			if _, err := n.lmod.GetWith(a, lp, xproto.Segid(0xbadf00d), core.GetOpts{Perm: xproto.PermRead}); !errors.Is(err, core.ErrNoSuchSegid) {
				t.Errorf("forged segid: %v", err)
			}
		}},
		{"get-after-remove", 1, func(t *testing.T, n *testNode, a *sim.Actor, exp *pisces.CoKernel, kp *proc.Process, segid xproto.Segid) {
			if err := exp.Module.Remove(a, kp, segid); err != nil {
				t.Error(err)
				return
			}
			lp := n.linux.NewProcess("req", 1)
			if _, err := n.lmod.GetWith(a, lp, segid, core.GetOpts{Perm: xproto.PermRead}); !errors.Is(err, core.ErrNoSuchSegid) {
				t.Errorf("get after remove: %v", err)
			}
		}},
		{"lookup-unknown-name/two-hops", 2, func(t *testing.T, n *testNode, a *sim.Actor, _ *pisces.CoKernel, _ *proc.Process, _ xproto.Segid) {
			if _, err := n.lmod.Lookup(a, "never-registered"); !errors.Is(err, core.ErrNoSuchSegid) {
				t.Errorf("unknown name: %v", err)
			}
		}},
		{"attach-without-get", 1, func(t *testing.T, n *testNode, a *sim.Actor, _ *pisces.CoKernel, _ *proc.Process, segid xproto.Segid) {
			lp := n.linux.NewProcess("req", 1)
			if _, err := n.lmod.AttachWith(a, lp, segid, xproto.Apid(0x7777), core.AttachOpts{Bytes: extent.PageSize, Perm: xproto.PermRead}); err == nil {
				t.Error("attach with forged apid accepted")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := newTestNode(t)
			n.lmod.Start()
			chain := addChain(t, n, tc.depth)
			exp := chain[len(chain)-1]
			kp, heap, err := exp.OS.NewProcess("exp", 16)
			if err != nil {
				t.Fatal(err)
			}
			n.w.Spawn("driver", func(a *sim.Actor) {
				segid, err := exp.Module.Make(a, kp, heap.Base, 4*extent.PageSize, xproto.PermRead, "")
				if err != nil {
					t.Error(err)
					return
				}
				tc.run(t, n, a, exp, kp, segid)
			})
			if err := n.w.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDetachMidRoute: an enclave tears down while routes through and to
// it exist. The protocol must refuse teardown while an attachment pins
// it, survive the teardown once drained, and keep sibling enclaves
// reachable over the routes that remain.
func TestDetachMidRoute(t *testing.T) {
	n := newTestNode(t)
	n.lmod.Start()
	victim := n.addKitten(t, "victim", 64<<20)
	sibling := n.addKitten(t, "sibling", 64<<20)

	vp, vheap, err := victim.OS.NewProcess("vexp", 64)
	if err != nil {
		t.Fatal(err)
	}
	sp, sheap, err := sibling.OS.NewProcess("sexp", 64)
	if err != nil {
		t.Fatal(err)
	}
	lp := n.linux.NewProcess("req", 1)

	n.w.Spawn("driver", func(a *sim.Actor) {
		vsegid, err := victim.Module.Make(a, vp, vheap.Base, 4*extent.PageSize, xproto.PermRead, "victim-data")
		if err != nil {
			t.Error(err)
			return
		}
		apid, err := n.lmod.GetWith(a, lp, vsegid, core.GetOpts{Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		va, err := n.lmod.AttachWith(a, lp, vsegid, apid, core.AttachOpts{Bytes: 4 * extent.PageSize, Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		// Mid-route teardown must be refused while the mapping pins it.
		if err := victim.Destroy(a); err == nil {
			t.Error("destroy succeeded under a live attachment")
			return
		}
		if err := n.lmod.Detach(a, lp, va); err != nil {
			t.Error(err)
			return
		}
		f := vheap.Backing.Extents()[0].First
		a.PollDeadline(5*sim.Microsecond, sim.Forever, func() bool { return n.pm.Pinned(f) == 0 })
		if err := victim.Destroy(a); err != nil {
			t.Errorf("destroy after drain: %v", err)
			return
		}

		// The sibling, reached over routes learned before the teardown,
		// must still serve a full make/get/attach/read cycle.
		if _, err := sp.AS.Write(sheap.Base, []byte("alive")); err != nil {
			t.Error(err)
			return
		}
		ssegid, err := sibling.Module.Make(a, sp, sheap.Base, 4*extent.PageSize, xproto.PermRead, "")
		if err != nil {
			t.Error(err)
			return
		}
		sapid, err := n.lmod.GetWith(a, lp, ssegid, core.GetOpts{Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		sva, err := n.lmod.AttachWith(a, lp, ssegid, sapid, core.AttachOpts{Bytes: 4 * extent.PageSize, Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, 5)
		if _, err := lp.AS.Read(sva, got); err != nil {
			t.Error(err)
			return
		}
		if string(got) != "alive" {
			t.Errorf("sibling read %q after victim teardown", got)
		}
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}
	if !victim.Module.Stopped() {
		t.Fatal("victim module not stopped")
	}
}
