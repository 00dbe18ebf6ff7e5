package core_test

import (
	"errors"
	"testing"

	"xemem/internal/core"
	"xemem/internal/extent"
	"xemem/internal/pisces"
	"xemem/internal/sim"
	"xemem/internal/xproto"
)

// TestDynamicTeardown exercises the §3.2 claim that partitions are
// dynamic: boot a co-kernel, use it, destroy it, and verify its memory
// comes back to the management enclave; then boot another in its place.
func TestDynamicTeardown(t *testing.T) {
	n := newTestNode(t)
	n.lmod.Start()
	freeBefore := n.linux.Zone().FreePages()

	ck := n.addKitten(t, "kitten0", 64<<20)
	kp, heap, err := ck.OS.NewProcess("sim", 64)
	if err != nil {
		t.Fatal(err)
	}
	lp := n.linux.NewProcess("an", 1)

	var rebootID xproto.EnclaveID
	n.w.Spawn("lifecycle", func(a *sim.Actor) {
		segid, err := ck.Module.Make(a, kp, heap.Base, 16*extent.PageSize, xproto.PermRead, "")
		if err != nil {
			t.Error(err)
			return
		}
		apid, err := n.lmod.GetWith(a, lp, segid, core.GetOpts{Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		va, err := n.lmod.AttachWith(a, lp, segid, apid, core.AttachOpts{Bytes: 16 * extent.PageSize, Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		// Teardown must refuse while the attachment is live: the
		// attacher's mapping pins the co-kernel's frames.
		if err := ck.Destroy(a); err == nil {
			t.Error("destroy succeeded with a live attachment")
			return
		}
		if err := n.lmod.Detach(a, lp, va); err != nil {
			t.Error(err)
			return
		}
		// Let the detach notification drain (the owner must unpin).
		f := heap.Backing.Extents()[0].First
		a.PollDeadline(5*sim.Microsecond, sim.Forever, func() bool { return n.pm.Pinned(f) == 0 })
		if err := ck.Destroy(a); err != nil {
			t.Errorf("destroy after detach: %v", err)
			return
		}
		if !ck.Module.Stopped() {
			t.Error("module not marked stopped")
		}
		if err := ck.Destroy(a); err == nil {
			t.Error("double destroy succeeded")
		}
		if got := n.linux.Zone().FreePages(); got != freeBefore {
			t.Errorf("memory not fully onlined back: %d vs %d pages", got, freeBefore)
			return
		}
		// The partition can be re-provisioned within the same run.
		ck2, err := pisces.CreateCoKernel("kitten1", n.w, n.pm, n.linux.Zone(), 64<<20, n.lmod)
		if err != nil {
			t.Error(err)
			return
		}
		ck2.Module.WaitReady(a)
		rebootID = ck2.Module.EnclaveID()
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}
	if rebootID == xproto.NoEnclave || rebootID == ck.Module.EnclaveID() {
		t.Fatalf("rebooted enclave got ID %d (old was %d)", rebootID, ck.Module.EnclaveID())
	}
}

// TestMessagesToDeadEnclaveDropped: a get toward a destroyed enclave
// fails with ErrEnclaveDown instead of waiting on it forever, also when
// the segment was removed just before the teardown (the remove notice
// is still queued at the name server when the get arrives).
func TestMessagesToDeadEnclaveDropped(t *testing.T) {
	for _, remove := range []bool{false, true} {
		n := newTestNode(t)
		n.lmod.Start()
		ck := n.addKitten(t, "kitten0", 64<<20)
		kp, heap, err := ck.OS.NewProcess("sim", 64)
		if err != nil {
			t.Fatal(err)
		}
		lp := n.linux.NewProcess("an", 1)
		n.w.Spawn("driver", func(a *sim.Actor) {
			segid, err := ck.Module.Make(a, kp, heap.Base, extent.PageSize, xproto.PermRead, "")
			if err != nil {
				t.Error(err)
				return
			}
			if remove {
				if err := ck.Module.Remove(a, kp, segid); err != nil {
					t.Error(err)
					return
				}
			}
			if err := ck.Destroy(a); err != nil {
				t.Error(err)
				return
			}
			if _, err := n.lmod.GetWith(a, lp, segid, core.GetOpts{Perm: xproto.PermRead}); !errors.Is(err, core.ErrEnclaveDown) {
				t.Errorf("remove=%v: get into a destroyed enclave = %v, want ErrEnclaveDown", remove, err)
			}
		})
		if err := n.w.Run(); err != nil {
			t.Fatalf("remove=%v: %v", remove, err)
		}
	}
}
