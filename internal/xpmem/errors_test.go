package xpmem_test

import (
	"errors"
	"testing"

	"xemem"
	"xemem/internal/core"
	"xemem/internal/sim"
	"xemem/internal/xpmem"
)

// TestTypedErrorLifecycle is the regression test for the handle-misuse
// bugs the typed-error redesign fixed: double Release, double Detach,
// and Detach of an address that was never attached must each fail with
// a stable sentinel — matchable via errors.Is through the public API,
// never by string comparison — both for local grants and across the
// cross-enclave protocol.
func TestTypedErrorLifecycle(t *testing.T) {
	node := xemem.NewNode(xemem.NodeConfig{Seed: 21, MemBytes: 2 << 30})
	ck, err := node.BootCoKernel("lwk", 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	exp, heap, err := node.KittenProcess(ck, "exp", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	att, attProc := node.LinuxProcess("att", 1)
	local, localProc := node.LinuxProcess("local", 2)
	region, err := xemem.AllocLinux(node.Linux(), localProc, "buf", 16<<12, true)
	if err != nil {
		t.Fatal(err)
	}
	_ = attProc

	node.Spawn("lifecycle", func(a *sim.Actor) {
		// Remote path: co-kernel export, Linux attacher.
		segid, err := exp.Make(a, heap.Base, 16<<12, xpmem.PermRead, "err-lifecycle")
		if err != nil {
			t.Error(err)
			return
		}
		apid, err := att.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		va, err := att.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: 16 << 12, Perm: xpmem.PermRead})
		if err != nil {
			t.Error(err)
			return
		}

		// Detach of an address never attached: typed, with the VA
		// recoverable from the OpError.
		bogus := va + (1 << 40)
		err = att.Detach(a, bogus)
		if !errors.Is(err, xpmem.ErrNotAttached) {
			t.Errorf("Detach(never-attached) = %v, want ErrNotAttached", err)
		}
		var op *core.OpError
		if !errors.As(err, &op) || op.VA != bogus || op.Op != "detach" {
			t.Errorf("Detach(never-attached) OpError = %+v, want op=detach va=%#x", op, bogus)
		}

		// Double Detach: first succeeds, second is deterministic
		// ErrNotAttached (the region is gone, not dangling).
		if err := att.Detach(a, va); err != nil {
			t.Errorf("first Detach = %v", err)
		}
		if err := att.Detach(a, va); !errors.Is(err, xpmem.ErrNotAttached) {
			t.Errorf("second Detach = %v, want ErrNotAttached", err)
		}

		// Double Release of the remote grant: first succeeds, second
		// fails typed with the segid/apid recoverable.
		if err := att.Release(a, segid, apid); err != nil {
			t.Errorf("first Release = %v", err)
		}
		err = att.Release(a, segid, apid)
		if !errors.Is(err, xpmem.ErrNoSuchApid) {
			t.Errorf("second Release = %v, want ErrNoSuchApid", err)
		}
		if !errors.As(err, &op) || op.Segid != segid || op.Apid != apid {
			t.Errorf("second Release OpError = %+v, want segid=%d apid=%d", op, segid, apid)
		}

		// Releasing an apid that was never granted.
		if err := att.Release(a, segid, apid+999); !errors.Is(err, xpmem.ErrNoSuchApid) {
			t.Errorf("Release(never-granted) = %v, want ErrNoSuchApid", err)
		}

		// Local path: same sentinels, same determinism, no protocol hop.
		lsegid, err := local.Make(a, region.Base, 16<<12, xpmem.PermRead|xpmem.PermWrite, "")
		if err != nil {
			t.Error(err)
			return
		}
		lapid, err := local.GetWith(a, lsegid, xpmem.GetOpts{Perm: xpmem.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		if err := local.Release(a, lsegid, lapid); err != nil {
			t.Errorf("local Release = %v", err)
		}
		if err := local.Release(a, lsegid, lapid); !errors.Is(err, xpmem.ErrNoSuchApid) {
			t.Errorf("local double Release = %v, want ErrNoSuchApid", err)
		}
		// A foreign process releasing someone else's grant: permission,
		// not existence — the apid is real, the caller just doesn't own it.
		lapid2, err := local.GetWith(a, lsegid, xpmem.GetOpts{Perm: xpmem.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		foreign := xpmem.NewSession(node.LinuxModule(), attProc)
		if err := foreign.Release(a, lsegid, lapid2); !errors.Is(err, xpmem.ErrPermission) {
			t.Errorf("foreign Release = %v, want ErrPermission", err)
		}
		if err := local.Release(a, lsegid, lapid2); err != nil {
			t.Errorf("owner Release after foreign attempt = %v", err)
		}
	})
	if err := node.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestErrorSentinelsDistinct guards the errors.Is contract: the
// re-exported sentinels are the core ones (no wrapping drift) and are
// pairwise distinct, so matching one can never accidentally match
// another.
func TestErrorSentinelsDistinct(t *testing.T) {
	sentinels := map[string]error{
		"ErrNoSuchSegid": xpmem.ErrNoSuchSegid,
		"ErrNoSuchApid":  xpmem.ErrNoSuchApid,
		"ErrPermission":  xpmem.ErrPermission,
		"ErrEnclaveDown": xpmem.ErrEnclaveDown,
		"ErrTimeout":     xpmem.ErrTimeout,
		"ErrNotAttached": xpmem.ErrNotAttached,
		"ErrBadRange":    xpmem.ErrBadRange,
	}
	for na, ea := range sentinels {
		for nb, eb := range sentinels {
			if na != nb && errors.Is(ea, eb) {
				t.Errorf("%s matches %s", na, nb)
			}
		}
	}
	if !errors.Is(xpmem.ErrNoSuchSegid, core.ErrNoSuchSegid) {
		t.Error("xpmem re-export is not the core sentinel")
	}
}
