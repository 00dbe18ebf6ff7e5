package fault_test

import (
	"errors"
	"testing"

	"xemem"
	"xemem/internal/core"
	"xemem/internal/fault"
	"xemem/internal/pagetable"
	"xemem/internal/sim"
	"xemem/internal/sim/trace"
	"xemem/internal/xpmem"
)

// The fault matrix: for each phase of the XPMEM protocol an enclave
// crash can interrupt, and for each victim enclave type, the API must
// fail with the documented typed error — deterministically, so the
// whole faulted run digests identically on rerun.
//
// crashAt is far past setup (the export/get/attach prologue completes
// within tens of microseconds of virtual time), so which operations see
// the crash is fixed by construction, not by racing the scheduler.
const (
	crashAt    = 2 * sim.Millisecond
	afterCrash = crashAt + 100*sim.Microsecond
	segBytes   = 16 << 12
)

// victim is one bootable enclave type under test.
type victim struct {
	sess *xpmem.Session
	base pagetable.VA
	mod  *core.Module
}

// bootVictim boots an enclave of the given kind with an exporter
// process holding a writable region at base.
func bootVictim(t *testing.T, node *xemem.Node, kind string) victim {
	t.Helper()
	switch kind {
	case "cokernel":
		ck, err := node.BootCoKernel("lwk", 256<<20)
		if err != nil {
			t.Fatal(err)
		}
		sess, heap, err := node.KittenProcess(ck, "exp", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return victim{sess: sess, base: heap.Base, mod: ck.Module}
	case "vm":
		vm, err := node.BootVM("vm0", 128<<20, 1)
		if err != nil {
			t.Fatal(err)
		}
		sess, p := node.GuestProcess(vm, "exp", 0)
		region, err := xemem.AllocLinux(vm.Guest, p, "buf", segBytes, true)
		if err != nil {
			t.Fatal(err)
		}
		return victim{sess: sess, base: region.Base, mod: vm.Module}
	default:
		t.Fatalf("unknown victim kind %q", kind)
		return victim{}
	}
}

// matrixCase names one protocol phase the crash interrupts and the
// typed error the survivor (or the victim's own process) must see.
type matrixCase struct {
	name string
	// run performs the pre-crash prologue and the post-crash probe; the
	// actor is already past afterCrash when probe runs.
	run func(t *testing.T, a *sim.Actor, v victim, att *xpmem.Session, segid xpmem.Segid)
}

var matrixCases = []matrixCase{
	{
		// A process inside the crashed enclave: every entry point fails
		// fast with ErrEnclaveDown instead of hanging on a dead kernel.
		name: "make",
		run: func(t *testing.T, a *sim.Actor, v victim, att *xpmem.Session, segid xpmem.Segid) {
			a.AdvanceTo(afterCrash)
			if _, err := v.sess.Make(a, v.base, segBytes, xpmem.PermRead, ""); !errors.Is(err, xpmem.ErrEnclaveDown) {
				t.Errorf("Make on crashed enclave = %v, want ErrEnclaveDown", err)
			}
		},
	},
	{
		// Get of a segment whose owner died: the name server retains the
		// registration but marks the enclave down, so the failure is
		// attributable — enclave-down, not no-such-segment.
		name: "get",
		run: func(t *testing.T, a *sim.Actor, v victim, att *xpmem.Session, segid xpmem.Segid) {
			a.AdvanceTo(afterCrash)
			if _, err := att.GetWith(a, segid, xpmem.GetOpts{Timeout: sim.Millisecond}); !errors.Is(err, xpmem.ErrEnclaveDown) {
				t.Errorf("Get from dead owner = %v, want ErrEnclaveDown", err)
			}
		},
	},
	{
		// Attach with a permit granted before the crash: the apid is
		// stale, the owner cannot serve the frame list.
		name: "attach",
		run: func(t *testing.T, a *sim.Actor, v victim, att *xpmem.Session, segid xpmem.Segid) {
			apid, err := att.GetWith(a, segid, xpmem.GetOpts{Timeout: sim.Millisecond})
			if err != nil {
				t.Errorf("pre-crash Get: %v", err)
				return
			}
			a.AdvanceTo(afterCrash)
			if _, err := att.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: segBytes, Timeout: sim.Millisecond}); !errors.Is(err, xpmem.ErrEnclaveDown) {
				t.Errorf("Attach with stale apid = %v, want ErrEnclaveDown", err)
			}
			if err := att.Release(a, segid, apid); err != nil {
				t.Errorf("Release of stale apid after owner crash = %v, want nil (local retire)", err)
			}
		},
	},
	{
		// Access through an attachment whose owner died: the mapping is
		// poisoned; reads and writes fail typed instead of returning
		// bytes from frames the dead partition no longer guards.
		name: "access",
		run: func(t *testing.T, a *sim.Actor, v victim, att *xpmem.Session, segid xpmem.Segid) {
			apid, va := attachPreCrash(t, a, att, segid)
			a.AdvanceTo(afterCrash)
			buf := make([]byte, 8)
			if _, err := att.Read(va, buf); !errors.Is(err, xpmem.ErrEnclaveDown) {
				t.Errorf("Read through poisoned attachment = %v, want ErrEnclaveDown", err)
			}
			if _, err := att.Write(va, buf); !errors.Is(err, xpmem.ErrEnclaveDown) {
				t.Errorf("Write through poisoned attachment = %v, want ErrEnclaveDown", err)
			}
			if err := att.Detach(a, va); err != nil {
				t.Errorf("Detach of poisoned attachment = %v, want nil", err)
			}
			if err := att.Release(a, segid, apid); err != nil {
				t.Errorf("Release after owner crash = %v, want nil", err)
			}
		},
	},
	{
		// Detach after the owner died unmaps locally (nil) without
		// notifying the dead owner; a second detach of the same address
		// is the usual typed ErrNotAttached.
		name: "detach",
		run: func(t *testing.T, a *sim.Actor, v victim, att *xpmem.Session, segid xpmem.Segid) {
			apid, va := attachPreCrash(t, a, att, segid)
			a.AdvanceTo(afterCrash)
			if err := att.Detach(a, va); err != nil {
				t.Errorf("first Detach after crash = %v, want nil", err)
			}
			if err := att.Detach(a, va); !errors.Is(err, xpmem.ErrNotAttached) {
				t.Errorf("second Detach = %v, want ErrNotAttached", err)
			}
			if err := att.Release(a, segid, apid); err != nil {
				t.Errorf("Release after owner crash = %v, want nil", err)
			}
		},
	},
}

// attachPreCrash performs the get+attach prologue before the crash
// fires.
func attachPreCrash(t *testing.T, a *sim.Actor, att *xpmem.Session, segid xpmem.Segid) (xpmem.Apid, pagetable.VA) {
	t.Helper()
	apid, err := att.GetWith(a, segid, xpmem.GetOpts{Timeout: sim.Millisecond})
	if err != nil {
		t.Fatalf("pre-crash Get: %v", err)
	}
	va, err := att.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: segBytes, Timeout: sim.Millisecond})
	if err != nil {
		t.Fatalf("pre-crash Attach: %v", err)
	}
	return apid, va
}

// runMatrixCell executes one (victim kind, protocol phase) cell and
// returns the run's digest.
func runMatrixCell(t *testing.T, kind string, mc matrixCase) trace.Digest {
	t.Helper()
	node := xemem.NewNode(xemem.NodeConfig{Seed: 1234, MemBytes: 2 << 30})
	tr := trace.NewTracer("matrix-" + kind + "-" + mc.name)
	tr.SetKeepEvents(false)
	node.World().SetObserver(tr)

	v := bootVictim(t, node, kind)
	inj := fault.New(node.World(), fault.Plan{
		Crashes: []fault.Crash{{At: crashAt, Module: v.mod.Name()}},
	})
	inj.Register(node.LinuxModule(), v.mod)
	inj.Arm()

	att, _ := node.LinuxProcess("att", 1)
	node.Spawn("exp", func(a *sim.Actor) {
		if _, err := v.sess.Make(a, v.base, segBytes, xpmem.PermRead, "matrix-data"); err != nil {
			t.Errorf("setup Make: %v", err)
		}
	})
	node.Spawn("probe", func(a *sim.Actor) {
		var segid xpmem.Segid
		if !a.PollDeadline(10*sim.Microsecond, a.Now()+crashAt/2, func() bool {
			s, err := att.Lookup(a, "matrix-data")
			if err != nil {
				return false
			}
			segid = s
			return true
		}) {
			t.Error("setup Lookup never resolved before the crash")
			return
		}
		mc.run(t, a, v, att, segid)
	})
	if err := node.Run(); err != nil {
		t.Fatal(err)
	}
	if inj.Stats().Crashes != 1 {
		t.Fatalf("crash schedule fired %d times, want 1", inj.Stats().Crashes)
	}
	if !v.mod.Crashed() {
		t.Fatal("victim module not marked crashed")
	}
	return tr.Digest()
}

// TestFaultMatrix runs every (enclave type × interrupted phase) cell,
// asserting the typed error inside the cell and digest stability across
// an immediate rerun — same seed, same plan, bit-identical trace even
// through a mid-protocol enclave death.
func TestFaultMatrix(t *testing.T) {
	for _, kind := range []string{"cokernel", "vm"} {
		for _, mc := range matrixCases {
			t.Run(kind+"/"+mc.name, func(t *testing.T) {
				first := runMatrixCell(t, kind, mc)
				second := runMatrixCell(t, kind, mc)
				if first.SHA256 != second.SHA256 {
					t.Fatalf("faulted run not reproducible:\n  %+v\n  %+v", first, second)
				}
			})
		}
	}
}

// TestCrashSurvivorsKeepWorking: a crash must poison only state
// touching the dead enclave — unrelated local sharing on the survivor
// continues unharmed afterwards.
func TestCrashSurvivorsKeepWorking(t *testing.T) {
	node := xemem.NewNode(xemem.NodeConfig{Seed: 9, MemBytes: 2 << 30})
	v := bootVictim(t, node, "cokernel")
	inj := fault.New(node.World(), fault.Plan{
		Crashes: []fault.Crash{{At: crashAt, Module: v.mod.Name()}},
	})
	inj.Register(node.LinuxModule(), v.mod)
	inj.Arm()

	maker, makerP := node.LinuxProcess("maker", 1)
	taker, _ := node.LinuxProcess("taker", 2)
	region, err := xemem.AllocLinux(node.Linux(), makerP, "local", segBytes, true)
	if err != nil {
		t.Fatal(err)
	}
	node.Spawn("local-pair", func(a *sim.Actor) {
		a.AdvanceTo(afterCrash)
		if _, err := maker.Write(region.Base, []byte("still alive")); err != nil {
			t.Error(err)
			return
		}
		segid, err := maker.Make(a, region.Base, segBytes, xpmem.PermRead, "post-crash")
		if err != nil {
			t.Errorf("Make on survivor after crash: %v", err)
			return
		}
		apid, err := taker.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
		if err != nil {
			t.Errorf("Get on survivor after crash: %v", err)
			return
		}
		va, err := taker.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: segBytes, Perm: xpmem.PermRead})
		if err != nil {
			t.Errorf("Attach on survivor after crash: %v", err)
			return
		}
		buf := make([]byte, len("still alive"))
		if _, err := taker.Read(va, buf); err != nil || string(buf) != "still alive" {
			t.Errorf("Read on survivor after crash: %q, %v", buf, err)
			return
		}
		if err := taker.Detach(a, va); err != nil {
			t.Error(err)
		}
		if err := taker.Release(a, segid, apid); err != nil {
			t.Error(err)
		}
	})
	if err := node.Run(); err != nil {
		t.Fatal(err)
	}
}
