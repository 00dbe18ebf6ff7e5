package linuxos_test

import (
	"testing"

	"xemem/internal/extent"
	"xemem/internal/linuxos"
	"xemem/internal/mem"
	"xemem/internal/proc"
	"xemem/internal/sim"
)

func newLinux(t *testing.T, cores int) (*linuxos.Linux, *sim.World, *mem.PhysMem) {
	t.Helper()
	w := sim.NewWorld(1)
	pm := mem.NewPhysMem("node", 1<<30)
	l := linuxos.New("linux", w, pm.Zone(0), proc.HostDomain{Mem: pm}, cores)
	return l, w, pm
}

func TestAllocScatteredIsFragmented(t *testing.T) {
	l, _, _ := newLinux(t, 2)
	p := l.NewProcess("app", 1)
	r, err := l.Alloc(p, "buf", 2048, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Backing.Len() < 2 {
		t.Errorf("fullweight allocation came out contiguous: %v", r.Backing)
	}
}

func TestAllocContiguousAligned(t *testing.T) {
	l, _, _ := newLinux(t, 2)
	p := l.NewProcess("app", 1)
	r, err := l.AllocContiguous(p, "buf", 2048, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Backing.Len() != 1 {
		t.Fatalf("not contiguous: %v", r.Backing)
	}
	f := r.Backing.Extents()[0].First
	if uint64(f)%512 != 0 {
		t.Errorf("not 2MB aligned: %#x", uint64(f))
	}
}

func TestWalkForExportChargesPinAndFaults(t *testing.T) {
	l, w, _ := newLinux(t, 2)
	costs := w.Costs()
	p := l.NewProcess("app", 1)
	r, err := l.Alloc(p, "buf", 64, false) // lazy: serve must populate
	if err != nil {
		t.Fatal(err)
	}
	var elapsed sim.Time
	w.Spawn("serve", func(a *sim.Actor) {
		start := a.Now()
		if _, err := l.WalkForExport(a, p.AS, r.Base, 64); err != nil {
			t.Error(err)
			return
		}
		elapsed = a.Now() - start
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	want := 64*(costs.WalkPerPage+costs.PinPerPage) + 64*costs.FaultLinux
	if elapsed != want {
		t.Errorf("serve charged %v, want %v (pin+walk+faults)", elapsed, want)
	}
}

func TestMapRemoteCoherencePenaltyWhenConcurrent(t *testing.T) {
	l, w, _ := newLinux(t, 4)
	costs := w.Costs()
	list1 := extent.FromExtents(extent.Extent{First: 0x200, Count: 4096})
	list2 := extent.FromExtents(extent.Extent{First: 0x200 + 4096, Count: 4096})
	p1 := l.NewProcess("a", 1)
	p2 := l.NewProcess("b", 2)

	var alone, contended sim.Time
	w.Spawn("solo", func(a *sim.Actor) {
		start := a.Now()
		r, err := l.MapRemote(a, p1, list1, 3)
		if err != nil {
			t.Error(err)
			return
		}
		alone = a.Now() - start
		if err := l.UnmapRemote(a, p1, r); err != nil {
			t.Error(err)
		}
		// Now map concurrently with another process.
		done := false
		w.Spawn("other", func(b *sim.Actor) {
			r2, err := l.MapRemote(b, p2, list2, 3)
			if err != nil {
				t.Error(err)
				return
			}
			_ = r2
			done = true
		})
		a.Advance(costs.MmapRegionSetup + 10) // overlap with the other mapper
		start = a.Now()
		r, err = l.MapRemote(a, p1, list1, 3)
		if err != nil {
			t.Error(err)
			return
		}
		contended = a.Now() - start
		_ = done
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if contended <= alone {
		t.Errorf("concurrent mapping (%v) not slower than solo (%v)", contended, alone)
	}
	wantDelta := 4096 * costs.CoherencePerPage
	if contended-alone != wantDelta {
		t.Errorf("coherence penalty = %v, want %v", contended-alone, wantDelta)
	}
}

func TestKernelCoreIsCoreZero(t *testing.T) {
	l, _, _ := newLinux(t, 4)
	if l.KernelCore() != l.Cores()[0] {
		t.Fatal("kernel work must land on core 0 (§5.3)")
	}
}

func TestProcessCoreAssignmentClamped(t *testing.T) {
	l, _, _ := newLinux(t, 2)
	p := l.NewProcess("app", 99)
	if l.CoreOf(p) != l.Cores()[1] {
		t.Fatal("core index not clamped")
	}
	p2 := l.NewProcess("app2", -5)
	if l.CoreOf(p2) != l.Cores()[0] {
		t.Fatal("negative core index not clamped")
	}
}
