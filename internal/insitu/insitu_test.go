package insitu_test

import (
	"testing"

	"xemem/internal/core"
	"xemem/internal/extent"
	"xemem/internal/insitu"
	"xemem/internal/linuxos"
	"xemem/internal/mem"
	"xemem/internal/pisces"
	"xemem/internal/proc"
	"xemem/internal/sim"
	"xemem/internal/xproto"
)

// buildKittenLinux assembles the Table 3 "Kitten Co-Kernel / Native
// Linux" configuration with a small data region and returns everything a
// Run needs.
type rig struct {
	w       *sim.World
	simSide insitu.Side
	anSide  insitu.Side
	region  *proc.Region
}

func buildKittenLinux(t *testing.T, seed uint64, dataPages uint64) *rig {
	t.Helper()
	w := sim.NewWorld(seed)
	pm := mem.NewPhysMem("node0", 1<<30)
	linux := linuxos.New("linux", w, pm.Zone(0), proc.HostDomain{Mem: pm}, 4)
	lmod := core.New("linux", w, linux, true)
	lmod.Start()
	ck, err := pisces.CreateCoKernel("kitten0", w, pm, linux.Zone(), 128<<20, lmod)
	if err != nil {
		t.Fatal(err)
	}
	kp, heap, err := ck.OS.NewProcess("sim", dataPages+8)
	if err != nil {
		t.Fatal(err)
	}
	lp := linux.NewProcess("analytics", 1)
	return &rig{
		w: w,
		simSide: insitu.Side{
			Mod: ck.Module, Proc: kp, Core: ck.OS.Core(),
		},
		anSide: insitu.Side{
			Mod: lmod, Proc: lp, Core: linux.Cores()[1],
		},
		region: heap,
	}
}

func models(w *sim.World) (insitu.ComputeModel, insitu.AnalyticsModel) {
	sim := insitu.ComputeModel{IterBase: 2 * 1e6, RelJitter: 0.001} // 2 ms iterations
	an := insitu.AnalyticsModel{
		CopyBW:              8e9,
		StreamBW:            8e9,
		StreamTrafficFactor: 10,
		FaultPerPage:        w.Costs().FaultLinux,
	}
	return sim, an
}

func runOne(t *testing.T, sync, recurring bool, seed uint64) *insitu.Result {
	t.Helper()
	r := buildKittenLinux(t, seed, 64)
	simModel, anModel := models(r.w)
	cfg := insitu.Config{
		Sync: sync, Recurring: recurring,
		Iters: 40, SignalEvery: 10,
		DataBytes: 32 * extent.PageSize,
		CtrlName:  "insitu-test",
	}
	get, err := insitu.Run(r.w, cfg, r.simSide, simModel, r.anSide, anModel, r.region)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.w.Run(); err != nil {
		t.Fatal(err)
	}
	res := get()
	if res.Points != 4 {
		t.Fatalf("points = %d, want 4", res.Points)
	}
	if res.SimTime <= 0 || res.AnalyticsTime <= 0 {
		t.Fatalf("missing completion times: %+v", res)
	}
	return res
}

func TestSyncSlowerThanAsync(t *testing.T) {
	syncRes := runOne(t, true, false, 5)
	asyncRes := runOne(t, false, false, 5)
	if syncRes.SimTime <= asyncRes.SimTime {
		t.Fatalf("sync (%v) should be slower than async (%v)",
			syncRes.SimTime, asyncRes.SimTime)
	}
}

func TestOneTimeAttachesOnce(t *testing.T) {
	res := runOne(t, true, false, 7)
	if res.AttachTimes.N() != 1 {
		t.Fatalf("one-time model attached %d times", res.AttachTimes.N())
	}
}

func TestRecurringAttachesEveryPoint(t *testing.T) {
	res := runOne(t, true, true, 7)
	if res.AttachTimes.N() != 4 {
		t.Fatalf("recurring model attached %d times, want 4", res.AttachTimes.N())
	}
}

func TestRecurringCostsMoreThanOneTimeSync(t *testing.T) {
	one := runOne(t, true, false, 11)
	rec := runOne(t, true, true, 11)
	if rec.SimTime <= one.SimTime {
		t.Fatalf("recurring sync (%v) should cost more than one-time sync (%v)",
			rec.SimTime, one.SimTime)
	}
}

func TestDeterministicReplay(t *testing.T) {
	a := runOne(t, true, true, 42)
	b := runOne(t, true, true, 42)
	if a.SimTime != b.SimTime || a.AnalyticsTime != b.AnalyticsTime {
		t.Fatalf("replay diverged: %v/%v vs %v/%v",
			a.SimTime, a.AnalyticsTime, b.SimTime, b.AnalyticsTime)
	}
}

func TestLinuxOnlyConfigurationFaultsOnTouch(t *testing.T) {
	// Table 3 row 1: both components in the native Linux enclave. The
	// data attachment is local and lazy, so the analytics pays demand
	// faults per point in the recurring model.
	build := func(recurring bool) sim.Time {
		w := sim.NewWorld(3)
		pm := mem.NewPhysMem("node0", 1<<30)
		linux := linuxos.New("linux", w, pm.Zone(0), proc.HostDomain{Mem: pm}, 4)
		lmod := core.New("linux", w, linux, true)
		lmod.Start()
		sp := linux.NewProcess("sim", 1)
		ap := linux.NewProcess("analytics", 2)
		region, err := linux.Alloc(sp, "data", 64+8, true)
		if err != nil {
			t.Fatal(err)
		}
		simModel, anModel := models(w)
		cfg := insitu.Config{
			Sync: true, Recurring: recurring,
			Iters: 40, SignalEvery: 10,
			DataBytes: 32 * extent.PageSize,
			CtrlName:  "linux-only",
			SameOS:    true,
		}
		get, err := insitu.Run(w, cfg,
			insitu.Side{Mod: lmod, Proc: sp, Core: linux.Cores()[1]}, simModel,
			insitu.Side{Mod: lmod, Proc: ap, Core: linux.Cores()[2]}, anModel,
			region)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return get().SimTime
	}
	one := build(false)
	rec := build(true)
	// Recurring single-OS attachments pay page-fault population at every
	// point (§6.4): visibly slower under the sync model.
	if rec <= one {
		t.Fatalf("recurring Linux-only (%v) should exceed one-time (%v)", rec, one)
	}
}

func TestRegionTooSmallRejected(t *testing.T) {
	r := buildKittenLinux(t, 1, 4)
	simModel, anModel := models(r.w)
	cfg := insitu.Config{
		Sync: true, Iters: 10, SignalEvery: 5,
		DataBytes: 64 * extent.PageSize, CtrlName: "x",
	}
	if _, err := insitu.Run(r.w, cfg, r.simSide, simModel, r.anSide, anModel, r.region); err == nil {
		t.Fatal("undersized region accepted")
	}
}

var _ = xproto.PermRead // keep import for future assertions
