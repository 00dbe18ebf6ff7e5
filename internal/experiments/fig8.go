package experiments

import (
	"fmt"
	"strings"

	"xemem"
	"xemem/internal/insitu"
	"xemem/internal/proc"
	"xemem/internal/sim"
)

// Fig8Config names the Table 3 enclave configurations.
type Fig8Config string

// Table 3 rows: where the HPC simulation and the analytics program run.
const (
	LinuxLinux   Fig8Config = "Linux/Linux"
	KittenLinux  Fig8Config = "Kitten/Linux"
	KittenVMOnLx Fig8Config = "Kitten/Linux VM (Linux Host)"
	KittenVMOnKt Fig8Config = "Kitten/Linux VM (Kitten Host)"
)

// Fig8Configs lists the configurations in the paper's legend order.
var Fig8Configs = []Fig8Config{LinuxLinux, KittenLinux, KittenVMOnLx, KittenVMOnKt}

// Fig8Cell is one bar of Figure 8: mean ± stddev of the HPC simulation's
// completion time over the runs.
type Fig8Cell struct {
	Config    Fig8Config `json:"config"`
	Sync      bool       `json:"sync"`
	Recurring bool       `json:"recurring"`
	MeanS     float64    `json:"mean_s"`
	StdS      float64    `json:"std_s"`
}

// Fig8Result holds the regenerated figure (both subfigures).
type Fig8Result struct {
	Runs  int        `json:"runs"`
	Cells []Fig8Cell `json:"cells"`
}

// Fig8 reproduces §6.4: the composed HPCCG+STREAM benchmark on a single
// node, across the four Table 3 enclave configurations, the
// synchronous/asynchronous execution models, and the one-time/recurring
// attachment models — runs repetitions of each (the paper reports 10).
// Every (configuration, model, repetition) run is one world with its
// own fixed seed.
func Fig8(seed uint64, runs int) (*Fig8Result, error) {
	res := &Fig8Result{Runs: runs}
	for _, recurring := range []bool{false, true} {
		for _, sync := range []bool{true, false} {
			for _, cfg := range Fig8Configs {
				bar, err := Fig8Single(seed, cfg, sync, recurring, runs)
				if err != nil {
					return nil, err
				}
				res.Cells = append(res.Cells, bar)
			}
		}
	}
	return res, nil
}

// Fig8Single runs one configuration/workflow combination (a single
// Figure 8 bar) with the given repetitions, run r seeded seed+r*7919,
// and folds them into the bar's mean ± stddev. It backs both Fig8 and
// the xemem-insitu command.
func Fig8Single(seed uint64, cfg Fig8Config, sync, recurring bool, runs int) (Fig8Cell, error) {
	bar := Fig8Cell{Config: cfg, Sync: sync, Recurring: recurring}
	var s sim.Sample
	for r := 0; r < runs; r++ {
		t, err := fig8Run(Observe, seed+uint64(r)*7919, cfg, sync, recurring)
		if err != nil {
			return Fig8Cell{}, fmt.Errorf("fig8 %s sync=%v rec=%v run %d: %w", cfg, sync, recurring, r, err)
		}
		s.AddTime(t)
	}
	bar.MeanS, bar.StdS = s.Mean(), s.Stddev()
	return bar, nil
}

// fig8Run executes one composed run in a fresh world and returns the HPC
// simulation's completion time.
func fig8Run(obs observeFn, seed uint64, config Fig8Config, sync, recurring bool) (sim.Time, error) {
	node := xemem.NewNode(xemem.NodeConfig{Seed: seed, MemBytes: 16 << 30, LinuxCores: 8})
	announce(obs, fmt.Sprintf("fig8/%s/sync=%v/recurring=%v/seed=%d", config, sync, recurring, seed), node.World())
	w := node.World()
	regionBytes := uint64(fig8DataBytes) + 64<<10 // data + control page slack

	var simSide, anSide insitu.Side
	var simModel insitu.ComputeModel
	var anModel insitu.AnalyticsModel
	var simRegion *proc.Region

	switch config {
	case LinuxLinux:
		sp := node.Linux().NewProcess("sim", 1)
		ap := node.Linux().NewProcess("analytics", 2)
		region, err := node.Linux().AllocContiguous(sp, "sim-data", regionBytes/4096, true)
		if err != nil {
			return 0, err
		}
		simSide = insitu.Side{Mod: node.LinuxModule(), Proc: sp, Core: node.Linux().Cores()[1]}
		anSide = insitu.Side{Mod: node.LinuxModule(), Proc: ap, Core: node.Linux().Cores()[2]}
		simModel = linuxSim(fig8IterLinux)
		anModel = nativeAnalytics(w)
		simRegion = region

	case KittenLinux, KittenVMOnLx, KittenVMOnKt:
		ck, err := node.BootCoKernel("kitten-sim", 2<<30)
		if err != nil {
			return 0, err
		}
		sess, heap, err := node.KittenProcess(ck, "sim", regionBytes)
		if err != nil {
			return 0, err
		}
		simSide = insitu.Side{Mod: ck.Module, Proc: sess.Process(), Core: ck.OS.Core()}
		simModel = kittenSim(fig8IterKitten)
		simRegion = heap

		switch config {
		case KittenLinux:
			ap := node.Linux().NewProcess("analytics", 2)
			anSide = insitu.Side{Mod: node.LinuxModule(), Proc: ap, Core: node.Linux().Cores()[2]}
			anModel = nativeAnalytics(w)
		case KittenVMOnLx:
			vm, err := node.BootVM("vm-an", 2<<30, 2)
			if err != nil {
				return 0, err
			}
			ap := vm.Guest.NewProcess("analytics", 1)
			anSide = insitu.Side{Mod: vm.Module, Proc: ap, Core: vm.Guest.Cores()[1]}
			anModel = vmAnalytics(w, vmLinuxHostEff)
		case KittenVMOnKt:
			ckHost, err := node.BootCoKernel("kitten-host", 3<<30)
			if err != nil {
				return 0, err
			}
			vm, err := node.BootVMOnCoKernel("vm-an", ckHost, 2<<30, 2)
			if err != nil {
				return 0, err
			}
			ap := vm.Guest.NewProcess("analytics", 1)
			anSide = insitu.Side{Mod: vm.Module, Proc: ap, Core: vm.Guest.Cores()[1]}
			anModel = vmAnalytics(w, vmKittenHostEff)
		}
	default:
		return 0, fmt.Errorf("unknown config %q", config)
	}

	cfg := insitu.Config{
		Sync: sync, Recurring: recurring,
		Iters: fig8Iters, SignalEvery: fig8SignalEvery,
		DataBytes: fig8DataBytes,
		CtrlName:  "fig8-ctrl",
		SameOS:    config == LinuxLinux,
	}
	get, err := insitu.Run(node.World(), cfg, simSide, simModel, anSide, anModel, simRegion)
	if err != nil {
		return 0, err
	}
	if err := node.Run(); err != nil {
		return 0, err
	}
	return get().SimTime, nil
}

// Cell fetches one bar.
func (r *Fig8Result) Cell(cfg Fig8Config, sync, recurring bool) Fig8Cell {
	for _, c := range r.Cells {
		if c.Config == cfg && c.Sync == sync && c.Recurring == recurring {
			return c
		}
	}
	return Fig8Cell{}
}

// String renders both subfigures.
func (r *Fig8Result) String() string {
	var b strings.Builder
	for _, recurring := range []bool{false, true} {
		sub, model := "(a)", "one-time shared memory attachment model"
		if recurring {
			sub, model = "(b)", "recurring shared memory attachment model"
		}
		fmt.Fprintf(&b, "Figure 8%s: single-node in situ benchmark, %s (%d runs)\n", sub, model, r.Runs)
		fmt.Fprintf(&b, "%-32s %22s %22s\n", "Configuration", "Synchronous", "Asynchronous")
		for _, cfg := range Fig8Configs {
			s := r.Cell(cfg, true, recurring)
			as := r.Cell(cfg, false, recurring)
			fmt.Fprintf(&b, "%-32s %13.1f ± %4.1f s %13.1f ± %4.1f s\n",
				cfg, s.MeanS, s.StdS, as.MeanS, as.StdS)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}
