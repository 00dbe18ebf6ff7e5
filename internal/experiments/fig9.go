package experiments

import (
	"fmt"
	"strings"

	"xemem"
	"xemem/internal/cluster"
	"xemem/internal/insitu"
	"xemem/internal/proc"
	"xemem/internal/sim"
)

// Fig9Cell is one point of Figure 9: mean ± stddev completion time of the
// weak-scaled composed benchmark at a node count.
type Fig9Cell struct {
	Nodes        int     `json:"nodes"`
	MultiEnclave bool    `json:"multi_enclave"`
	Recurring    bool    `json:"recurring"`
	MeanS        float64 `json:"mean_s"`
	StdS         float64 `json:"std_s"`
}

// Fig9Result holds the regenerated figure (both subfigures).
type Fig9Result struct {
	Runs  int        `json:"runs"`
	Cells []Fig9Cell `json:"cells"`
}

// Fig9NodeCounts is the paper's x-axis.
var Fig9NodeCounts = []int{1, 2, 4, 8}

// Fig9 reproduces §7: the composed benchmark in weak-scaling mode on
// 1–8 nodes, asynchronous execution, with the Linux-only configuration
// against the multi-enclave one (HPC simulation in a Palacios VM on an
// isolated Kitten co-kernel host, analytics in the native Linux enclave),
// for both attachment models. runs repetitions (the paper reports 5).
// Every (model, configuration, node count, repetition) run is one world
// with its own fixed seed.
func Fig9(seed uint64, runs int) (*Fig9Result, error) {
	res := &Fig9Result{Runs: runs}
	for _, recurring := range []bool{false, true} {
		for _, multi := range []bool{false, true} {
			for _, nodes := range Fig9NodeCounts {
				var s sim.Sample
				for r := 0; r < runs; r++ {
					t, err := fig9Run(Observe, seed+uint64(r)*104729, nodes, multi, recurring)
					if err != nil {
						return nil, fmt.Errorf("fig9 nodes=%d multi=%v rec=%v run %d: %w", nodes, multi, recurring, r, err)
					}
					s.AddTime(t)
				}
				res.Cells = append(res.Cells, Fig9Cell{
					Nodes: nodes, MultiEnclave: multi, Recurring: recurring,
					MeanS: s.Mean(), StdS: s.Stddev(),
				})
			}
		}
	}
	return res, nil
}

// Fig9Run executes a single Figure 9 cell — one weak-scaled run at the
// given node count — and returns the completion time. It is the
// benchmark-facing wrapper around the sweep's per-cell function.
func Fig9Run(seed uint64, nodes int, multiEnclave, recurring bool) (sim.Time, error) {
	return fig9Run(nil, seed, nodes, multiEnclave, recurring)
}

// fig9BuildNode constructs node i of a Figure 9 world — the Linux
// management enclave with the analytics process and, in the
// multi-enclave configuration, the Kitten co-kernel hosting the
// simulation's Palacios VM — and wires its composed pair with the
// standard Figure 9 geometry. The returned function yields the pair's
// result after the world has run.
func fig9BuildNode(w *sim.World, i int, multiEnclave, recurring bool, bar insitu.Barrier) (func() *insitu.Result, error) {
	node := xemem.NewNodeInWorld(w, xemem.NodeConfig{
		Name: fmt.Sprintf("node%d", i), MemBytes: 32 << 30, LinuxCores: 8,
	})
	regionBytes := uint64(fig9DataBytes) + 64<<10
	ap := node.Linux().NewProcess("analytics", 2)
	anSide := insitu.Side{Mod: node.LinuxModule(), Proc: ap, Core: node.Linux().Cores()[2]}

	var simSide insitu.Side
	var simModel insitu.ComputeModel
	var region *proc.Region
	if multiEnclave {
		ckHost, err := node.BootCoKernel("kitten-host", 6<<30)
		if err != nil {
			return nil, err
		}
		vm, err := node.BootVMOnCoKernel("vm-sim", ckHost, 4<<30, 1)
		if err != nil {
			return nil, err
		}
		sp := vm.Guest.NewProcess("sim", 0)
		if region, err = vm.Guest.AllocContiguous(sp, "sim-data", regionBytes/4096, true); err != nil {
			return nil, err
		}
		simSide = insitu.Side{Mod: vm.Module, Proc: sp, Core: vm.Guest.Cores()[0]}
		simModel = vmOnKittenSim(fig9IterKitten)
	} else {
		sp := node.Linux().NewProcess("sim", 1)
		var err error
		if region, err = node.Linux().AllocContiguous(sp, "sim-data", regionBytes/4096, true); err != nil {
			return nil, err
		}
		simSide = insitu.Side{Mod: node.LinuxModule(), Proc: sp, Core: node.Linux().Cores()[1]}
		simModel = linuxSimPinned(fig9IterLinux)
	}
	cfg := insitu.Config{
		Sync: false, Recurring: recurring,
		Iters: fig9Iters, SignalEvery: fig9SignalEvery,
		DataBytes: fig9DataBytes,
		CtrlName:  fmt.Sprintf("fig9-ctrl-%d", i),
		SameOS:    !multiEnclave,
		Barrier:   bar,
	}
	return insitu.Run(w, cfg, simSide, simModel, anSide, nativeAnalytics(w), region)
}

// fig9Run executes one weak-scaled run: `nodes` simulated machines in one
// world, coupled by the allreduce at every CG iteration, each running its
// own composed pair. It returns the slowest node's simulation completion
// time (they coincide up to the final partial interval).
func fig9Run(obs observeFn, seed uint64, nodes int, multiEnclave, recurring bool) (sim.Time, error) {
	w := sim.NewWorld(seed)
	announce(obs, fmt.Sprintf("fig9/nodes=%d/multi=%v/recurring=%v/seed=%d", nodes, multiEnclave, recurring, seed), w)
	bar := cluster.NewAllreduce(nodes, fig9AllreduceNs)
	results := make([]func() *insitu.Result, nodes)

	for i := 0; i < nodes; i++ {
		get, err := fig9BuildNode(w, i, multiEnclave, recurring, bar)
		if err != nil {
			return 0, err
		}
		results[i] = get
	}
	if err := w.Run(); err != nil {
		return 0, err
	}
	var slowest sim.Time
	for _, get := range results {
		if t := get().SimTime; t > slowest {
			slowest = t
		}
	}
	return slowest, nil
}

// Cell fetches one figure point.
func (r *Fig9Result) Cell(nodes int, multi, recurring bool) Fig9Cell {
	for _, c := range r.Cells {
		if c.Nodes == nodes && c.MultiEnclave == multi && c.Recurring == recurring {
			return c
		}
	}
	return Fig9Cell{}
}

// String renders both subfigures.
func (r *Fig9Result) String() string {
	var b strings.Builder
	for _, recurring := range []bool{false, true} {
		sub, model := "(a)", "one-time shared memory attachment model"
		if recurring {
			sub, model = "(b)", "recurring shared memory attachment model"
		}
		fmt.Fprintf(&b, "Figure 9%s: multi-node in situ benchmark (weak scaling, async), %s (%d runs)\n", sub, model, r.Runs)
		fmt.Fprintf(&b, "%8s %22s %22s\n", "Nodes", "Linux Only", "Multi Enclave")
		for _, n := range Fig9NodeCounts {
			lo := r.Cell(n, false, recurring)
			me := r.Cell(n, true, recurring)
			fmt.Fprintf(&b, "%8d %13.1f ± %4.1f s %13.1f ± %4.1f s\n",
				n, lo.MeanS, lo.StdS, me.MeanS, me.StdS)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}
