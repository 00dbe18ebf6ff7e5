package experiments

import (
	"fmt"
	"strings"

	"xemem"
	"xemem/internal/experiments/sweep"
	"xemem/internal/rdma"
	"xemem/internal/sim"
	"xemem/internal/xpmem"
)

// Fig5Row is one memory size of Figure 5: cross-enclave throughput of
// XEMEM attachments (with and without reading the contents out) next to
// the RDMA-write baseline over the virtualized InfiniBand device.
type Fig5Row struct {
	SizeMB        int
	AttachGBs     float64
	AttachReadGBs float64
	RDMAGBs       float64
}

// Fig5Result holds the regenerated figure.
type Fig5Result struct {
	Reps int
	Rows []Fig5Row
}

// Fig5 reproduces §5.2: one Kitten co-kernel exports regions of
// 128 MB–1 GB; a native Linux process attaches each region reps times
// (the paper uses 500), once timing the attachment alone and once
// including a full read-out; the RDMA column runs the write bandwidth
// test between two VMs with SR-IOV virtual functions. The two worlds
// (attach node, RDMA baseline) are independent sweep cells executed on
// workers host goroutines (<= 0 selects GOMAXPROCS, 1 reproduces the
// serial runner exactly).
func Fig5(seed uint64, reps, workers int) (*Fig5Result, error) {
	if reps <= 0 {
		reps = 500
	}
	res := &Fig5Result{Reps: reps}
	sizes := []int{128, 256, 512, 1024}

	type out struct {
		rows []Fig5Row
		rdma []float64
	}
	obsMain, obsRDMA := cellObserve(0), cellObserve(1)
	cells := []sweep.Cell[out]{
		{Label: "fig5", Run: func() (out, error) {
			rows, err := fig5Attach(obsMain, seed, sizes, reps)
			return out{rows: rows}, err
		}},
		{Label: "fig5/rdma", Run: func() (out, error) {
			bw, err := fig5RDMA(obsRDMA, seed+1, sizes)
			return out{rdma: bw}, err
		}},
	}
	outs, err := sweep.Run(cells, workers)
	if err != nil {
		return nil, err
	}
	res.Rows = outs[0].rows
	for i := range res.Rows {
		res.Rows[i].RDMAGBs = outs[1].rdma[i]
	}
	return res, nil
}

// fig5Attach runs the XEMEM attach world: per size, the attach-only and
// attach+read throughputs.
func fig5Attach(obs observeFn, seed uint64, sizes []int, reps int) ([]Fig5Row, error) {
	node := xemem.NewNode(xemem.NodeConfig{Seed: seed, MemBytes: 32 << 30, LinuxCores: 4})
	announce(obs, "fig5", node.World())
	ck, err := node.BootCoKernel("kitten0", 2<<30)
	if err != nil {
		return nil, err
	}
	expSess, heap, err := node.KittenProcess(ck, "exporter", 1<<30)
	if err != nil {
		return nil, err
	}
	attSess, _ := node.LinuxProcess("attacher", 1)
	costs := node.Costs()

	var rows []Fig5Row
	var runErr error
	node.Spawn("fig5", func(a *sim.Actor) {
		for _, szMB := range sizes {
			bytes := uint64(szMB) << 20
			segid, err := expSess.Make(a, heap.Base, bytes, xpmem.PermRead|xpmem.PermWrite, "")
			if err != nil {
				runErr = err
				return
			}
			apid, err := attSess.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
			if err != nil {
				runErr = err
				return
			}
			measure := func(read bool) (float64, error) {
				var total sim.Time
				for i := 0; i < reps; i++ {
					start := a.Now()
					va, err := attSess.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: bytes, Perm: xpmem.PermRead})
					if err != nil {
						return 0, err
					}
					if read {
						// Stream the contents out of the mapping.
						a.Advance(sim.CopyTime(int(bytes), costs.MemReadBW))
					}
					total += a.Now() - start
					if err := attSess.Detach(a, va); err != nil {
						return 0, err
					}
				}
				return sim.PerSecond(float64(bytes)*float64(reps), total), nil
			}
			attachBW, err := measure(false)
			if err != nil {
				runErr = err
				return
			}
			readBW, err := measure(true)
			if err != nil {
				runErr = err
				return
			}
			if err := attSess.Release(a, segid, apid); err != nil {
				runErr = err
				return
			}
			if err := expSess.Remove(a, segid); err != nil {
				runErr = err
				return
			}
			rows = append(rows, Fig5Row{SizeMB: szMB, AttachGBs: attachBW / 1e9, AttachReadGBs: readBW / 1e9})
		}
	})
	if err := node.Run(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	return rows, nil
}

// fig5RDMA runs the RDMA baseline: a bandwidth test between two KVM
// virtual machines, each owning one virtual function (§5.2).
func fig5RDMA(obs observeFn, seed uint64, sizes []int) ([]float64, error) {
	w := sim.NewWorld(seed)
	announce(obs, "fig5/rdma", w)
	dev := rdma.NewDevice("cx3", sim.DefaultCosts())
	vf := dev.NewVF("vf0")
	var rdmaErr error
	rdmaBW := make([]float64, len(sizes))
	w.Spawn("rdma-test", func(a *sim.Actor) {
		for i, szMB := range sizes {
			bw, err := vf.BandwidthTest(a, szMB<<20, 50)
			if err != nil {
				rdmaErr = err
				return
			}
			rdmaBW[i] = bw / 1e9
		}
	})
	if err := w.Run(); err != nil {
		return nil, err
	}
	if rdmaErr != nil {
		return nil, rdmaErr
	}
	return rdmaBW, nil
}

// String renders the figure as the paper's series.
func (r *Fig5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: cross-enclave throughput, shared memory vs RDMA (%d attachments/point)\n", r.Reps)
	fmt.Fprintf(&b, "%10s %16s %22s %18s\n", "Size(MB)", "XEMEM Attach", "XEMEM Attach+Read", "RDMA Verbs/IB")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10d %13.2f GB/s %19.2f GB/s %15.2f GB/s\n",
			row.SizeMB, row.AttachGBs, row.AttachReadGBs, row.RDMAGBs)
	}
	return b.String()
}
