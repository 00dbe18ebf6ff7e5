package experiments

import (
	"fmt"
	"strings"

	"xemem"
	"xemem/internal/rdma"
	"xemem/internal/sim"
	"xemem/internal/xpmem"
)

// Fig5Row is one memory size of Figure 5: cross-enclave throughput of
// XEMEM attachments (with and without reading the contents out) next to
// the RDMA-write baseline over the virtualized InfiniBand device.
type Fig5Row struct {
	SizeMB        int     `json:"size_mb"`
	AttachGBs     float64 `json:"attach_gbs"`
	AttachReadGBs float64 `json:"attach_read_gbs"`
	RDMAGBs       float64 `json:"rdma_gbs"`
}

// Fig5Result holds the regenerated figure.
type Fig5Result struct {
	Reps int       `json:"reps"`
	Rows []Fig5Row `json:"rows"`
}

// fig5Grid reproduces §5.2: one Kitten co-kernel exports regions of
// 128 MB–1 GB; a native Linux process attaches each region reps times
// (the paper uses 500), once timing the attachment alone and once
// including a full read-out; the RDMA column runs the write bandwidth
// test between two VMs with SR-IOV virtual functions. The attach node
// and the RDMA baseline are two cells, run in that order.
func fig5Grid(seed uint64, reps int) Grid[*Fig5Result] {
	sizes := []int{128, 256, 512, 1024}
	var rows []Fig5Row
	var rdma []float64
	return Grid[*Fig5Result]{
		Cells: []Cell{
			{"fig5", seed, func(w *sim.World) (err error) {
				rows, err = fig5Attach(w, sizes, reps)
				return err
			}},
			{"fig5/rdma", seed + 1, func(w *sim.World) (err error) {
				rdma, err = fig5RDMA(w, sizes)
				return err
			}},
		},
		Fold: func() *Fig5Result {
			for i := range rows {
				rows[i].RDMAGBs = rdma[i]
			}
			return &Fig5Result{Reps: reps, Rows: rows}
		},
	}
}

// fig5Attach runs the XEMEM attach world: per size, the attach-only and
// attach+read throughputs.
func fig5Attach(w *sim.World, sizes []int, reps int) ([]Fig5Row, error) {
	node := xemem.NewNodeInWorld(w, xemem.NodeConfig{MemBytes: 32 << 30, LinuxCores: 4})
	ck, err := node.BootCoKernel("kitten0", 2<<30)
	if err != nil {
		return nil, err
	}
	expSess, heap, err := node.KittenProcess(ck, "exporter", 1<<30)
	if err != nil {
		return nil, err
	}
	attSess, _ := node.LinuxProcess("attacher", 1)
	costs := node.World().Costs()

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
			attachT, err := timedAttaches(a, attSess, segid, apid, bytes, reps, nil)
			if err != nil {
				runErr = err
				return
			}
			// Stream the contents out of the mapping.
			readT, err := timedAttaches(a, attSess, segid, apid, bytes, reps, func() {
				a.Advance(sim.CopyTime(int(bytes), costs.MemReadBW))
			})
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
			gbs := func(t sim.Time) float64 { return sim.PerSecond(float64(bytes)*float64(reps), t) / 1e9 }
			rows = append(rows, Fig5Row{SizeMB: szMB, AttachGBs: gbs(attachT), AttachReadGBs: gbs(readT)})
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

// timedAttaches attaches segid's first bytes through apid reps times,
// detaching after each, and returns the summed attach time. during, if
// non-nil, runs while the window is mapped and counts toward the time.
func timedAttaches(a *sim.Actor, sess *xpmem.Session, segid xpmem.Segid, apid xpmem.Apid, bytes uint64, reps int, during func()) (sim.Time, error) {
	var total sim.Time
	for i := 0; i < reps; i++ {
		start := a.Now()
		va, err := sess.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: bytes, Perm: xpmem.PermRead})
		if err != nil {
			return 0, err
		}
		if during != nil {
			during()
		}
		total += a.Now() - start
		if err := sess.Detach(a, va); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// fig5RDMA runs the RDMA baseline: a bandwidth test between two KVM
// virtual machines, each owning one virtual function (§5.2).
func fig5RDMA(w *sim.World, sizes []int) ([]float64, error) {
	dev := rdma.NewDevice("cx3")
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
