package experiments

import (
	"fmt"
	"strings"

	"xemem"
	"xemem/internal/pagetable"
	"xemem/internal/sim"
	"xemem/internal/xpmem"
)

// Fig6Cell is the per-attacher throughput for one (enclave count, size)
// point of Figure 6.
type Fig6Cell struct {
	Enclaves int     `json:"enclaves"`
	SizeMB   int     `json:"size_mb"`
	GBs      float64 `json:"gbs"`
}

// Fig6Result holds the regenerated figure.
type Fig6Result struct {
	Reps  int        `json:"reps"`
	Cells []Fig6Cell `json:"cells"`
	// Core0Busy reports, per enclave count, the management enclave's
	// core-0 busy time at the 1 GB point — the §5.3 contention
	// diagnostic.
	Core0Busy map[int]sim.Time `json:"core0_busy_ns"`
}

// fig6Grid reproduces §5.3: 1, 2, 4 or 8 Kitten co-kernel enclaves (one
// core, 1.5 GB each) export regions of 128 MB–1 GB; one Linux process
// per enclave attaches concurrently, ≥reps times each. The 1→2 enclave
// dip is the mm-coherence charge (sim.Costs.CoherencePerPage, set to
// match the paper's dip), paid per mapped page only while a second
// mapper is active, so the curve is flat past two enclaves. The core-0
// IPI funnel is modelled too but idle at this load (Fig6Explain). Each
// (enclaves, size) point is one cell with its own fixed seed.
func fig6Grid(seed uint64, reps int) Grid[*Fig6Result] {
	var cells []Cell
	var pts []*fig6Out
	for _, enclaves := range []int{1, 2, 4, 8} {
		for _, szMB := range []int{128, 256, 512, 1024} {
			p := &fig6Out{enclaves: enclaves, szMB: szMB}
			cells, pts = append(cells, fig6Cell(seed, reps, p)), append(pts, p)
		}
	}
	return Grid[*Fig6Result]{cells, func() *Fig6Result {
		res := &Fig6Result{Reps: reps, Core0Busy: make(map[int]sim.Time)}
		for _, p := range pts {
			res.Cells = append(res.Cells, Fig6Cell{Enclaves: p.enclaves, SizeMB: p.szMB, GBs: p.bw / 1e9})
			if p.szMB == 1024 {
				res.Core0Busy[p.enclaves] = p.core0Busy
			}
		}
		return res
	}}
}

// fig6Out is one Figure 6 point: its configuration and, once its cell
// has run, the mean per-attacher throughput, the mean per-attachment
// latency, and core 0's busy time.
type fig6Out struct {
	enclaves, szMB int
	bw             float64
	meanAttach     sim.Time
	core0Busy      sim.Time
}

// fig6Cell is the world of point p, which running it fills in.
func fig6Cell(seed uint64, reps int, p *fig6Out) Cell {
	return Cell{
		Label: fmt.Sprintf("fig6/enclaves=%d/size=%dMB", p.enclaves, p.szMB),
		Seed:  seed + uint64(p.enclaves*1000+p.szMB),
		build: func(w *sim.World) error { return fig6Point(w, reps, p) },
	}
}

// fig6Point builds and runs point pt's world.
func fig6Point(w *sim.World, reps int, pt *fig6Out) error {
	enclaves, szMB := pt.enclaves, pt.szMB
	node := xemem.NewNodeInWorld(w, xemem.NodeConfig{
		MemBytes:   32 << 30,
		LinuxCores: 1 + enclaves, // core 0 + one per attacher
	})
	bytes := uint64(szMB) << 20

	type pair struct {
		exp  *xpmem.Session
		att  *xpmem.Session
		heap pagetable.VA
	}
	pairs := make([]pair, enclaves)
	for i := 0; i < enclaves; i++ {
		ck, err := node.BootCoKernel(fmt.Sprintf("kitten%d", i), 1536<<20)
		if err != nil {
			return err
		}
		expSess, heap, err := node.KittenProcess(ck, fmt.Sprintf("exp%d", i), 1<<30)
		if err != nil {
			return err
		}
		attSess, _ := node.LinuxProcess(fmt.Sprintf("att%d", i), 1+i)
		pairs[i] = pair{exp: expSess, att: attSess, heap: heap.Base}
	}

	bws := make([]float64, enclaves)
	totals := make([]sim.Time, enclaves)
	var runErr error
	for i := range pairs {
		i := i
		p := pairs[i]
		node.Spawn(fmt.Sprintf("attacher%d", i), func(a *sim.Actor) {
			segid, err := p.exp.Make(a, p.heap, bytes, xpmem.PermRead|xpmem.PermWrite, "")
			if err != nil {
				runErr = err
				return
			}
			apid, err := p.att.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
			if err != nil {
				runErr = err
				return
			}
			total, err := timedAttaches(a, p.att, segid, apid, bytes, reps, nil)
			if err != nil {
				runErr = err
				return
			}
			bws[i] = sim.PerSecond(float64(bytes)*float64(reps), total)
			totals[i] = total
		})
	}
	if err := node.Run(); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	mean := 0.0
	var attachSum sim.Time
	for i, bw := range bws {
		mean += bw
		attachSum += totals[i]
	}
	pt.bw = mean / float64(enclaves)
	pt.meanAttach = attachSum / sim.Time(enclaves*reps)
	pt.core0Busy = node.Linux().Cores()[0].BusyTime()
	return nil
}

// String renders the figure as the paper's series (one line per size).
func (r *Fig6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: throughput vs number of co-kernel enclaves (%d attachments/point)\n", r.Reps)
	fmt.Fprintf(&b, "%10s", "Size")
	for _, n := range []int{1, 2, 4, 8} {
		fmt.Fprintf(&b, " %10s", fmt.Sprintf("%d encl", n))
	}
	fmt.Fprintf(&b, "\n")
	for _, szMB := range []int{128, 256, 512, 1024} {
		fmt.Fprintf(&b, "%7d MB", szMB)
		for _, n := range []int{1, 2, 4, 8} {
			for _, c := range r.Cells {
				if c.Enclaves == n && c.SizeMB == szMB {
					fmt.Fprintf(&b, " %7.2f GB", c.GBs)
				}
			}
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// cell fetches one figure cell.
func (r *Fig6Result) cell(enclaves, szMB int) float64 {
	for _, c := range r.Cells {
		if c.Enclaves == enclaves && c.SizeMB == szMB {
			return c.GBs
		}
	}
	return 0
}
