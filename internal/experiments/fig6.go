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

// Fig6 reproduces §5.3: 1, 2, 4 or 8 Kitten co-kernel enclaves (one core,
// 1.5 GB each) export regions of 128 MB–1 GB; one Linux process per
// enclave attaches concurrently, ≥reps times each. The 1→2 enclave dip
// comes from contention on shared Linux memory-map structures and the
// core-0 IPI funnel, both emergent here. Each (enclaves, size) point is
// one world with its own fixed seed.
func Fig6(seed uint64, reps int) (*Fig6Result, error) {
	res := &Fig6Result{Reps: reps, Core0Busy: make(map[int]sim.Time)}
	for _, enclaves := range []int{1, 2, 4, 8} {
		for _, szMB := range []int{128, 256, 512, 1024} {
			bw, _, core0busy, err := fig6Point(Observe, seed, enclaves, szMB, reps)
			if err != nil {
				return nil, fmt.Errorf("fig6/enclaves=%d/size=%dMB: %w", enclaves, szMB, err)
			}
			res.Cells = append(res.Cells, Fig6Cell{Enclaves: enclaves, SizeMB: szMB, GBs: bw / 1e9})
			if szMB == 1024 {
				res.Core0Busy[enclaves] = core0busy
			}
		}
	}
	return res, nil
}

// fig6Point runs one configuration and returns the mean per-attacher
// throughput, the mean per-attachment latency, and core 0's busy time.
func fig6Point(obs observeFn, seed uint64, enclaves, szMB, reps int) (float64, sim.Time, sim.Time, error) {
	node := xemem.NewNode(xemem.NodeConfig{
		Seed:       seed + uint64(enclaves*1000+szMB),
		MemBytes:   32 << 30,
		LinuxCores: 1 + enclaves, // core 0 + one per attacher
	})
	announce(obs, fmt.Sprintf("fig6/enclaves=%d/size=%dMB", enclaves, szMB), node.World())
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
			return 0, 0, 0, err
		}
		expSess, heap, err := node.KittenProcess(ck, fmt.Sprintf("exp%d", i), 1<<30)
		if err != nil {
			return 0, 0, 0, err
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
		return 0, 0, 0, err
	}
	if runErr != nil {
		return 0, 0, 0, runErr
	}
	mean := 0.0
	var attachSum sim.Time
	for i, bw := range bws {
		mean += bw
		attachSum += totals[i]
	}
	mean /= float64(enclaves)
	meanAttach := attachSum / sim.Time(enclaves*reps)
	return mean, meanAttach, node.Linux().Cores()[0].BusyTime(), nil
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
