package experiments

import (
	"fmt"
	"strings"

	"xemem"
	"xemem/internal/coll"
	"xemem/internal/pagetable"
	"xemem/internal/sim"
)

// Collective sweep geometry: six ranks (one process per enclave) on the
// default 2×2 locality grid, crossed over hierarchy depth × enclave mix
// × message size × data plane. Iterations run from a cold communicator,
// so the first broadcast carries the export/attach setup and the
// registration-cache misses; the warm numbers show what the attacher-
// side cache amortizes away.
const (
	collBufBytes = 64 << 10
	collChunk    = 16 << 10
	collIters    = 4
)

// CollSizes straddle the 32 KB zero-copy/CICO switchover.
var CollSizes = []uint64{4 << 10, 64 << 10}

// CollMixes are the enclave compositions swept: a uniform co-kernel job
// and the composed co-kernel/VM shape of the paper.
var CollMixes = map[string]string{
	"uniform": "kitten,kitten,kitten,kitten,kitten,kitten",
	"mixed":   "kitten,kitten,kitten,kitten,vm,vm",
}

// collLevels maps sweep depth to the hierarchy run at that depth.
func collLevels(depth int) []xemem.Level {
	switch depth {
	case 1:
		return []xemem.Level{xemem.LevelFlat}
	case 2:
		return []xemem.Level{xemem.LevelNUMA, xemem.LevelFlat}
	default:
		return xemem.DefaultLevels
	}
}

func collModeName(m coll.Mode) string {
	if m == coll.ModeCICO {
		return "cico"
	}
	return "zero-copy"
}

// CollLevelStat attributes collective time to one hierarchy level: the
// virtual time and event count of every coll-* trace op at that level
// (copies, CICO transfers, reductions, flag syncs).
type CollLevelStat struct {
	Level string `json:"level"` // e.g. "L0-numa"
	Ops   uint64 `json:"ops"`
	Ns    int64  `json:"ns"`
}

// CollCell is one (depth, mix, bytes, plane) point of the sweep.
type CollCell struct {
	Depth int    `json:"depth"`
	Mix   string `json:"mix"`
	Bytes uint64 `json:"bytes"`
	Mode  string `json:"mode"`

	// ColdBcastNs is iteration 0 (setup + registration-cache misses);
	// BcastNs and AllreduceNs average the warm iterations. Each
	// iteration's latency is the slowest rank's wall time through the
	// call — the canonical root does no work in a zero-copy broadcast,
	// so a single rank's clock would under-report.
	ColdBcastNs int64 `json:"cold_bcast_ns"`
	BcastNs     int64 `json:"bcast_ns"`
	AllreduceNs int64 `json:"allreduce_ns"`

	// Attacher-side registration-cache counters summed over every rank.
	RegHits          uint64 `json:"reg_hits"`
	RegMisses        uint64 `json:"reg_misses"`
	RegInvalidations uint64 `json:"reg_invalidations"`

	Levels []CollLevelStat `json:"levels"`
	Digest string          `json:"digest"`
}

// CollCrossover summarizes the switchover claim on the deepest uniform
// hierarchy: CICO wins below the switchover (attach latency dominates),
// zero-copy wins above it (the second copy dominates).
type CollCrossover struct {
	SmallZCNs     int64 `json:"small_zc_ns"`
	SmallCICONs   int64 `json:"small_cico_ns"`
	LargeZCNs     int64 `json:"large_zc_ns"`
	LargeCICONs   int64 `json:"large_cico_ns"`
	CICOWinsSmall bool  `json:"cico_wins_small"`
	ZCWinsLarge   bool  `json:"zc_wins_large"`
}

// CollSweepResult is the regenerated collective sweep (BENCH_coll.json).
type CollSweepResult struct {
	Seed      uint64        `json:"seed"`
	Ranks     int           `json:"ranks"`
	Iters     int           `json:"iters"`
	Sizes     []uint64      `json:"sizes"`
	Cells     []CollCell    `json:"cells"`
	Crossover CollCrossover `json:"crossover"`
}

// collGrid is the hierarchical-collective sweep: hierarchy depth
// {1,2,3} × enclave mix {uniform, mixed} × message size across the
// switchover × forced data plane {zero-copy, CICO}, each cell a closed
// world. The result is a pure function of seed: rerunning yields a
// byte-identical BENCH_coll.json. The sweep takes no count.
func collGrid(seed uint64, _ int) Grid[*CollSweepResult] {
	res := &CollSweepResult{
		Seed: seed, Ranks: 6, Iters: collIters, Sizes: CollSizes,
	}
	var cells []Cell
	for _, depth := range []int{1, 2, 3} {
		for _, mix := range []string{"uniform", "mixed"} {
			for _, bytes := range CollSizes {
				for _, mode := range []coll.Mode{coll.ModeZeroCopy, coll.ModeCICO} {
					i, label := len(cells), fmt.Sprintf("coll/d=%d/%s/b=%d/%s", depth, mix, bytes, collModeName(mode))
					cells = append(cells, Cell{label, seed, func(w *sim.World) (err error) {
						res.Cells[i], err = collRun(w, label, depth, mix, bytes, mode)
						return err
					}})
				}
			}
		}
	}
	res.Cells = make([]CollCell, len(cells))
	return Grid[*CollSweepResult]{cells, res.fold}
}

// fold derives the switchover summary once every cell has run.
func (res *CollSweepResult) fold() *CollSweepResult {
	for _, c := range res.Cells {
		if c.Mix != "uniform" || c.Depth != 3 {
			continue
		}
		small, large := c.Bytes == CollSizes[0], c.Bytes == CollSizes[len(CollSizes)-1]
		switch {
		case small && c.Mode == "zero-copy":
			res.Crossover.SmallZCNs = c.BcastNs
		case small && c.Mode == "cico":
			res.Crossover.SmallCICONs = c.BcastNs
		case large && c.Mode == "zero-copy":
			res.Crossover.LargeZCNs = c.BcastNs
		case large && c.Mode == "cico":
			res.Crossover.LargeCICONs = c.BcastNs
		}
	}
	res.Crossover.CICOWinsSmall = res.Crossover.SmallCICONs < res.Crossover.SmallZCNs
	res.Crossover.ZCWinsLarge = res.Crossover.LargeZCNs < res.Crossover.LargeCICONs
	return res
}

// collRun builds and runs one collective-sweep cell.
func collRun(w *sim.World, label string, depth int, mix string, bytes uint64, mode coll.Mode) (CollCell, error) {
	cell := CollCell{Depth: depth, Mix: mix, Bytes: bytes, Mode: collModeName(mode)}
	node := xemem.NewNodeInWorld(w, xemem.NodeConfig{MemBytes: 8 << 30})
	tr := cellTracer(label, w)

	topo, err := xemem.ParseTopology(CollMixes[mix])
	if err != nil {
		return cell, err
	}
	topo.KittenBytes = 128 << 20
	topo.VMBytes = 128 << 20
	encl, err := topo.Build(node)
	if err != nil {
		return cell, err
	}
	levels := collLevels(depth)
	scratchCap := uint64(collChunk * len(encl) * len(levels))
	members := make([]coll.Member, 0, len(encl))
	for i, e := range encl {
		name := fmt.Sprintf("rank%d", i)
		m := coll.Member{Loc: e.Loc}
		if e.Kitten != nil {
			s, heap, err := node.KittenProcess(e.Kitten, name, collBufBytes+scratchCap)
			if err != nil {
				return cell, err
			}
			m.Sess, m.Buf = s, heap.Base
		} else {
			s, p := node.GuestProcess(e.VM, name, 0)
			region, err := xemem.AllocLinux(e.VM.Guest, p, name+"-buf", collBufBytes+scratchCap, true)
			if err != nil {
				return cell, err
			}
			m.Sess, m.Buf = s, region.Base
		}
		m.Scratch = m.Buf + pagetable.VA(collBufBytes)
		data := make([]byte, collBufBytes)
		for j := range data {
			data[j] = byte((i + 1) * (j + 7))
		}
		if _, err := m.Sess.Write(m.Buf, data); err != nil {
			return cell, err
		}
		members = append(members, m)
	}
	comm, err := coll.New(members, collBufBytes, coll.Opts{
		ChunkBytes: collChunk, Levels: levels, Mode: mode})
	if err != nil {
		return cell, err
	}

	// Per rank × iteration latencies; the iteration's cost is the slowest
	// rank's (collectives complete when the last rank is done). Errors
	// are kept per rank so one failure cannot shadow another's.
	nr := len(members)
	rankErr := make([]error, nr)
	bcastRank := make([]int64, collIters*nr)
	arRank := make([]int64, collIters*nr)
	for r := range members {
		r := r
		node.Spawn(fmt.Sprintf("rank%d", r), func(a *sim.Actor) {
			for it := 0; it < collIters; it++ {
				if err := comm.Barrier(a, r); err != nil {
					rankErr[r] = err
					return
				}
				t0 := a.Now()
				if err := comm.Bcast(a, r, 0, bytes); err != nil {
					rankErr[r] = err
					return
				}
				bcastRank[it*nr+r] = int64(a.Now() - t0)
				if err := comm.Barrier(a, r); err != nil {
					rankErr[r] = err
					return
				}
				t0 = a.Now()
				if err := comm.Allreduce(a, r, bytes); err != nil {
					rankErr[r] = err
					return
				}
				arRank[it*nr+r] = int64(a.Now() - t0)
			}
			rankErr[r] = comm.Close(a, r)
		})
	}
	if err := node.Run(); err != nil {
		return cell, err
	}
	for r, err := range rankErr {
		if err != nil {
			return cell, fmt.Errorf("rank %d: %w", r, err)
		}
	}

	bcastNs := make([]int64, collIters)
	arNs := make([]int64, collIters)
	for it := 0; it < collIters; it++ {
		for r := 0; r < nr; r++ {
			if v := bcastRank[it*nr+r]; v > bcastNs[it] {
				bcastNs[it] = v
			}
			if v := arRank[it*nr+r]; v > arNs[it] {
				arNs[it] = v
			}
		}
	}

	cell.ColdBcastNs = bcastNs[0]
	var bSum, aSum int64
	for it := 1; it < collIters; it++ {
		bSum += bcastNs[it]
		aSum += arNs[it]
	}
	cell.BcastNs = bSum / int64(collIters-1)
	cell.AllreduceNs = aSum / int64(collIters-1)

	for _, m := range members {
		s := m.Sess.RegCacheStats()
		cell.RegHits += s.Hits
		cell.RegMisses += s.Misses
		cell.RegInvalidations += s.Invalidations
	}
	for l, lv := range levels {
		st := CollLevelStat{Level: fmt.Sprintf("L%d-%s", l, lv)}
		for _, kind := range []string{"coll-copy", "coll-cico-in", "coll-cico-out", "coll-reduce", "coll-sync"} {
			op := tr.Op(fmt.Sprintf("%s:L%d-%s", kind, l, lv))
			st.Ops += op.Count
			st.Ns += int64(op.Time)
		}
		cell.Levels = append(cell.Levels, st)
	}
	cell.Digest = tr.Digest().SHA256
	return cell, nil
}

// String renders the sweep for the terminal.
func (r *CollSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Collective sweep: %d ranks, %d iterations from cold, seed %d\n", r.Ranks, r.Iters, r.Seed)
	fmt.Fprintf(&b, "%-6s %-8s %-7s %-10s %12s %12s %12s %6s %6s\n",
		"depth", "mix", "bytes", "mode", "cold bcast", "warm bcast", "allreduce", "hits", "miss")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-6d %-8s %-7d %-10s %10.1fµs %10.1fµs %10.1fµs %6d %6d\n",
			c.Depth, c.Mix, c.Bytes, c.Mode,
			float64(c.ColdBcastNs)/1e3, float64(c.BcastNs)/1e3, float64(c.AllreduceNs)/1e3,
			c.RegHits, c.RegMisses)
	}
	x := r.Crossover
	fmt.Fprintf(&b, "switchover (uniform, depth 3): %dB cico %.1fµs vs zc %.1fµs (cico wins: %v); %dB zc %.1fµs vs cico %.1fµs (zc wins: %v)\n",
		r.Sizes[0], float64(x.SmallCICONs)/1e3, float64(x.SmallZCNs)/1e3, x.CICOWinsSmall,
		r.Sizes[len(r.Sizes)-1], float64(x.LargeZCNs)/1e3, float64(x.LargeCICONs)/1e3, x.ZCWinsLarge)
	return b.String()
}
