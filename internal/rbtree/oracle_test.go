package rbtree

import (
	"fmt"
	"math/rand"
	"testing"
)

type interval struct{ start, count, val uint64 }

func contents(m *Map) []interval {
	var out []interval
	m.InOrder(func(start, count, val uint64) bool {
		out = append(out, interval{start, count, val})
		return true
	})
	return out
}

// shapeNode is one node of a tree's preorder walk. The preorder of a
// binary search tree with distinct keys fixes its shape, so two trees
// with equal walks have the same nodes in the same places and colours.
type shapeNode struct {
	start, count, val uint64
	red               bool
}

// shape walks the links and reads each node through its fields, not
// through count() and red(), so a fault in those accessors still shows.
func shape(m *Map) []shapeNode {
	var out []shapeNode
	var walk func(x uint32)
	walk = func(x uint32) {
		if x == 0 {
			return
		}
		n := m.nodes[x]
		out = append(out, shapeNode{n.start, uint64(n.cc &^ redBit), n.val, n.cc&redBit != 0})
		walk(n.l)
		walk(n.r)
	}
	walk(m.root)
	return out
}

// slots checks the node slice's bookkeeping: the sentinel is a black
// leaf of no pages, every free slot is zeroed, and every slot past the
// sentinel is in the tree or on the free list, so the slice grows only
// past what the free list can supply.
func slots(m *Map) error {
	if s := m.nodes[0]; s.cc != 0 || s.l != 0 || s.r != 0 {
		return fmt.Errorf("sentinel %+v, want a black leaf of no pages", s)
	}
	free := 0
	for x := m.free; x != 0; x = m.nodes[x].r {
		if n := m.nodes[x]; n.start != 0 || n.val != 0 || n.cc != 0 || n.l != 0 || n.p != 0 {
			return fmt.Errorf("free slot %d not zeroed: %+v", x, n)
		}
		if free++; free >= len(m.nodes) {
			return fmt.Errorf("free list cycles")
		}
	}
	if len(m.nodes)-1 != m.size+free {
		return fmt.Errorf("%d slots past the sentinel, %d live and %d free", len(m.nodes)-1, m.size, free)
	}
	return nil
}

// sameTree reports the first difference between two trees' shapes,
// contents and colours, or "" when they agree.
func sameTree(got, want *Map) string {
	g, w := shape(got), shape(want)
	if len(g) != len(w) {
		return fmt.Sprintf("%d nodes, reference %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Sprintf("preorder node %d = %+v, reference %+v", i, g[i], w[i])
		}
	}
	return ""
}

// insertPages is InsertRun's reference: the per-page Insert calls it
// replaces, stopping at the first error, with their OpStats summed.
func insertPages(m *Map, start, n, val uint64) (OpStats, error) {
	var sum OpStats
	for i := uint64(0); i < n; i++ {
		st, err := m.Insert(start+i, 1, val+i)
		sum.Add(st)
		if err != nil {
			return sum, err
		}
	}
	return sum, nil
}

// deletePages is DeleteRun's reference: per-page Delete calls.
func deletePages(m *Map, start, n uint64) (OpStats, error) {
	var sum OpStats
	for i := uint64(0); i < n; i++ {
		st, err := m.Delete(start + i)
		sum.Add(st)
		if err != nil {
			return sum, err
		}
	}
	return sum, nil
}

// lockstep drives two maps with the same operations: got takes each page
// run through InsertRun or DeleteRun, want through the per-page Insert
// or Delete calls the run replaces. Single-interval operations go to
// both through Insert and Delete. After every operation both must report
// the same OpStats and error, hold the same tree (shape, contents and
// colours), and pass Validate, and got's node slice must account for
// every slot.
type lockstep struct {
	t         *testing.T
	got, want *Map
	seed, op  int // named in failures
	fast      int // insert runs that started at or past the maximum's end
}

func (ls *lockstep) insertRun(start, n uint64) {
	ls.t.Helper()
	if n > 0 && start >= maxEnd(ls.want) {
		ls.fast++
	}
	val := start ^ 0x5a5a
	gst, gerr := ls.got.InsertRun(start, n, val)
	wst, werr := insertPages(ls.want, start, n, val)
	ls.same(func() string { return fmt.Sprintf("InsertRun(%#x,%d)", start, n) }, gst, wst, gerr, werr)
}

func (ls *lockstep) deleteRun(start, n uint64) {
	ls.t.Helper()
	gst, gerr := ls.got.DeleteRun(start, n)
	wst, werr := deletePages(ls.want, start, n)
	ls.same(func() string { return fmt.Sprintf("DeleteRun(%#x,%d)", start, n) }, gst, wst, gerr, werr)
}

func (ls *lockstep) insert(start, count uint64) {
	ls.t.Helper()
	gst, gerr := ls.got.Insert(start, count, start^0x5a5a)
	wst, werr := ls.want.Insert(start, count, start^0x5a5a)
	ls.same(func() string { return fmt.Sprintf("Insert(%#x,+%d)", start, count) }, gst, wst, gerr, werr)
}

func (ls *lockstep) delete(start uint64) {
	ls.t.Helper()
	gst, gerr := ls.got.Delete(start)
	wst, werr := ls.want.Delete(start)
	ls.same(func() string { return fmt.Sprintf("Delete(%#x)", start) }, gst, wst, gerr, werr)
}

func (ls *lockstep) same(call func() string, gst, wst OpStats, gerr, werr error) {
	ls.t.Helper()
	ls.op++
	what := func() string { return fmt.Sprintf("seed %d op %d %s", ls.seed, ls.op, call()) }
	if gst != wst || fmt.Sprint(gerr) != fmt.Sprint(werr) {
		ls.t.Fatalf("%s = (%+v, %v), per-page reference (%+v, %v)", what(), gst, gerr, wst, werr)
	}
	if err := ls.got.Validate(); err != nil {
		ls.t.Fatalf("%s: %v", what(), err)
	}
	if err := slots(ls.got); err != nil {
		ls.t.Fatalf("%s: %v", what(), err)
	}
	if err := ls.want.Validate(); err != nil {
		ls.t.Fatalf("%s: reference: %v", what(), err)
	}
	if ls.got.Size() != ls.want.Size() {
		ls.t.Fatalf("%s: size %d, reference %d", what(), ls.got.Size(), ls.want.Size())
	}
	if diff := sameTree(ls.got, ls.want); diff != "" {
		ls.t.Fatalf("%s: %s", what(), diff)
	}
}

// maxEnd reports the end of the highest interval, or 0 in an empty map.
func maxEnd(m *Map) uint64 {
	x := m.root
	if x == 0 {
		return 0
	}
	for m.nodes[x].r != 0 {
		x = m.nodes[x].r
	}
	return m.nodes[x].end()
}

// TestInsertRunMatchesPerPage runs seeded mixes of insert runs at, just
// past, below and overlapping the maximum (in gaps too, and empty runs),
// single-interval inserts and deletes, and release runs, in lockstep
// with the per-page reference. A second phase per seed imports and
// releases runs the way Palacios does, onto the freed nodes. At least a
// third of the insert runs must take the maximum-insert loop.
func TestInsertRunMatchesPerPage(t *testing.T) {
	fast, runs := 0, 0
	for seed := 1; seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		ls := &lockstep{t: t, got: New(), want: New(), seed: seed}
		for i := 0; i < 400; i++ {
			live := contents(ls.want)
			top := maxEnd(ls.want)
			n := uint64(rng.Intn(24))
			switch r := rng.Intn(20); {
			case r < 7: // at or just past the maximum
				ls.insertRun(top+uint64(rng.Intn(3)), n)
				runs++
			case r < 10: // anywhere below a little past the maximum
				ls.insertRun(uint64(rng.Int63n(int64(top+8))), n)
				runs++
			case r < 11: // overlapping the maximum
				ls.insertRun(top-min(top, uint64(1+rng.Intn(2))), n)
				runs++
			case r < 13: // one interval anywhere
				ls.insert(uint64(rng.Int63n(int64(top+8))), uint64(1+rng.Intn(4)))
			case r < 17 && len(live) > 0: // a live interval, often the lowest
				k := rng.Intn(len(live))
				if rng.Intn(2) == 0 {
					k = 0
				}
				ls.delete(live[k].start)
			case r < 19 && len(live) > 0: // a release run from a live key
				ls.deleteRun(live[rng.Intn(len(live))].start, uint64(1+rng.Intn(8)))
			default: // absent
				ls.delete(top + 1)
			}
		}
		for cycle := 0; cycle < 3; cycle++ {
			base := maxEnd(ls.want) + uint64(rng.Intn(3))
			n := uint64(50 + rng.Intn(200))
			ls.insertRun(base, n)
			runs++
			ls.deleteRun(base, n)
		}
		fast += ls.fast
	}
	t.Logf("%d of %d insert runs took the maximum-insert loop", fast, runs)
	if fast < runs/3 {
		t.Fatalf("%d of %d insert runs took the maximum-insert loop", fast, runs)
	}
}

// TestDeleteRunMatchesPerPage drives release runs in lockstep with the
// per-page reference. Per seed, release runs from live keys, over gaps
// and from absent keys are interleaved with inserts anywhere and single
// deletes; then Palacios-shaped cycles import a run, release part of it,
// insert stray intervals past the run or into its released part, and
// resume the release, sometimes after releasing one page out of order
// (the resumed run then stops, with an error, at that page), before
// releasing what is left.
func TestDeleteRunMatchesPerPage(t *testing.T) {
	for seed := 1; seed <= 15; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		ls := &lockstep{t: t, got: New(), want: New(), seed: seed}
		for i := 0; i < 100; i++ {
			ls.insertRun(uint64(rng.Intn(2000)), uint64(1+rng.Intn(6)))
			ls.insert(uint64(rng.Intn(2000)), uint64(1+rng.Intn(3)))
		}
		for i := 0; i < 400; i++ {
			live := contents(ls.want)
			switch r := rng.Intn(20); {
			case r < 8 && len(live) > 0: // from a live key
				ls.deleteRun(live[rng.Intn(len(live))].start, uint64(1+rng.Intn(12)))
			case r < 12: // anywhere, overlaps included
				ls.insertRun(uint64(rng.Intn(2000)), uint64(1+rng.Intn(6)))
			case r < 14: // one interval anywhere
				ls.insert(uint64(rng.Intn(2000)), uint64(1+rng.Intn(3)))
			case r < 17 && len(live) > 0: // another live key
				ls.delete(live[rng.Intn(len(live))].start)
			default: // absent: between or past the intervals
				ls.deleteRun(maxEnd(ls.want)+uint64(rng.Intn(3)), uint64(rng.Intn(4)))
			}
		}
		for cycle := 0; cycle < 4; cycle++ {
			base := maxEnd(ls.want) + uint64(rng.Intn(3))
			n := uint64(32 + rng.Intn(160))
			ls.insertRun(base, n)
			half := n / 2
			ls.deleteRun(base, half)
			for i := 0; i < 1+rng.Intn(3); i++ {
				if rng.Intn(2) == 0 {
					ls.insertRun(base+n+uint64(rng.Intn(16)), uint64(1+rng.Intn(4))) // past the run
				} else {
					ls.insert(base+uint64(rng.Intn(int(half)+1)), 1) // into the released part
				}
			}
			if rng.Intn(3) == 0 {
				ls.deleteRun(base+half+1, 1) // out of order: the resumed run stops there
			}
			ls.deleteRun(base+half, n-half)
			for _, iv := range contents(ls.want) {
				if iv.start >= base {
					ls.deleteRun(iv.start, 1)
				}
			}
		}
	}
}
