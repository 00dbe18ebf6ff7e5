package rbtree

import (
	"fmt"
	"math/rand"
	"testing"
)

// insertDescent is Insert as it was before the spine cache and the free
// list: every insert descends from the root, whatever its key, into a
// freshly allocated node. It is kept as the oracle for the shortcut,
// which must report exactly the OpStats and errors this descent does and
// leave the same intervals behind. A map driven only by insertDescent
// and deleteDescent never knows its spine or its finger, so Validate
// skips both cache checks on it.
func (m *Map) insertDescent(start, count, val uint64) (OpStats, error) {
	var st OpStats
	if count == 0 {
		return st, fmt.Errorf("rbtree: zero-length interval")
	}
	z := &node{start: start, count: count, val: val, c: red, l: m.nilNode, r: m.nilNode}
	y := m.nilNode
	x := m.root
	for x != m.nilNode {
		st.Visits++
		y = x
		if start < x.end() && x.start < start+count {
			return st, fmt.Errorf("%w: [%#x,+%d) vs [%#x,+%d)", ErrOverlap, start, count, x.start, x.count)
		}
		if start < x.start {
			x = x.l
		} else {
			x = x.r
		}
	}
	z.p = y
	switch {
	case y == m.nilNode:
		m.root = z
	case start < y.start:
		y.l = z
	default:
		y.r = z
	}
	m.size++
	m.insertFixup(z, &st)
	return st, nil
}

// deleteDescent is Delete as it was before the release finger: every
// delete descends from the root, and the deleted node is dropped rather
// than kept for reuse. It is the oracle for the finger, which must report
// exactly the OpStats and errors this descent does. The fixup is shared:
// with no finger set, its depth bookkeeping never fires.
func (m *Map) deleteDescent(start uint64) (OpStats, error) {
	var st OpStats
	z := m.root
	for z != m.nilNode && z.start != start {
		st.Visits++
		if start < z.start {
			z = z.l
		} else {
			z = z.r
		}
	}
	if z == m.nilNode {
		return st, fmt.Errorf("rbtree: no interval starting at %#x", start)
	}
	m.size--
	y := z
	yOrig := y.c
	var x *node
	switch {
	case z.l == m.nilNode:
		x = z.r
		m.transplant(z, z.r)
	case z.r == m.nilNode:
		x = z.l
		m.transplant(z, z.l)
	default:
		y = m.minimum(z.r, &st)
		yOrig = y.c
		x = y.r
		if y.p == z {
			x.p = y
		} else {
			m.transplant(y, y.r)
			y.r = z.r
			y.r.p = y
		}
		m.transplant(z, y)
		y.l = z.l
		y.l.p = y
		y.c = z.c
	}
	if yOrig == black {
		m.deleteFixup(x, false, &st)
	}
	return st, nil
}

type interval struct{ start, count, val uint64 }

func contents(m *Map) []interval {
	var out []interval
	m.InOrder(func(start, count, val uint64) bool {
		out = append(out, interval{start, count, val})
		return true
	})
	return out
}

// lockstep applies each operation to the map under test and to the
// descent-only reference, and fails unless both report the same OpStats
// and error, hold the same intervals, and pass Validate (which checks
// the cached spine, maximum and finger of the map under test). It counts
// the deletes that found their key at the finger.
type lockstep struct {
	t         *testing.T
	got, want *Map
	seed, op  int // named in failures
	hits      int // deletes of the finger's key
}

func (ls *lockstep) insert(start, count uint64) {
	ls.t.Helper()
	gst, gerr := ls.got.Insert(start, count, start^0x5a5a)
	wst, werr := ls.want.insertDescent(start, count, start^0x5a5a)
	ls.same(func() string { return fmt.Sprintf("Insert(%#x,+%d)", start, count) }, gst, wst, gerr, werr)
}

func (ls *lockstep) delete(start uint64) {
	ls.t.Helper()
	if f := ls.got.finger; f != nil && f.start == start {
		ls.hits++
	}
	gst, gerr := ls.got.Delete(start)
	wst, werr := ls.want.deleteDescent(start)
	ls.same(func() string { return fmt.Sprintf("Delete(%#x)", start) }, gst, wst, gerr, werr)
}

func (ls *lockstep) same(call func() string, gst, wst OpStats, gerr, werr error) {
	ls.t.Helper()
	ls.op++
	what := func() string { return fmt.Sprintf("seed %d op %d %s", ls.seed, ls.op, call()) }
	if gst != wst || fmt.Sprint(gerr) != fmt.Sprint(werr) {
		ls.t.Fatalf("%s = (%+v, %v), reference descent (%+v, %v)", what(), gst, gerr, wst, werr)
	}
	if err := ls.got.Validate(); err != nil {
		ls.t.Fatalf("%s: %v", what(), err)
	}
	if err := ls.want.Validate(); err != nil {
		ls.t.Fatalf("%s: reference: %v", what(), err)
	}
	g, w := contents(ls.got), contents(ls.want)
	if len(g) != len(w) {
		ls.t.Fatalf("%s: %d intervals, reference %d", what(), len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			ls.t.Fatalf("%s: interval %d = %+v, reference %+v", what(), i, g[i], w[i])
		}
	}
}

// maxEnd reports the end of the highest interval, or 0 in an empty map.
func maxEnd(m *Map) uint64 {
	x := m.root
	if x == m.nilNode {
		return 0
	}
	for x.r != m.nilNode {
		x = x.r
	}
	return x.end()
}

// TestSpineCacheMatchesDescent runs seeded mixes of inserts at or past
// the maximum (the shortcut), random inserts (overlaps included),
// inserts that overlap the maximum, and deletes of live, ascending and
// absent keys, in lockstep with the descent-only reference insert and
// delete. A second phase per seed imports and releases runs the way
// Palacios does: ascending per-page inserts, then ascending deletes.
func TestSpineCacheMatchesDescent(t *testing.T) {
	hits := 0
	for seed := 1; seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		ls := &lockstep{t: t, got: New(), want: New(), seed: seed}
		for i := 0; i < 1000; i++ {
			live := contents(ls.want)
			top := maxEnd(ls.want)
			count := uint64(1 + rng.Intn(4))
			switch r := rng.Intn(20); {
			case r < 8: // at or just past the maximum
				ls.insert(top+uint64(rng.Intn(3)), count)
			case r < 11: // anywhere below a little past the maximum
				ls.insert(uint64(rng.Int63n(int64(top+8))), count)
			case r < 12: // overlapping the maximum
				ls.insert(top-min(top, uint64(1+rng.Intn(2))), count)
			case r < 19 && len(live) > 0: // a live interval, often the lowest
				k := rng.Intn(len(live))
				if rng.Intn(2) == 0 {
					k = 0
				}
				ls.delete(live[k].start)
			default: // absent
				ls.delete(top + 1)
			}
		}
		for cycle := 0; cycle < 3; cycle++ {
			base := maxEnd(ls.want) + uint64(rng.Intn(3))
			n := uint64(50 + rng.Intn(200))
			for p := uint64(0); p < n; p++ {
				ls.insert(base+p, 1)
			}
			for p := uint64(0); p < n; p++ {
				ls.delete(base + p)
			}
		}
		hits += ls.hits
	}
	if hits == 0 {
		t.Fatal("no delete found its key at the finger")
	}
}

// TestReleaseFingerMatchesDescent drives the finger in lockstep with the
// descent-only reference. Per seed, a mix biased to deleting the
// finger's key is interleaved with inserts anywhere, deletes of other
// live keys and of absent keys; then Palacios-shaped cycles import a
// run, release part of it, insert stray intervals elsewhere (each drops
// the finger), and resume the release, sometimes out of order.
func TestReleaseFingerMatchesDescent(t *testing.T) {
	hits, ops := 0, 0
	for seed := 1; seed <= 15; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		ls := &lockstep{t: t, got: New(), want: New(), seed: seed}
		for i := 0; i < 200; i++ {
			ls.insert(uint64(rng.Intn(2000)), uint64(1+rng.Intn(3)))
		}
		for i := 0; i < 800; i++ {
			live := contents(ls.want)
			switch r := rng.Intn(20); {
			case r < 10 && ls.got.finger != nil: // the finger's key
				ls.delete(ls.got.finger.start)
			case r < 14: // anywhere, overlaps included
				ls.insert(uint64(rng.Intn(2000)), uint64(1+rng.Intn(3)))
			case r < 18 && len(live) > 0: // another live key
				ls.delete(live[rng.Intn(len(live))].start)
			default: // absent: between or past the intervals
				ls.delete(maxEnd(ls.want) + uint64(rng.Intn(3)))
			}
		}
		for cycle := 0; cycle < 4; cycle++ {
			base := maxEnd(ls.want) + uint64(rng.Intn(3))
			n := uint64(32 + rng.Intn(160))
			for p := uint64(0); p < n; p++ {
				ls.insert(base+p, 1)
			}
			half := n / 2
			for p := uint64(0); p < half; p++ {
				ls.delete(base + p)
			}
			for i := 0; i < 1+rng.Intn(3); i++ {
				if rng.Intn(2) == 0 {
					ls.insert(base+n+uint64(rng.Intn(16)), 1) // past the run
				} else {
					ls.insert(base+uint64(rng.Intn(int(half)+1)), 1) // into the released part
				}
			}
			if rng.Intn(3) == 0 {
				ls.delete(base + half + 1) // out of order: skips a page
			}
			for p := half; p < n; p++ {
				ls.delete(base + p)
			}
			live := contents(ls.want)
			for _, iv := range live {
				if iv.start >= base {
					ls.delete(iv.start)
				}
			}
		}
		hits += ls.hits
		ops += ls.op
	}
	t.Logf("%d of %d operations deleted the finger's key", hits, ops)
	if hits < ops/10 {
		t.Fatalf("%d of %d operations deleted the finger's key; the shortcut barely ran", hits, ops)
	}
}
