package rbtree

import (
	"testing"
	"testing/quick"

	"xemem/internal/sim"
)

func TestInsertLookup(t *testing.T) {
	m := New()
	if _, err := m.Insert(100, 50, 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert(200, 10, 2000); err != nil {
		t.Fatal(err)
	}
	v, runStart, runCount, _, ok := m.Lookup(120)
	if !ok || v != 1020 || runStart != 100 || runCount != 50 {
		t.Fatalf("lookup = %d run=[%d,+%d] ok=%v", v, runStart, runCount, ok)
	}
	if _, _, _, _, ok := m.Lookup(99); ok {
		t.Fatal("unmapped frame resolved")
	}
	if _, _, _, _, ok := m.Lookup(150); ok {
		t.Fatal("gap frame resolved")
	}
	if m.Size() != 2 {
		t.Fatalf("size = %d", m.Size())
	}
}

func TestInsertOverlapRejected(t *testing.T) {
	m := New()
	if _, err := m.Insert(100, 50, 0); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ s, n uint64 }{{100, 50}, {99, 2}, {149, 10}, {120, 1}, {50, 51}} {
		if _, err := m.Insert(c.s, c.n, 0); err == nil {
			t.Fatalf("overlap [%d,+%d) accepted", c.s, c.n)
		}
	}
	// Adjacent is fine.
	if _, err := m.Insert(150, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert(99, 1, 0); err != nil {
		t.Fatal(err)
	}
}

func TestZeroLengthRejected(t *testing.T) {
	m := New()
	if _, err := m.Insert(1, 0, 0); err == nil {
		t.Fatal("zero-length interval accepted")
	}
}

func TestDelete(t *testing.T) {
	m := New()
	for i := uint64(0); i < 100; i++ {
		if _, err := m.Insert(i*10, 5, i*1000); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Delete(550); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, ok := m.Lookup(552); ok {
		t.Fatal("deleted interval still resolves")
	}
	if m.Size() != 99 {
		t.Fatalf("size = %d", m.Size())
	}
	if _, err := m.Delete(550); err == nil {
		t.Fatal("double delete accepted")
	}
	if _, err := m.Delete(551); err == nil {
		t.Fatal("delete by non-start key accepted")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInOrderSorted(t *testing.T) {
	m := New()
	rng := sim.NewRNG(5)
	for i := 0; i < 500; i++ {
		m.Insert(rng.Uint64n(1<<40)*100, 50, 0)
	}
	var prev uint64
	first := true
	m.InOrder(func(start, _, _ uint64) bool {
		if !first && start <= prev {
			t.Fatalf("out of order: %d after %d", start, prev)
		}
		prev, first = start, false
		return true
	})
}

func TestRotationCountsReported(t *testing.T) {
	m := New()
	var total OpStats
	// Ascending inserts force steady rebalancing.
	for i := uint64(0); i < 1000; i++ {
		st, err := m.Insert(i, 1, i)
		if err != nil {
			t.Fatal(err)
		}
		total.Add(st)
	}
	if total.Rotations == 0 {
		t.Fatal("ascending inserts should rotate")
	}
	if total.Visits < 1000 {
		t.Fatalf("visits = %d, implausibly low", total.Visits)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHeightLogarithmic(t *testing.T) {
	m := New()
	n := 1 << 14
	for i := 0; i < n; i++ {
		m.Insert(uint64(i), 1, 0)
	}
	// RB trees guarantee height <= 2*log2(n+1).
	if h := m.Height(); h > 2*15 {
		t.Fatalf("height %d exceeds RB bound for %d nodes", h, n)
	}
}

func TestVisitCostGrowsWithSize(t *testing.T) {
	// The §5.4 effect: insert cost grows as the tree accumulates one node
	// per attached page.
	m := New()
	early, _ := m.Insert(0, 1, 0)
	for i := uint64(1); i < 1<<14; i++ {
		m.Insert(i, 1, 0)
	}
	late, err := m.Insert(1<<20, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if late.Visits <= early.Visits {
		t.Fatalf("late insert visits %d <= early %d", late.Visits, early.Visits)
	}
}

// Property: any sequence of inserts and deletes maintains every red-black
// invariant and exact membership.
func TestRBInvariantsProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	err := quick.Check(func(ops []uint16) bool {
		m := New()
		live := map[uint64]uint64{} // start → val
		for _, op := range ops {
			start := uint64(op%997) * 3 // spacing avoids accidental overlap
			if op%2 == 0 {
				if _, taken := live[start]; taken {
					continue
				}
				if _, err := m.Insert(start, 2, start*7); err != nil {
					return false
				}
				live[start] = start * 7
			} else {
				_, err := m.Delete(start)
				_, existed := live[start]
				if existed != (err == nil) {
					return false
				}
				delete(live, start)
			}
		}
		if m.Size() != len(live) {
			return false
		}
		if m.Validate() != nil {
			return false
		}
		for s, v := range live {
			got, _, _, _, ok := m.Lookup(s + 1)
			if !ok || got != v+1 {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// Property: lookups translate with correct offset anywhere in an interval.
func TestLookupOffsetProperty(t *testing.T) {
	err := quick.Check(func(startRaw, countRaw uint32, probe uint32) bool {
		m := New()
		start := uint64(startRaw)
		count := uint64(countRaw%10000) + 1
		val := uint64(1 << 40)
		if _, err := m.Insert(start, count, val); err != nil {
			return false
		}
		off := uint64(probe) % count
		got, _, _, _, ok := m.Lookup(start + off)
		return ok && got == val+off
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeletedNodesReused: once a map has deleted n nodes, n further
// inserts take them from its free list and allocate nothing.
func TestDeletedNodesReused(t *testing.T) {
	const n = 4096
	m := New()
	cycle := func() {
		for i := uint64(0); i < n; i++ {
			if _, err := m.Insert(i, 1, i); err != nil {
				t.Fatal(err)
			}
		}
		for i := uint64(0); i < n; i++ {
			if _, err := m.Delete(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(3, cycle); allocs != 0 {
		t.Fatalf("a warm cycle of %d inserts and deletes allocated %v times", n, allocs)
	}
}

// BenchmarkInsertAscending is Palacios importing and releasing a 1 GB
// window one page at a time: 262,144 inserts, each a new maximum, then
// deletes in ascending order, on a warm map. It reports ns per insert
// (the whole cycle's time divided by its inserts) and allocs per cycle.
func BenchmarkInsertAscending(b *testing.B) {
	const pages = 1 << 18
	m := New()
	cycle := func() {
		for i := uint64(0); i < pages; i++ {
			if _, err := m.Insert(i, 1, i); err != nil {
				b.Fatal(err)
			}
		}
		for i := uint64(0); i < pages; i++ {
			if _, err := m.Delete(i); err != nil {
				b.Fatal(err)
			}
		}
	}
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pages), "ns/insert")
}

// TestColdImportAllocs: a fresh map importing a 1 GB window one page at
// a time (262,144 ascending inserts) takes its nodes from chunks that
// double up to maxChunk, so it allocates a few dozen times — 30 chunks
// plus New's map and sentinel — rather than once per page.
func TestColdImportAllocs(t *testing.T) {
	const pages = 1 << 18
	allocs := testing.AllocsPerRun(1, func() {
		m := New()
		for i := uint64(0); i < pages; i++ {
			if _, err := m.Insert(i, 1, i); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 32 {
		t.Fatalf("a cold import of %d pages allocated %v times, want at most 32", pages, allocs)
	}
}

// BenchmarkReleaseAscending is Palacios releasing a 1 GB window one page
// at a time: 262,144 deletes in ascending order from a map holding those
// pages, each after the first finding its key at the finger. The map is
// refilled off the clock between cycles. It reports ns per delete.
func BenchmarkReleaseAscending(b *testing.B) {
	const pages = 1 << 18
	m := New()
	fill := func() {
		for i := uint64(0); i < pages; i++ {
			if _, err := m.Insert(i, 1, i); err != nil {
				b.Fatal(err)
			}
		}
	}
	release := func() {
		for i := uint64(0); i < pages; i++ {
			if _, err := m.Delete(i); err != nil {
				b.Fatal(err)
			}
		}
	}
	fill()
	release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fill()
		b.StartTimer()
		release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pages), "ns/delete")
}
