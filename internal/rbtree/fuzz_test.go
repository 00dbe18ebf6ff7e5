package rbtree

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"testing"
)

// fuzz op stream: records of 10 bytes — op selector, 8-byte key,
// count selector. Keys are masked to 40 bits and counts kept small so
// start+count can never wrap uint64 (wrapping is API misuse, not a
// tree invariant). Op 3 inserts key%4 pages past the current maximum's
// end (at key in an empty map); op 4 deletes the in-order successor of
// the last delete's key, as long as the last operation was a delete that
// found its key and left a successor (key itself otherwise). A count
// selector with its high bit set turns an insert into an insert run and
// a delete into a release run of 1–64 pages from the op's key; corpus
// entries written before runs existed all have it clear.
const (
	fuzzKeyMask = 1<<40 - 1
	fuzzRec     = 10
)

type modelEntry struct{ count, val uint64 }

func modelOverlaps(model map[uint64]modelEntry, start, count uint64) bool {
	for s, e := range model {
		if start < s+e.count && s < start+count {
			return true
		}
	}
	return false
}

func modelLookup(model map[uint64]modelEntry, key uint64) (val, runStart, runCount uint64, ok bool) {
	for s, e := range model {
		if key >= s && key < s+e.count {
			return e.val + (key - s), s, e.count, true
		}
	}
	return 0, 0, 0, false
}

// FuzzOps drives the interval map with an arbitrary insert/delete/lookup
// stream, mirrors it in a flat map and in a reference map that takes
// every run as the per-page Insert or Delete calls it replaces, and
// checks after every operation that the red-black and interval
// invariants hold, that every insert, delete and run reports the
// reference's OpStats and leaves the same tree, that every node slot is
// in the tree or on the free list, and that the tree agrees with the
// model — including the balanced-height bound the simulator's cost model
// depends on (§5.4 charges per visit).
func FuzzOps(f *testing.F) {
	f.Add([]byte("\x00AAAAAAAA\x03\x00BBBBBBBB\x01\x02AAAAAAAA\x00\x01AAAAAAAA\x00"))
	f.Add([]byte{})
	seq := make([]byte, 0, 64*fuzzRec)
	for i := byte(0); i < 64; i++ {
		rec := [fuzzRec]byte{i % 3, i, i ^ 0x55, 0, 0, 0, 0, 0, 0, i % 7}
		seq = append(seq, rec[:]...)
	}
	f.Add(seq)
	// An import and its release: ascending runs past the maximum, then
	// ascending deletes of every page, then a second import onto the
	// freed nodes.
	seq = nil
	for _, op := range []byte{3, 1, 3} {
		for i := uint64(0); i < 40; i++ {
			var rec [fuzzRec]byte
			rec[0] = op
			if op == 1 {
				binary.LittleEndian.PutUint64(rec[1:9], i)
			}
			seq = append(seq, rec[:]...)
		}
	}
	f.Add(seq)
	// An import of 40 pages, a release of its first half through the
	// finger, an insert elsewhere (which drops the finger), and the rest
	// of the release: one descent, then the finger again.
	seq = nil
	rec := func(op byte, key uint64) {
		var r [fuzzRec]byte
		r[0] = op
		binary.LittleEndian.PutUint64(r[1:9], key)
		seq = append(seq, r[:]...)
	}
	for i := 0; i < 40; i++ {
		rec(3, 0)
	}
	rec(1, 0)
	for i := 1; i < 20; i++ {
		rec(4, 0)
	}
	rec(0, 1000)
	rec(1, 20)
	for i := 21; i < 40; i++ {
		rec(4, 0)
	}
	f.Add(seq)
	// The same shapes as runs: an import of 40 pages past the maximum, a
	// release run of its first half, an insert elsewhere, a release run
	// from the successor that overruns the import and stops, a run into
	// the gap below the maximum, and a run starting inside a 4-page
	// maximum, which overlaps it.
	seq = nil
	runRec := func(op byte, key uint64, pages byte) {
		var r [fuzzRec]byte
		r[0] = op
		binary.LittleEndian.PutUint64(r[1:9], key)
		r[9] = 0x80 | (pages - 1)
		seq = append(seq, r[:]...)
	}
	runRec(3, 0, 40)
	runRec(1, 0, 20)
	rec(0, 1000)
	rec(1, 20)
	runRec(4, 0, 30)
	runRec(0, 5, 8)
	rec(0, 2000)
	seq[len(seq)-1] = 3 // four pages
	runRec(0, 2002, 4)
	f.Add(seq)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, ref := New(), New()
		model := make(map[uint64]modelEntry)
		var next uint64 // op 4's key
		haveNext := false
		for len(data) >= fuzzRec {
			op := data[0] % 5
			key := binary.LittleEndian.Uint64(data[1:9]) & fuzzKeyMask
			count := uint64(data[9]%8) + 1
			run, pages := data[9]&0x80 != 0, uint64(data[9]&63)+1
			data = data[fuzzRec:]

			var st, rst OpStats
			var err, rerr error
			switch op {
			case 0, 3: // insert; op 3 just past the maximum
				haveNext = false
				if op == 3 && len(model) > 0 {
					key = maxEnd(ref) + key%4
				}
				val := key ^ 0xdeadbeef
				if run {
					st, err = m.InsertRun(key, pages, val)
					rst, rerr = insertPages(ref, key, pages, val)
					count = 1
				} else {
					st, err = m.Insert(key, count, val)
					rst, rerr = ref.Insert(key, count, val)
					pages = 1
				}
				// The model takes the run's pages, or the one interval,
				// up to the first overlap.
				wantErr := false
				for i := uint64(0); i < pages && !wantErr; i++ {
					wantErr = modelOverlaps(model, key+i, count)
					if !wantErr {
						model[key+i] = modelEntry{count: count, val: val + i}
					}
				}
				if (err != nil) != wantErr {
					t.Fatalf("insert(%#x, run %v, %d pages) err=%v, model overlap=%v", key, run, pages, err, wantErr)
				}
			case 1, 4: // delete; op 4 the last delete's successor
				if op == 4 && haveNext {
					key = next
				}
				if run {
					st, err = m.DeleteRun(key, pages)
					rst, rerr = deletePages(ref, key, pages)
				} else {
					st, err = m.Delete(key)
					rst, rerr = ref.Delete(key)
					pages = 1
				}
				wantErr := false
				for i := uint64(0); i < pages && !wantErr; i++ {
					_, ok := model[key+i]
					wantErr = !ok
					delete(model, key+i)
				}
				if (err != nil) != wantErr {
					t.Fatalf("delete(%#x, run %v, %d pages) err=%v, model miss=%v", key, run, pages, err, wantErr)
				}
				haveNext = false
				if err == nil {
					for s := range model {
						if s >= key+pages && (!haveNext || s < next) {
							next, haveNext = s, true
						}
					}
				}
			case 2: // lookup
				val, runStart, runCount, _, ok := m.Lookup(key)
				wval, wstart, wcount, wok := modelLookup(model, key)
				if ok != wok || val != wval || runStart != wstart || runCount != wcount {
					t.Fatalf("Lookup(%#x) = (%#x,%#x,%d,%v), model (%#x,%#x,%d,%v)",
						key, val, runStart, runCount, ok, wval, wstart, wcount, wok)
				}
			}
			if st != rst || fmt.Sprint(err) != fmt.Sprint(rerr) {
				t.Fatalf("op %d on %#x (run %v, %d pages) = (%+v, %v), per-page reference (%+v, %v)",
					op, key, run, pages, st, err, rst, rerr)
			}
			if diff := sameTree(m, ref); diff != "" {
				t.Fatalf("op %d on %#x (run %v, %d pages): %s", op, key, run, pages, diff)
			}

			if err := m.Validate(); err != nil {
				t.Fatalf("invariant violated after op %d on %#x: %v", op, key, err)
			}
			if err := slots(m); err != nil {
				t.Fatalf("op %d on %#x: %v", op, key, err)
			}
			if m.Size() != len(model) {
				t.Fatalf("size %d, model %d", m.Size(), len(model))
			}
			// Red-black balance: height ≤ 2·log2(n+1).
			if n := m.Size(); n > 0 {
				if maxH := 2 * bits.Len(uint(n+1)); m.Height() > maxH {
					t.Fatalf("height %d exceeds bound %d for %d nodes", m.Height(), maxH, n)
				}
			}
		}

		// Final sweep: in-order traversal enumerates exactly the model,
		// in ascending start order.
		starts := make([]uint64, 0, len(model))
		for s := range model {
			starts = append(starts, s)
		}
		sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
		i := 0
		m.InOrder(func(start, count, val uint64) bool {
			if i >= len(starts) {
				t.Fatalf("InOrder yielded extra interval %#x", start)
			}
			want := model[starts[i]]
			if start != starts[i] || count != want.count || val != want.val {
				t.Fatalf("InOrder[%d] = (%#x,%d,%#x), model (%#x,%d,%#x)",
					i, start, count, val, starts[i], want.count, want.val)
			}
			i++
			return true
		})
		if i != len(starts) {
			t.Fatalf("InOrder yielded %d intervals, model has %d", i, len(starts))
		}
	})
}
