package rbtree

import (
	"encoding/binary"
	"math/bits"
	"sort"
	"testing"
)

// fuzz op stream: records of 10 bytes — op selector, 8-byte key,
// count selector. Keys are masked to 40 bits and counts kept small so
// start+count can never wrap uint64 (wrapping is API misuse, not a
// tree invariant). Op 3 inserts key%4 pages past the current maximum's
// end (at key in an empty map), so most streams take the spine
// shortcut.
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
// stream, mirrors it in a flat map and in a map whose inserts all
// descend (insertDescent), and checks after every operation that the
// red-black and interval invariants hold (the cached spine included),
// that every insert and delete reports the reference's OpStats, and
// that the tree agrees with the model — including the balanced-height
// bound the simulator's cost model depends on (§5.4 charges per visit).
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

	f.Fuzz(func(t *testing.T, data []byte) {
		m, ref := New(), New()
		model := make(map[uint64]modelEntry)
		for len(data) >= fuzzRec {
			op := data[0] % 4
			key := binary.LittleEndian.Uint64(data[1:9]) & fuzzKeyMask
			count := uint64(data[9]%8) + 1
			data = data[fuzzRec:]

			switch op {
			case 0, 3: // insert; op 3 just past the maximum
				if op == 3 && len(model) > 0 {
					key = maxEnd(ref) + key%4
				}
				val := key ^ 0xdeadbeef
				st, err := m.Insert(key, count, val)
				if wantErr := modelOverlaps(model, key, count); (err != nil) != wantErr {
					t.Fatalf("Insert(%#x,+%d) err=%v, model overlap=%v", key, count, err, wantErr)
				}
				if rst, _ := ref.insertDescent(key, count, val); st != rst {
					t.Fatalf("Insert(%#x,+%d) = %+v, reference descent %+v", key, count, st, rst)
				}
				if err == nil {
					model[key] = modelEntry{count: count, val: val}
				}
			case 1: // delete
				st, err := m.Delete(key)
				if _, ok := model[key]; (err == nil) != ok {
					t.Fatalf("Delete(%#x) err=%v, model has=%v", key, err, ok)
				}
				if rst, _ := ref.Delete(key); st != rst {
					t.Fatalf("Delete(%#x) = %+v, reference %+v", key, st, rst)
				}
				delete(model, key)
			case 2: // lookup
				val, runStart, runCount, _, ok := m.Lookup(key)
				wval, wstart, wcount, wok := modelLookup(model, key)
				if ok != wok || val != wval || runStart != wstart || runCount != wcount {
					t.Fatalf("Lookup(%#x) = (%#x,%#x,%d,%v), model (%#x,%#x,%d,%v)",
						key, val, runStart, runCount, ok, wval, wstart, wcount, wok)
				}
			}

			if err := m.Validate(); err != nil {
				t.Fatalf("invariant violated after op %d on %#x: %v", op, key, err)
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
