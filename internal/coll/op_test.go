package coll

import (
	"testing"

	"xemem/internal/pagetable"
)

// TestRecycledOpStillChecksCalls: a retired operation's control state
// comes back for a later sequence number with every counter zero and no
// window memoized, and a rank whose call differs from the operation now
// in flight is still reported.
func TestRecycledOpStillChecksCalls(t *testing.T) {
	c := &Communicator{
		members: make([]Member, 3),
		groups:  []*group{{members: []int{0, 1, 2}}},
		chunk:   defaultChunk,
		ops:     make(map[uint64]*opState),
		seq:     make([]uint64, 3),
	}
	first, seq, err := c.opFor(0, opBcast, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	first.have[1], first.red[2], first.slotIn[0], first.slotAck[0] = 1, 1, 1, 2
	first.redIn[0][1], first.redAck[0][0], first.arrive[0], first.release[0] = 1, 1, 2, 1
	first.wins[2] = map[int]pagetable.VA{0: 0x1000}
	for r := range c.members {
		if r > 0 {
			if op, s, err := c.opFor(r, opBcast, 0, 4096); err != nil || op != first || s != seq {
				t.Fatalf("rank %d joined (%p, %d, %v), want (%p, %d, nil)", r, op, s, err, first, seq)
			}
		}
		c.finish(seq, first)
	}

	op, _, err := c.opFor(0, opAllreduce, 0, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if op != first {
		t.Fatal("the retired control state was not reused")
	}
	if op.kind != opAllreduce || op.bytes != 64<<10 || !op.zc || op.nchunks != 1 || op.done != 0 {
		t.Fatalf("recycled op = %s(bytes=%d) zc=%v nchunks=%d done=%d, want allreduce(bytes=65536) zc=true nchunks=1 done=0",
			op.kind, op.bytes, op.zc, op.nchunks, op.done)
	}
	for _, s := range [][]uint64{op.have, op.red, op.slotIn, op.slotAck, op.redIn[0], op.redAck[0], op.arrive, op.release} {
		for _, v := range s {
			if v != 0 {
				t.Fatalf("recycled op keeps a counter: %v", s)
			}
		}
	}
	if len(op.wins[2]) != 0 {
		t.Fatalf("recycled op keeps memoized windows %v", op.wins[2])
	}

	_, _, err = c.opFor(1, opBcast, 0, 4096)
	want := "coll: rank 1 called bcast(root=0, bytes=4096) at sequence 1 where the collective in flight is allreduce(root=0, bytes=65536)"
	if err == nil || err.Error() != want {
		t.Fatalf("mismatched call after a recycle: err = %v, want %q", err, want)
	}
}
