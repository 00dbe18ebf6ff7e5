package coll

import (
	"fmt"

	"xemem/internal/pagetable"
	"xemem/internal/sim"
)

// opKind tags a collective operation.
type opKind int

const (
	opBcast opKind = iota
	opAllreduce
	opBarrier
)

func (k opKind) String() string {
	switch k {
	case opBcast:
		return "bcast"
	case opAllreduce:
		return "allreduce"
	default:
		return "barrier"
	}
}

// opState is the host-side control state of one in-flight collective,
// shared by every rank under the world's one-runnable-goroutine
// guarantee. Counters are per rank or per group; each is advanced by
// exactly one writer except the consumption tallies (slotAck, arrive),
// which readers increment as they pass.
type opState struct {
	kind    opKind
	root    int
	bytes   uint64
	zc      bool
	nchunks int

	have []uint64 // per rank: payload (bcast) / result (allreduce) chunks present in its buffer
	red  []uint64 // per rank: chunks whose subtree reduction is committed in its buffer

	slotIn  []uint64 // per group: chunks written to the broadcast slot
	slotAck []uint64 // per group: total broadcast-slot consumptions
	redIn   [][]uint64
	redAck  [][]uint64 // per group × reduce slot: chunks pushed / consumed

	arrive  []uint64 // per group: fence arrivals (drain barrier / Barrier)
	release []uint64 // per group: fence release flag

	// wins memoizes the zero-copy window a rank resolved to each source
	// this operation: the registration-cache probe is a syscall, so a
	// pipelined collective validates each peer window once per op, not
	// once per chunk.
	wins []map[int]pagetable.VA

	done int
}

// opFor joins rank into its next collective: the first rank to arrive
// creates the operation's control state, later ranks find it and verify
// they issued the same call — a mismatch means the program broke the
// same-sequence-everywhere contract.
func (c *Communicator) opFor(rank int, kind opKind, root int, bytes uint64) (*opState, uint64, error) {
	seq := c.seq[rank]
	c.seq[rank]++
	if op, ok := c.ops[seq]; ok {
		if op.kind != kind || op.root != root || op.bytes != bytes {
			return nil, 0, fmt.Errorf("coll: rank %d called %s(root=%d, bytes=%d) at sequence %d where the collective in flight is %s(root=%d, bytes=%d)",
				rank, kind, root, bytes, seq, op.kind, op.root, op.bytes)
		}
		return op, seq, nil
	}
	zc := false
	switch c.opts.Mode {
	case ModeZeroCopy:
		zc = true
	case ModeCICO:
		zc = false
	default:
		zc = bytes >= defaultSwitchover
	}
	op := &opState{
		kind: kind, root: root, bytes: bytes, zc: zc,
		nchunks: int((bytes + c.chunk - 1) / c.chunk),
		have:    make([]uint64, len(c.members)),
		red:     make([]uint64, len(c.members)),
		slotIn:  make([]uint64, len(c.groups)),
		slotAck: make([]uint64, len(c.groups)),
		arrive:  make([]uint64, len(c.groups)),
		release: make([]uint64, len(c.groups)),
		wins:    make([]map[int]pagetable.VA, len(c.members)),
	}
	op.redIn = make([][]uint64, len(c.groups))
	op.redAck = make([][]uint64, len(c.groups))
	for i, g := range c.groups {
		op.redIn[i] = make([]uint64, g.readers())
		op.redAck[i] = make([]uint64, g.readers())
	}
	c.ops[seq] = op
	return op, seq, nil
}

// finish retires rank's participation; the last rank out drops the
// control state.
func (c *Communicator) finish(seq uint64, op *opState) {
	op.done++
	if op.done == len(c.members) {
		delete(c.ops, seq)
	}
}

// opWindow resolves rank's zero-copy window onto src's buffer, probing
// the registration cache at most once per operation per peer.
func (c *Communicator) opWindow(a *sim.Actor, rank, src int, op *opState) (pagetable.VA, error) {
	if op.wins[rank] == nil {
		op.wins[rank] = make(map[int]pagetable.VA)
	}
	if va, ok := op.wins[rank][src]; ok {
		return va, nil
	}
	va, err := c.window(a, rank, src)
	if err != nil {
		return 0, err
	}
	op.wins[rank][src] = va
	return va, nil
}

// chunkOff reports the byte offset of chunk (or arena slot) chk.
func (c *Communicator) chunkOff(chk int) pagetable.VA { return pagetable.VA(uint64(chk) * c.chunk) }

// chunkLen reports the byte length of chunk chk of a bytes-long message.
func (c *Communicator) chunkLen(bytes uint64, chk int) int {
	off := uint64(chk) * c.chunk
	if bytes-off < c.chunk {
		return int(bytes - off)
	}
	return int(c.chunk)
}

// copyIn moves rank's buffer chunk into an arena slot, charging the
// level's CICO-in copy.
func (c *Communicator) copyIn(a *sim.Actor, rank int, g *group, slot, chk int, op *opState) error {
	m := c.members[rank]
	nb := c.chunkLen(op.bytes, chk)
	tmp := make([]byte, nb)
	if _, err := m.Sess.Read(m.Buf+c.chunkOff(chk), tmp); err != nil {
		return err
	}
	dst := c.arenaFor(rank, g) + c.chunkOff(slot)
	if _, err := m.Sess.Write(dst, tmp); err != nil {
		return err
	}
	a.Charge(c.labels[g.lvl].cicoIn, sim.CopyTime(nb, c.bw(g.lvl)))
	return nil
}

// copyOut copies chunk chk from src — a zero-copy window onto a peer's
// buffer or a CICO arena slot — into rank's buffer chunk (reduce=false)
// or folds it into that chunk byte-wise (reduce=true), charging label at
// level lvl's copy bandwidth.
func (c *Communicator) copyOut(a *sim.Actor, rank int, src pagetable.VA, chk int, op *opState, lvl int, label string, reduce bool) error {
	m := c.members[rank]
	nb := c.chunkLen(op.bytes, chk)
	dst := m.Buf + c.chunkOff(chk)
	tmp := make([]byte, nb)
	if _, err := m.Sess.Read(src, tmp); err != nil {
		return err
	}
	if reduce {
		own := make([]byte, nb)
		if _, err := m.Sess.Read(dst, own); err != nil {
			return err
		}
		for i := range tmp {
			tmp[i] += own[i]
		}
	}
	if _, err := m.Sess.Write(dst, tmp); err != nil {
		return err
	}
	a.Charge(label, sim.CopyTime(nb, c.bw(lvl)))
	return nil
}

// sync charges one control-flag transfer at level lvl.
func (c *Communicator) sync(a *sim.Actor, lvl int) {
	a.Charge(c.labels[lvl].sync, c.costs.CollFlagSync)
}

// fence is the drain at the tail of every collective: arrivals tally up
// the hierarchy to the canonical root, releases fan back down, on the
// operation's own arrive/release counters. A rank arrives only after
// its last read of the operation — zero-copy pulls out of peer buffers
// and CICO slot copies alike — so by the time any rank returns, every
// rank has finished reading. Without it, a rank entering operation N+1
// would pass the fresh op's zeroed slot gates and overwrite arena slots
// (or rewrite its application buffer) that slow readers of operation N
// are still copying out of.
func (c *Communicator) fence(a *sim.Actor, rank int, op *opState) {
	for _, gid := range c.led[rank] {
		g := c.groups[gid]
		a.PollDeadline(pollInterval, sim.Forever, func() bool { return op.arrive[g.id] == uint64(g.readers()) })
		c.sync(a, g.lvl)
	}
	if e := c.edge[rank]; e >= 0 {
		g := c.groups[e]
		op.arrive[g.id]++
		c.sync(a, g.lvl)
		a.PollDeadline(pollInterval, sim.Forever, func() bool { return op.release[g.id] == 1 })
	}
	for i := len(c.led[rank]) - 1; i >= 0; i-- {
		g := c.groups[c.led[rank][i]]
		op.release[g.id] = 1
		c.sync(a, g.lvl)
	}
}

// serveDown publishes rank's buffer chunk chk into the broadcast slot of
// every group it leads (CICO plane): waits for the slot's previous chunk
// to drain, copies in, and bumps the slot counter.
func (c *Communicator) serveDown(a *sim.Actor, rank, chk int, op *opState) error {
	for _, gid := range c.led[rank] {
		g := c.groups[gid]
		a.PollDeadline(pollInterval, sim.Forever, func() bool {
			return op.slotIn[g.id] == uint64(chk) && op.slotAck[g.id] == uint64(chk)*uint64(g.readers())
		})
		if err := c.copyIn(a, rank, g, 0, chk, op); err != nil {
			return err
		}
		op.slotIn[g.id] = uint64(chk) + 1
		c.sync(a, g.lvl)
	}
	return nil
}

// recvDown obtains chunk chk of the payload travelling down the tree
// into rank's buffer; copy=false acknowledges without copying (the
// original broadcast root already holds the payload).
func (c *Communicator) recvDown(a *sim.Actor, rank, chk int, op *opState, copy bool) error {
	g := c.groups[c.edge[rank]]
	if op.zc {
		if !copy {
			return nil
		}
		s := c.parent[rank]
		a.PollDeadline(pollInterval, sim.Forever, func() bool { return op.have[s] > uint64(chk) })
		win, err := c.opWindow(a, rank, s, op)
		if err != nil {
			return err
		}
		return c.copyOut(a, rank, win+c.chunkOff(chk), chk, op, g.lvl, c.labels[g.lvl].copyOp, false)
	}
	a.PollDeadline(pollInterval, sim.Forever, func() bool { return op.slotIn[g.id] > uint64(chk) })
	if copy {
		if err := c.copyOut(a, rank, c.arenaFor(rank, g), chk, op, g.lvl, c.labels[g.lvl].cicoOut, false); err != nil {
			return err
		}
	}
	op.slotAck[g.id]++
	c.sync(a, g.lvl)
	return nil
}

// Bcast broadcasts root's first bytes of application buffer to every
// rank, pipelined chunk by chunk down the hierarchy. When root is not
// the canonical top leader, the payload first relocates to it over a
// registered top-tier window. Every rank calls Bcast from its own actor
// with identical root and bytes. The operation ends with an internal
// drain fence: when Bcast returns, every rank has finished reading this
// rank's buffer and the CICO arena slots, so the caller may immediately
// rewrite its buffer or start the next collective without a Barrier.
func (c *Communicator) Bcast(a *sim.Actor, rank, root int, bytes uint64) error {
	if err := c.checkOp(root, bytes); err != nil {
		return err
	}
	if err := c.Setup(a, rank); err != nil {
		return err
	}
	op, seq, err := c.opFor(rank, opBcast, root, bytes)
	if err != nil {
		return err
	}
	if rank == root {
		// The payload is only known valid once the root itself enters
		// the operation; consumers gate on this, not on op creation.
		op.have[rank] = uint64(op.nchunks)
	}
	top := len(c.levels) - 1
	for chk := 0; chk < op.nchunks; chk++ {
		switch {
		case rank == c.canonRoot && root != c.canonRoot:
			// Root relocation: the canonical root pulls straight from
			// the original root's buffer at the top tier.
			a.PollDeadline(pollInterval, sim.Forever, func() bool { return op.have[root] > uint64(chk) })
			win, err := c.opWindow(a, rank, root, op)
			if err != nil {
				return err
			}
			if err := c.copyOut(a, rank, win+c.chunkOff(chk), chk, op, top, c.labels[top].copyOp, false); err != nil {
				return err
			}
			op.have[rank] = uint64(chk) + 1
		case c.edge[rank] >= 0:
			if err := c.recvDown(a, rank, chk, op, rank != root); err != nil {
				return err
			}
			if rank != root {
				op.have[rank] = uint64(chk) + 1
			}
		}
		if !op.zc {
			if err := c.serveDown(a, rank, chk, op); err != nil {
				return err
			}
		}
	}
	c.fence(a, rank, op)
	c.finish(seq, op)
	return nil
}

// Allreduce folds the first bytes of every rank's buffer together
// byte-wise (sum mod 256) and leaves the result in every buffer:
// reduce-up into the canonical root interleaved, chunk by chunk, with
// the broadcast back down. Like Bcast it ends with an internal drain
// fence, so returning guarantees no peer still reads this rank's
// buffer or arena slots.
func (c *Communicator) Allreduce(a *sim.Actor, rank int, bytes uint64) error {
	if err := c.checkOp(0, bytes); err != nil {
		return err
	}
	if err := c.Setup(a, rank); err != nil {
		return err
	}
	op, seq, err := c.opFor(rank, opAllreduce, c.canonRoot, bytes)
	if err != nil {
		return err
	}
	for chk := 0; chk < op.nchunks; chk++ {
		// Reduce up: fold the led groups' contributions into this rank's
		// buffer bottom level first — the chunk must carry the whole
		// subtree's sum before it travels to the parent.
		for _, gid := range c.led[rank] {
			g := c.groups[gid]
			for i, m := range g.members[1:] {
				if op.zc {
					a.PollDeadline(pollInterval, sim.Forever, func() bool { return op.red[m] > uint64(chk) })
					win, err := c.opWindow(a, rank, m, op)
					if err != nil {
						return err
					}
					if err := c.copyOut(a, rank, win+c.chunkOff(chk), chk, op, g.lvl, c.labels[g.lvl].reduce, true); err != nil {
						return err
					}
				} else {
					a.PollDeadline(pollInterval, sim.Forever, func() bool { return op.redIn[g.id][i] > uint64(chk) })
					if err := c.copyOut(a, rank, c.arenaFor(rank, g)+c.chunkOff(1+i), chk, op, g.lvl, c.labels[g.lvl].reduce, true); err != nil {
						return err
					}
					op.redAck[g.id][i] = uint64(chk) + 1
					c.sync(a, g.lvl)
				}
			}
		}
		// The subtree sum is complete: publish it to the parent — a copy
		// into the edge group's reduce slot (CICO) or just the red flag
		// the leader's zero-copy pull gates on.
		if e := c.edge[rank]; e >= 0 && !op.zc {
			g := c.groups[e]
			mi := g.slotIdx(rank)
			a.PollDeadline(pollInterval, sim.Forever, func() bool { return op.redAck[g.id][mi] == uint64(chk) })
			if err := c.copyIn(a, rank, g, 1+mi, chk, op); err != nil {
				return err
			}
			op.redIn[g.id][mi] = uint64(chk) + 1
			c.sync(a, g.lvl)
		}
		op.red[rank] = uint64(chk) + 1

		// Broadcast down: the canonical root's buffer now holds the
		// full sum for this chunk.
		if rank == c.canonRoot {
			op.have[rank] = uint64(chk) + 1
		} else {
			if err := c.recvDown(a, rank, chk, op, true); err != nil {
				return err
			}
			op.have[rank] = uint64(chk) + 1
		}
		if !op.zc {
			if err := c.serveDown(a, rank, chk, op); err != nil {
				return err
			}
		}
	}
	c.fence(a, rank, op)
	c.finish(seq, op)
	return nil
}

// Barrier blocks until every rank has entered it: a bare drain fence.
// No data moves, so neither Setup nor a data plane is involved.
func (c *Communicator) Barrier(a *sim.Actor, rank int) error {
	op, seq, err := c.opFor(rank, opBarrier, c.canonRoot, 0)
	if err != nil {
		return err
	}
	c.fence(a, rank, op)
	c.finish(seq, op)
	return nil
}

// checkOp validates a data collective's arguments against the
// communicator's capacity.
func (c *Communicator) checkOp(root int, bytes uint64) error {
	if root < 0 || root >= len(c.members) {
		return fmt.Errorf("coll: root %d out of range (%d ranks)", root, len(c.members))
	}
	if bytes == 0 || bytes > c.bufBytes {
		return fmt.Errorf("coll: message of %d bytes outside (0, %d]", bytes, c.bufBytes)
	}
	return nil
}
