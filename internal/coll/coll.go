// Package coll implements XHC-style hierarchical, topology-aware
// collectives — broadcast, allreduce, and barrier — directly on the
// XEMEM zero-copy attach machinery (SNIPPETS.md, Open MPI coll/xhc).
//
// A Communicator groups one rank per participating process and builds an
// n-level reduction/broadcast hierarchy from the ranks' localities
// (xemem.Locality), innermost level first: ranks sharing a NUMA domain
// form the bottom groups, their leaders regroup by socket, and the
// surviving leaders meet in a flat top group. Data moves through the
// hierarchy chunk by chunk (pipelining), one of two ways:
//
//   - Zero-copy: the consumer attaches the producer's application buffer
//     once — on first appearance — and recovers the window from the
//     attacher-side registration cache on every later operation
//     (xpmem.Session.AttachCached), then copies directly out of it. One
//     copy per hierarchy edge.
//
//   - Copy-in/copy-out (CICO): each group's leader owns a small arena,
//     exported at setup and permanently attached by every member. The
//     producer copies a chunk in, consumers copy it out. Two copies per
//     edge, but no per-buffer attach traffic — cheaper below the
//     message-size switchover, where attach latency dominates copy cost.
//
// Allreduce runs reduce-up (leaders fold members' chunks into their own
// buffer, byte-wise sum) and broadcast-down over the same tree, with the
// phases interleaved per chunk: chunk c broadcasts down while chunk c+1
// is still reducing up. Copies are charged against per-level bandwidth
// tiers (sim.Costs.CollNUMABW/CollSocketBW/CollFlatBW) under trace op
// labels that name the hierarchy level, so a contention observer
// attributes collective time level by level.
//
// Every data collective ends with an internal drain fence (a tree
// barrier on the operation's own counters): no rank returns from an
// operation while any peer still reads its buffer or a CICO arena
// slot, so consecutive collectives — and application buffer rewrites
// between them — need no explicit Barrier.
//
// Control flags live host-side in the Communicator and are safe under
// the world's one-runnable-goroutine guarantee. Every rank must issue the
// same sequence of collective calls, as in MPI.
package coll

import (
	"fmt"
	"sort"

	"xemem"
	"xemem/internal/mem"
	"xemem/internal/pagetable"
	"xemem/internal/sim"
	"xemem/internal/xpmem"
)

// Mode selects the data plane.
type Mode int

const (
	// ModeAuto picks zero-copy at and above Opts.Switchover, CICO below.
	ModeAuto Mode = iota
	// ModeZeroCopy forces the zero-copy plane at every message size.
	ModeZeroCopy
	// ModeCICO forces the copy-in/copy-out plane at every message size.
	ModeCICO
)

// Opts parameterizes a Communicator, following the repo-wide
// option-struct convention (DESIGN.md §15): every zero field selects the
// calibrated default in parentheses.
type Opts struct {
	// Switchover is the message size in bytes at which ModeAuto moves
	// from CICO to zero-copy (32 KB).
	Switchover uint64
	// ChunkBytes is the pipelining granularity and CICO slot size; must
	// be a page multiple (64 KB).
	ChunkBytes uint64
	// Levels is the hierarchy, innermost first; the last level must
	// converge every rank into one group, so it normally ends with
	// xemem.LevelFlat (xemem.DefaultLevels).
	Levels []xemem.Level
	// Mode forces a data plane regardless of message size (ModeAuto).
	Mode Mode
}

// Member describes one rank: its XPMEM session, the application buffer
// collectives operate on, the scratch window CICO arenas are carved
// from (leaders only; may be zero for ranks that lead no group), and
// the rank's physical locality. Buf and Scratch must be page-aligned
// addresses inside mapped regions of the session's process.
type Member struct {
	Sess    *xpmem.Session
	Buf     pagetable.VA
	Scratch pagetable.VA
	Loc     xemem.Locality
}

// group is one node of the hierarchy: the ranks local to each other at
// one level. members is sorted ascending; members[0] is the (canonical)
// leader. Groups with a single member carry no arena and no traffic.
type group struct {
	id         int
	lvl        int   // index into Communicator.levels
	members    []int // ascending; members[0] is the leader
	arenaOff   uint64
	arenaBytes uint64
	seg        xpmem.Segid // arena segment, exported by the leader at setup
}

func (g *group) leader() int  { return g.members[0] }
func (g *group) readers() int { return len(g.members) - 1 }

// slotIdx reports rank's reduce-slot index within the group's arena
// (0-based over the non-leader members).
func (g *group) slotIdx(rank int) int {
	for i, m := range g.members[1:] {
		if m == rank {
			return i
		}
	}
	return -1
}

// binding is one rank's registered window onto another rank's
// application buffer: the access permit plus the cached attach address.
// register acquires one; unregister retires it (xemem-vet's paircheck
// enforces the pairing).
type binding struct {
	src   int
	segid xpmem.Segid
	apid  xpmem.Apid
	va    pagetable.VA
}

// rankState is the per-rank runtime state; each field is written only by
// its own rank's actor.
type rankState struct {
	seg      xpmem.Segid // exported application buffer
	exported bool
	ready    bool

	binds map[int]*binding // src rank → registered window

	arenaSeg      xpmem.Segid
	arenaApid     xpmem.Apid
	arenaVA       pagetable.VA
	arenaAttached bool
}

// lvlLabels are the precomputed trace op names of one hierarchy level.
type lvlLabels struct {
	copyOp  string
	cicoIn  string
	cicoOut string
	reduce  string
	sync    string
}

// Communicator runs collectives over a fixed set of ranks. Construct
// with New, drive each rank from its own actor, and Close each rank
// when done.
type Communicator struct {
	opts     Opts
	members  []Member
	costs    *sim.Costs
	bufBytes uint64 // page-rounded buffer capacity
	chunk    uint64
	levels   []xemem.Level
	labels   []lvlLabels

	groups    []*group
	led       [][]int // per rank: group ids it leads (≥2 members), bottom-up
	edge      []int   // per rank: group id it is a non-leader member of, -1 for the canonical root
	parent    []int   // per rank: leader of its edge group, -1 for the canonical root
	canonRoot int

	st   []*rankState
	seq  []uint64            // per rank: next collective sequence number
	ops  map[uint64]*opState // in-flight collectives by sequence number
	need []uint64            // per rank: scratch bytes its led arenas occupy
}

// pollInterval is the granularity at which ranks poll the host-side
// control flags; fine enough to be invisible against per-chunk copy
// costs.
const pollInterval = 500 * sim.Nanosecond

const (
	defaultSwitchover = 32 << 10
	defaultChunk      = 64 << 10
)

// New builds a communicator over members with application buffers of
// bufBytes capacity. Opts' zero value selects the defaults; see Opts.
func New(members []Member, bufBytes uint64, o Opts) (*Communicator, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("coll: no members")
	}
	if bufBytes == 0 {
		return nil, fmt.Errorf("coll: zero buffer capacity")
	}
	if o.Switchover == 0 {
		o.Switchover = defaultSwitchover
	}
	if o.ChunkBytes == 0 {
		o.ChunkBytes = defaultChunk
	}
	if o.ChunkBytes%mem.PageSize != 0 {
		return nil, fmt.Errorf("coll: chunk size %d is not a page multiple", o.ChunkBytes)
	}
	if len(o.Levels) == 0 {
		o.Levels = xemem.DefaultLevels
	}
	c := &Communicator{
		opts:     o,
		members:  members,
		costs:    members[0].Sess.Module().Costs(),
		bufBytes: (bufBytes + mem.PageSize - 1) &^ uint64(mem.PageSize-1),
		chunk:    o.ChunkBytes,
		levels:   o.Levels,
		ops:      make(map[uint64]*opState),
		seq:      make([]uint64, len(members)),
	}
	w := members[0].Sess.Module().World()
	for i, m := range members {
		if m.Sess.Module().World() != w {
			return nil, fmt.Errorf("coll: rank %d lives in a different world", i)
		}
		if m.Buf.Offset() != 0 {
			return nil, fmt.Errorf("coll: rank %d buffer %#x is not page-aligned", i, uint64(m.Buf))
		}
	}
	for l, lv := range c.levels {
		c.labels = append(c.labels, lvlLabels{
			copyOp:  fmt.Sprintf("coll-copy:L%d-%s", l, lv),
			cicoIn:  fmt.Sprintf("coll-cico-in:L%d-%s", l, lv),
			cicoOut: fmt.Sprintf("coll-cico-out:L%d-%s", l, lv),
			reduce:  fmt.Sprintf("coll-reduce:L%d-%s", l, lv),
			sync:    fmt.Sprintf("coll-sync:L%d-%s", l, lv),
		})
	}
	if err := c.buildHierarchy(); err != nil {
		return nil, err
	}
	for range members {
		c.st = append(c.st, &rankState{binds: make(map[int]*binding)})
	}
	return c, nil
}

// buildHierarchy partitions the ranks level by level: every rank starts
// at the bottom, each group's minimum rank survives to the next level,
// and the top level must leave exactly one survivor — the canonical
// root. Led-group arenas are laid out in each leader's scratch window in
// creation (bottom-up) order.
func (c *Communicator) buildHierarchy() error {
	n := len(c.members)
	c.led = make([][]int, n)
	c.edge = make([]int, n)
	c.parent = make([]int, n)
	c.need = make([]uint64, n)
	for i := range c.edge {
		c.edge[i], c.parent[i] = -1, -1
	}
	cur := make([]int, n)
	for i := range cur {
		cur[i] = i
	}
	for l, lv := range c.levels {
		byKey := make(map[int][]int)
		var keys []int
		for _, r := range cur {
			k := c.members[r].Loc.Key(lv)
			if _, ok := byKey[k]; !ok {
				keys = append(keys, k)
			}
			byKey[k] = append(byKey[k], r)
		}
		sort.Ints(keys)
		next := cur[:0]
		for _, k := range keys {
			part := byKey[k] // ascending: cur stays sorted level to level
			g := &group{id: len(c.groups), lvl: l, members: part}
			c.groups = append(c.groups, g)
			lead := g.leader()
			if g.readers() > 0 {
				c.led[lead] = append(c.led[lead], g.id)
				g.arenaOff = c.need[lead]
				g.arenaBytes = c.chunk * uint64(len(part))
				c.need[lead] += g.arenaBytes
				for _, m := range part[1:] {
					c.edge[m] = g.id
					c.parent[m] = lead
				}
			}
			next = append(next, lead)
		}
		sort.Ints(next)
		cur = next
	}
	if len(cur) != 1 {
		return fmt.Errorf("coll: hierarchy does not converge: %d groups at the top level (end Levels with LevelFlat)", len(cur))
	}
	c.canonRoot = cur[0]
	return nil
}

// bw reports the copy bandwidth of hierarchy level l's locality tier.
func (c *Communicator) bw(l int) float64 {
	switch c.levels[l] {
	case xemem.LevelNUMA:
		return c.costs.CollNUMABW
	case xemem.LevelSocket:
		return c.costs.CollSocketBW
	default:
		return c.costs.CollFlatBW
	}
}

// CanonRoot reports the rank leading every hierarchy level — the
// implicit root of allreduce and barrier.
func (c *Communicator) CanonRoot() int { return c.canonRoot }

// Groups reports the hierarchy's group count (diagnostics).
func (c *Communicator) Groups() int { return len(c.groups) }

// ScratchNeed reports how many scratch bytes rank's led-group arenas
// occupy — the minimum capacity its Member.Scratch window must have.
func (c *Communicator) ScratchNeed(rank int) uint64 { return c.need[rank] }

// Setup exports rank's application buffer, exports and permanently
// attaches the CICO arenas (the XHC init-time attachment), and waits for
// every other rank to do the same. Collectives call it lazily; calling
// it explicitly keeps setup cost out of operation latency.
func (c *Communicator) Setup(a *sim.Actor, rank int) error {
	st := c.st[rank]
	if st.ready {
		return nil
	}
	m := c.members[rank]
	if c.need[rank] > 0 {
		if m.Scratch.Offset() != 0 {
			return fmt.Errorf("coll: rank %d scratch %#x is not page-aligned", rank, uint64(m.Scratch))
		}
	}
	seg, err := m.Sess.Make(a, m.Buf, c.bufBytes, xpmem.PermRead, "")
	if err != nil {
		return err
	}
	st.seg = seg
	for _, gid := range c.led[rank] {
		g := c.groups[gid]
		arenaSeg, err := m.Sess.Make(a, m.Scratch+pagetable.VA(g.arenaOff), g.arenaBytes,
			xpmem.PermRead|xpmem.PermWrite, "")
		if err != nil {
			return err
		}
		g.seg = arenaSeg
	}
	st.exported = true
	a.Poll(pollInterval, func() bool {
		for _, other := range c.st {
			if !other.exported {
				return false
			}
		}
		return true
	})
	if e := c.edge[rank]; e >= 0 {
		g := c.groups[e]
		apid, err := m.Sess.GetWith(a, g.seg, xpmem.GetOpts{Perm: xpmem.PermRead | xpmem.PermWrite})
		if err != nil {
			return err
		}
		va, err := m.Sess.AttachWith(a, g.seg, apid, xpmem.AttachOpts{
			Bytes: g.arenaBytes, Perm: xpmem.PermRead | xpmem.PermWrite})
		if err != nil {
			return err
		}
		st.arenaSeg, st.arenaApid, st.arenaVA, st.arenaAttached = g.seg, apid, va, true
	}
	st.ready = true
	a.Poll(pollInterval, func() bool {
		for _, other := range c.st {
			if !other.ready {
				return false
			}
		}
		return true
	})
	return nil
}

// register acquires a registration-cache binding onto src's application
// buffer: an access permit plus the first (miss) attach through
// AttachCached. The caller owns the binding and must retire it with
// unregister on teardown.
func (c *Communicator) register(a *sim.Actor, rank, src int) (*binding, error) {
	m := c.members[rank]
	seg := c.st[src].seg
	apid, err := m.Sess.GetWith(a, seg, xpmem.GetOpts{Perm: xpmem.PermRead})
	if err != nil {
		return nil, err
	}
	va, err := m.Sess.AttachCached(a, seg, apid, xpmem.AttachOpts{Bytes: c.bufBytes, Perm: xpmem.PermRead})
	if err != nil {
		relErr := m.Sess.Release(a, seg, apid)
		if relErr != nil {
			return nil, fmt.Errorf("%w (release after failed attach: %v)", err, relErr)
		}
		return nil, err
	}
	return &binding{src: src, segid: seg, apid: apid, va: va}, nil
}

// unregister retires one binding: detaches the cached window (which
// invalidates the session's registration-cache entry) and releases the
// permit.
func (c *Communicator) unregister(a *sim.Actor, rank int, b *binding) error {
	m := c.members[rank]
	if err := m.Sess.Detach(a, b.va); err != nil {
		return err
	}
	return m.Sess.Release(a, b.segid, b.apid)
}

// window resolves rank's view of src's application buffer: the first
// request registers (attach on first appearance), every later one
// recovers the window from the attacher-side registration cache.
func (c *Communicator) window(a *sim.Actor, rank, src int) (pagetable.VA, error) {
	st := c.st[rank]
	if b, ok := st.binds[src]; ok {
		va, err := c.members[rank].Sess.AttachCached(a, b.segid, b.apid,
			xpmem.AttachOpts{Bytes: c.bufBytes, Perm: xpmem.PermRead})
		if err != nil {
			return 0, err
		}
		b.va = va
		return va, nil
	}
	b, err := c.register(a, rank, src)
	if err != nil {
		return 0, err
	}
	st.binds[src] = b
	return b.va, nil
}

// arenaFor resolves rank's address of group g's arena: leaders write
// their own scratch directly, members go through the permanent
// attachment made at setup.
func (c *Communicator) arenaFor(rank int, g *group) pagetable.VA {
	if g.leader() == rank {
		return c.members[rank].Scratch + pagetable.VA(g.arenaOff)
	}
	return c.st[rank].arenaVA
}

// Close tears down rank's side of the communicator: unregisters every
// cached peer-buffer binding (in ascending source order, so teardown
// cost is deterministic) and detaches the permanently attached CICO
// arena. Exported segments stay live — peers may still hold windows
// onto them.
func (c *Communicator) Close(a *sim.Actor, rank int) error {
	st := c.st[rank]
	srcs := make([]int, 0, len(st.binds))
	for src := range st.binds {
		srcs = append(srcs, src)
	}
	sort.Ints(srcs)
	for _, src := range srcs {
		b := st.binds[src]
		if err := c.unregister(a, rank, b); err != nil {
			return err
		}
		delete(st.binds, src)
	}
	if st.arenaAttached {
		if err := c.members[rank].Sess.Detach(a, st.arenaVA); err != nil {
			return err
		}
		if err := c.members[rank].Sess.Release(a, st.arenaSeg, st.arenaApid); err != nil {
			return err
		}
		st.arenaAttached = false
	}
	return nil
}
