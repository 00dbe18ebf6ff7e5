// Package rbtree implements the red-black interval tree Palacios uses as
// its guest memory map (§4.4 of the paper).
//
// Each node maps a run of physically contiguous guest frames
// [start, start+count) to a run of host frames [val, val+count). Palacios
// normally manages a handful of large contiguous blocks, so the tree stays
// tiny; but host frames arriving through XEMEM attachments carry no
// contiguity guarantee and the production implementation inserted one
// entry per page — which is why §5.4 measures 80 % of guest-attachment
// time going to rb-tree updates. Every operation reports exactly how many
// node visits and rotations it performed so the simulation can charge
// virtual time for the real work done.
//
// Palacios takes guest addresses for an import from a bump allocator
// and inserts one entry per page, so an import is a run of one-page
// inserts each adding a new maximum; it releases the run page by page in
// ascending order. InsertRun and DeleteRun do a run in one call and
// report exactly the summed OpStats of the per-page Insert and Delete
// calls they replace. InsertRun walks the right spine once, which is the
// first page's descent, and then links each page under the maximum with
// a fixup that can only take the right-child branch; DeleteRun keeps the
// deleted page's in-order successor and its depth, which is the next
// page's descent, for the length of the run. The Map keeps no spine or
// successor between calls, so Insert and Delete always descend.
//
// A Map's nodes live in one slice that holds no pointers, so the garbage
// collector neither scans nor write-barriers them. Links are 32-bit slot
// indices and slot 0 is the black sentinel leaf; the colour is the top
// bit of a 32-bit count, which makes a node 32 bytes, two to a cache
// line. Deleted nodes go on a free list that later inserts take from.
// The slice grows only when the free list runs short: InsertRun reserves
// what its run needs beyond the free list in one step, and Insert
// appends. So a map that only ever holds a VM's RAM entry holds one node,
// and a cold import of a 1 GB window (262,144 pages) allocates once.
//
// The packed count bounds a map: an interval spans at most maxCount
// pages (2³¹−1, 8 TB of 4 KB pages) and a map holds at most maxCount
// intervals. The largest VM in the tree, 32 GB of RAM, is one entry of
// 8 Mi pages, 256 times below the bound. Insert and InsertRun reject
// what the bound cannot hold and leave the map untouched.
package rbtree

import (
	"errors"
	"fmt"
)

// OpStats reports the work one tree operation performed.
type OpStats struct {
	Visits    int // nodes touched during descent and fixup
	Rotations int // rotations performed during rebalancing
}

// Add accumulates other into s.
func (s *OpStats) Add(other OpStats) {
	s.Visits += other.Visits
	s.Rotations += other.Rotations
}

const (
	redBit   = 1 << 31
	maxCount = redBit - 1 // the largest interval, and the most intervals
)

// node is one interval. l, r and p are slots in the map's node slice, 0
// the sentinel. cc holds the count in its low 31 bits and is red when
// its top bit is set.
type node struct {
	start, val uint64
	cc         uint32
	l, r, p    uint32
}

func (n *node) count() uint64 { return uint64(n.cc & maxCount) }
func (n *node) end() uint64   { return n.start + n.count() }
func (n *node) red() bool     { return n.cc&redBit != 0 }
func (n *node) setRed()       { n.cc |= redBit }
func (n *node) setBlack()     { n.cc &^= redBit }

// setColor gives n the colour of o.
func (n *node) setColor(o *node) { n.cc = n.cc&maxCount | o.cc&redBit }

// Map is a red-black interval map. The zero value is not usable; call New.
type Map struct {
	nodes []node // slot 0 the sentinel; the rest live or on the free list
	root  uint32
	size  int
	free  uint32 // deleted nodes, zeroed, linked through r; 0 when none
}

// New returns an empty map, with room for the one entry most maps hold.
func New() *Map { return &Map{nodes: make([]node, 1, 2)} }

// Size reports the number of intervals stored.
func (m *Map) Size() int { return m.size }

// ErrOverlap is returned when an insert would overlap an existing interval.
var ErrOverlap = errors.New("rbtree: interval overlaps existing entry")

// tooLarge reports the error for pages the packed count cannot hold.
func tooLarge(what string, pages uint64) error {
	return fmt.Errorf("rbtree: %s of %d pages does not fit: an interval holds at most %d pages, a map at most %[3]d intervals", what, pages, maxCount)
}

// Insert adds the mapping [start, start+count) → [val, val+count).
func (m *Map) Insert(start, count, val uint64) (OpStats, error) {
	var st OpStats
	if count == 0 {
		return st, errors.New("rbtree: zero-length interval")
	}
	if count > maxCount || m.size == maxCount {
		return st, tooLarge("an interval", count)
	}
	ns := m.nodes
	y := uint32(0)
	for x := m.root; x != 0; {
		n := &ns[x]
		st.Visits++
		y = x
		if start < n.end() && n.start < start+count {
			return st, fmt.Errorf("%w: [%#x,+%d) vs [%#x,+%d)", ErrOverlap, start, count, n.start, n.count())
		}
		if start < n.start {
			x = n.l
		} else {
			x = n.r
		}
	}
	// Taking a node may move the slice: index it afresh.
	z := m.newNode()
	ns = m.nodes
	ns[z] = node{start: start, val: val, cc: uint32(count) | redBit, p: y}
	switch {
	case y == 0:
		m.root = z
	case start < ns[y].start:
		ns[y].l = z
	default:
		ns[y].r = z
	}
	m.size++
	m.insertFixup(ns, z, &st)
	return st, nil
}

// InsertRun inserts the n one-page intervals [start+i, start+i+1) →
// val+i in ascending order. It reports the summed OpStats of the calls
// Insert(start+i, 1, val+i) it replaces and, like them, stops at the
// first page that fails, whose work is in the sum. A run starting at or
// past the maximum's end takes a loop specialised to maximum inserts;
// any other run makes those calls. A run that would take the map past
// maxCount intervals fails before any page, with zero OpStats.
func (m *Map) InsertRun(start, n, val uint64) (OpStats, error) {
	var st OpStats
	if n > maxCount-uint64(m.size) {
		return st, tooLarge("a run", n)
	}
	// The right spine: every node on it ends at or before the maximum's
	// end, so a key at or past that end overlaps none and goes right at
	// each. Its length is that key's descent, and the maximum its parent.
	ns := m.nodes
	spine, top := 0, uint32(0)
	for x := m.root; x != 0; x = ns[x].r {
		spine++
		top = x
	}
	if top != 0 && start < ns[top].end() {
		for i := uint64(0); i < n; i++ {
			s, err := m.Insert(start+i, 1, val+i)
			st.Add(s)
			if err != nil {
				return st, err
			}
		}
		return st, nil
	}
	// After the reserve the slice stays put until the run ends, so the
	// loop holds it and node pointers into it. It takes the free list
	// first, then the reserved slots past the slice's length.
	m.reserve(n)
	ns = m.nodes
	for i := uint64(0); i < n; i++ {
		z := m.free
		if z != 0 {
			m.free = ns[z].r
		} else {
			z = uint32(len(ns))
			ns = ns[:z+1]
		}
		zn := &ns[z]
		*zn = node{start: start + i, val: val + i, cc: 1 | redBit, p: top}
		if top == 0 {
			m.root = z
		} else {
			ns[top].r = z
		}
		m.size++
		st.Visits += spine
		spine++
		top = z
		// insertFixup's parent-is-a-right-child branch: z and its
		// parent are on the spine, so z is never a left child and the
		// one rotation, at the grandparent, takes it off the spine.
		for {
			pn := &ns[zn.p]
			if !pn.red() {
				break
			}
			st.Visits++
			g := pn.p
			gn := &ns[g]
			if u := &ns[gn.l]; u.red() {
				pn.setBlack()
				u.setBlack()
				gn.setRed()
				zn = gn
				continue
			}
			pn.setBlack()
			gn.setRed()
			m.leftRotate(ns, g, &st)
			spine--
			break
		}
		ns[m.root].setBlack()
	}
	m.nodes = ns
	return st, nil
}

// reserve makes room for n new nodes: what the free list cannot supply
// becomes spare capacity past the slice's length, grown by exactly the
// shortfall.
func (m *Map) reserve(n uint64) {
	free := len(m.nodes) - 1 - m.size
	need := int(n) - free - (cap(m.nodes) - len(m.nodes))
	if need > 0 {
		grown := make([]node, len(m.nodes), cap(m.nodes)+need)
		copy(grown, m.nodes)
		m.nodes = grown
	}
}

// newNode returns the slot of a deleted node when there is one and
// otherwise appends one, which may move the slice.
func (m *Map) newNode() uint32 {
	if z := m.free; z != 0 {
		m.free = m.nodes[z].r
		return z
	}
	m.nodes = append(m.nodes, node{})
	return uint32(len(m.nodes) - 1)
}

func (m *Map) leftRotate(ns []node, x uint32, st *OpStats) {
	st.Rotations++
	xn := &ns[x]
	y := xn.r
	yn := &ns[y]
	xn.r = yn.l
	if yn.l != 0 {
		ns[yn.l].p = x
	}
	yn.p = xn.p
	switch p := &ns[xn.p]; {
	case xn.p == 0:
		m.root = y
	case x == p.l:
		p.l = y
	default:
		p.r = y
	}
	yn.l = x
	xn.p = y
}

func (m *Map) rightRotate(ns []node, x uint32, st *OpStats) {
	st.Rotations++
	xn := &ns[x]
	y := xn.l
	yn := &ns[y]
	xn.l = yn.r
	if yn.r != 0 {
		ns[yn.r].p = x
	}
	yn.p = xn.p
	switch p := &ns[xn.p]; {
	case xn.p == 0:
		m.root = y
	case x == p.r:
		p.r = y
	default:
		p.l = y
	}
	yn.r = x
	xn.p = y
}

func (m *Map) insertFixup(ns []node, z uint32, st *OpStats) {
	for {
		p := ns[z].p
		pn := &ns[p]
		if !pn.red() {
			break
		}
		st.Visits++
		g := pn.p
		gn := &ns[g]
		if p == gn.l {
			if y := &ns[gn.r]; y.red() {
				pn.setBlack()
				y.setBlack()
				gn.setRed()
				z = g
				continue
			}
			if z == pn.r {
				z = p
				m.leftRotate(ns, z, st)
			}
			zp := &ns[ns[z].p]
			zp.setBlack()
			ns[zp.p].setRed()
			m.rightRotate(ns, zp.p, st)
		} else {
			if y := &ns[gn.l]; y.red() {
				pn.setBlack()
				y.setBlack()
				gn.setRed()
				z = g
				continue
			}
			if z == pn.l {
				z = p
				m.rightRotate(ns, z, st)
			}
			zp := &ns[ns[z].p]
			zp.setBlack()
			ns[zp.p].setRed()
			m.leftRotate(ns, zp.p, st)
		}
	}
	ns[m.root].setBlack()
}

// Lookup translates key (a guest frame) through the interval containing
// it. It reports the mapped value for that exact frame, the interval's
// start and count (so callers can batch-translate contiguous runs), and
// whether the frame is mapped.
func (m *Map) Lookup(key uint64) (val, runStart, runCount uint64, st OpStats, ok bool) {
	ns := m.nodes
	for x := m.root; x != 0; {
		n := &ns[x]
		st.Visits++
		switch {
		case key < n.start:
			x = n.l
		case key >= n.end():
			x = n.r
		default:
			return n.val + (key - n.start), n.start, n.count(), st, true
		}
	}
	return 0, 0, 0, st, false
}

// Delete removes the interval whose start is exactly start.
func (m *Map) Delete(start uint64) (OpStats, error) {
	z, depth, err := m.find(start)
	st := OpStats{Visits: depth}
	if err == nil {
		m.remove(z, depth, &st)
	}
	return st, err
}

// DeleteRun removes the intervals starting at start, start+1, …,
// start+n-1 in ascending order. It reports the summed OpStats of the
// Delete calls it replaces and, like them, stops at the first key no
// interval starts at, whose descent is in the sum. After each delete it
// keeps the deleted node's in-order successor and its depth; when the
// next key starts there, that depth is the descent's count and the
// descent is skipped.
func (m *Map) DeleteRun(start, n uint64) (OpStats, error) {
	var st OpStats
	var f finger
	for i := uint64(0); i < n; i++ {
		z := f.n
		if z == 0 || m.nodes[z].start != start+i {
			var err error
			if z, f.depth, err = m.find(start + i); err != nil {
				st.Visits += f.depth
				return st, err
			}
		}
		st.Visits += f.depth
		f = m.remove(z, f.depth, &st)
	}
	return st, nil
}

// find descends to the node starting at start and reports its depth,
// the nodes above it, which are the descent's visits (on a miss, the
// nodes the descent passed).
func (m *Map) find(start uint64) (uint32, int, error) {
	ns := m.nodes
	z, depth := m.root, 0
	for z != 0 {
		n := &ns[z]
		if n.start == start {
			return z, depth, nil
		}
		depth++
		if start < n.start {
			z = n.l
		} else {
			z = n.r
		}
	}
	return 0, depth, fmt.Errorf("rbtree: no interval starting at %#x", start)
}

// finger is a node and its depth, the number of nodes above it: the
// visits of a descent to it. n is 0 when there is none.
type finger struct {
	n     uint32
	depth int
}

// remove splices z, at the given depth, out of the tree, rebalances, puts
// z on the free list, and returns z's in-order successor with its depth
// in the rebalanced tree.
func (m *Map) remove(z uint32, depth int, st *OpStats) finger {
	m.size--
	ns := m.nodes
	zn := &ns[z]
	// The successor is the child spliced into z's place (a node with one
	// child has a red leaf there), the nearest ancestor holding z in its
	// left subtree, or the y that takes z's place. below records whether
	// it sits at or under x, the node the fixup starts from.
	var f finger
	yRed := zn.red()
	var x uint32
	below := false
	switch {
	case zn.l == 0:
		x = zn.r
		if x != 0 {
			f, below = finger{x, depth}, true
		} else {
			f = ancestorFinger(ns, z, depth)
		}
		m.transplant(ns, z, zn.r)
	case zn.r == 0:
		x = zn.l
		f = ancestorFinger(ns, z, depth)
		m.transplant(ns, z, zn.l)
	default:
		y := minimum(ns, zn.r, st)
		yn := &ns[y]
		f = finger{y, depth}
		yRed = yn.red()
		x = yn.r
		if yn.p == z {
			ns[x].p = y
		} else {
			m.transplant(ns, y, yn.r)
			yn.r = zn.r
			ns[yn.r].p = y
		}
		m.transplant(ns, z, y)
		yn.l = zn.l
		ns[yn.l].p = y
		yn.setColor(zn)
	}
	if !yRed {
		m.deleteFixup(ns, x, below, &f, st)
	}
	*zn = node{r: m.free}
	m.free = z
	return f
}

// ancestorFinger returns z's nearest ancestor that holds z in its left
// subtree, or none when z is the maximum. depth is z's. Nodes above z
// keep their depth when z is spliced out.
func ancestorFinger(ns []node, z uint32, depth int) finger {
	for c := z; ns[c].p != 0; c = ns[c].p {
		depth--
		if p := ns[c].p; c == ns[p].l {
			return finger{p, depth}
		}
	}
	return finger{}
}

// transplant puts v in u's place under u's parent. v may be the
// sentinel, whose parent it sets too: deleteFixup starts from there.
func (m *Map) transplant(ns []node, u, v uint32) {
	p := ns[u].p
	switch {
	case p == 0:
		m.root = v
	case u == ns[p].l:
		ns[p].l = v
	default:
		ns[p].r = v
	}
	ns[v].p = p
}

func minimum(ns []node, x uint32, st *OpStats) uint32 {
	for ns[x].l != 0 {
		st.Visits++
		x = ns[x].l
	}
	return x
}

// deleteFixup restores the red-black properties from x upward, keeping
// the depth of the successor f exact. f starts at or under x (below) or
// on the path above it, and stays so: x only climbs to its parent. A
// rotation at x.p moves x, its subtree and x.p itself down one level and
// leaves every node above x.p where it was, so it deepens f when f is
// x.p or below. Rotations at the sibling w move only w's subtree, which
// never holds f. A rotation at x.p leaves it x's parent.
func (m *Map) deleteFixup(ns []node, x uint32, below bool, f *finger, st *OpStats) {
	for x != m.root && !ns[x].red() {
		st.Visits++
		p := ns[x].p
		pn := &ns[p]
		sink := below || p == f.n
		if x == pn.l {
			wn := &ns[pn.r]
			if wn.red() {
				wn.setBlack()
				pn.setRed()
				if sink {
					f.depth++
				}
				m.leftRotate(ns, p, st)
				wn = &ns[pn.r]
			}
			if !ns[wn.l].red() && !ns[wn.r].red() {
				wn.setRed()
				below = sink
				x = p
				continue
			}
			if !ns[wn.r].red() {
				ns[wn.l].setBlack()
				wn.setRed()
				m.rightRotate(ns, pn.r, st)
				wn = &ns[pn.r]
			}
			wn.setColor(pn)
			pn.setBlack()
			ns[wn.r].setBlack()
			if sink {
				f.depth++
			}
			m.leftRotate(ns, p, st)
		} else {
			wn := &ns[pn.l]
			if wn.red() {
				wn.setBlack()
				pn.setRed()
				if sink {
					f.depth++
				}
				m.rightRotate(ns, p, st)
				wn = &ns[pn.l]
			}
			if !ns[wn.r].red() && !ns[wn.l].red() {
				wn.setRed()
				below = sink
				x = p
				continue
			}
			if !ns[wn.l].red() {
				ns[wn.r].setBlack()
				wn.setRed()
				m.leftRotate(ns, pn.l, st)
				wn = &ns[pn.l]
			}
			wn.setColor(pn)
			pn.setBlack()
			ns[wn.l].setBlack()
			if sink {
				f.depth++
			}
			m.rightRotate(ns, p, st)
		}
		x = m.root
	}
	ns[x].setBlack()
}

// InOrder visits intervals in ascending start order until fn returns false.
func (m *Map) InOrder(fn func(start, count, val uint64) bool) {
	ns := m.nodes
	var walk func(x uint32) bool
	walk = func(x uint32) bool {
		if x == 0 {
			return true
		}
		n := &ns[x]
		return walk(n.l) && fn(n.start, n.count(), n.val) && walk(n.r)
	}
	walk(m.root)
}

// Validate checks every red-black and interval invariant: BST order,
// disjoint intervals, black root, no red node with a red child, and equal
// black height on every root-to-leaf path. It returns the first
// violation.
func (m *Map) Validate() error {
	if m.nodes[m.root].red() {
		return errors.New("rbtree: root is red")
	}
	var prevEnd uint64
	var havePrev bool
	ordered := true
	m.InOrder(func(start, count, _ uint64) bool {
		if havePrev && start < prevEnd {
			ordered = false
			return false
		}
		prevEnd = start + count
		havePrev = true
		return true
	})
	if !ordered {
		return errors.New("rbtree: intervals out of order or overlapping")
	}
	_, err := m.blackHeight(m.root)
	return err
}

func (m *Map) blackHeight(x uint32) (int, error) {
	if x == 0 {
		return 1, nil
	}
	n := &m.nodes[x]
	if n.red() && (m.nodes[n.l].red() || m.nodes[n.r].red()) {
		return 0, fmt.Errorf("rbtree: red node %#x has red child", n.start)
	}
	lh, err := m.blackHeight(n.l)
	if err != nil {
		return 0, err
	}
	rh, err := m.blackHeight(n.r)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, fmt.Errorf("rbtree: black height mismatch at %#x (%d vs %d)", n.start, lh, rh)
	}
	if !n.red() {
		lh++
	}
	return lh, nil
}

// Height reports the tree's actual height (diagnostics; O(n)).
func (m *Map) Height() int {
	var h func(x uint32) int
	h = func(x uint32) int {
		if x == 0 {
			return 0
		}
		return max(h(m.nodes[x].l), h(m.nodes[x].r)) + 1
	}
	return h(m.root)
}
