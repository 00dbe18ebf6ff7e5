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
// Palacios takes guest addresses for an import from a bump allocator, so
// nearly every insert adds a new maximum, and its descent walks the right
// spine: it goes right at every node and overlaps none, since the
// intervals are disjoint and sorted. The Map therefore caches the
// rightmost node and the length of the spine. An insert at or past the
// maximum's end links the node under it directly and reports the spine
// length as its visits — the count the descent would have made. The
// fixup after such an insert only ever rotates left at a spine node,
// which shortens the spine by one, so the cache follows as spine+1 minus
// the rotations. Any other insert and every delete drop the length; the
// descent of the next maximum insert counts it again.
//
// Palacios releases an import page by page in ascending order, so each
// delete after the first removes the previous one's in-order successor.
// After every delete the Map keeps that successor as a finger, with its
// depth (the nodes above it, which is what a descent to it visits). A
// delete of the finger's key skips the descent and reports the depth as
// its visits. The depth stays exact through the fixup's rotations (see
// deleteFixup); any insert and any miss drop the finger.
//
// Deleted nodes go on a free list that later inserts take from. Nodes the
// free list cannot supply come from per-Map chunks that double from one
// node up to maxChunk, so a map that only ever holds a VM's RAM entry
// allocates one node, and a cold import of a 1 GB window (262,144 pages)
// allocates 30 chunks instead of 262,144 nodes.
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

type color bool

const (
	red   color = true
	black color = false
)

type node struct {
	start, count, val uint64
	c                 color
	l, r, p           *node
}

func (n *node) end() uint64 { return n.start + n.count }

// Map is a red-black interval map. The zero value is not usable; call New.
type Map struct {
	nilNode     *node // shared sentinel leaf
	root        *node
	size        int
	max         *node  // rightmost node; meaningful only while spine > 0
	spine       int    // nodes on the path from root to max; 0 means unknown
	finger      *node  // last delete's in-order successor; nil when unknown
	fingerDepth int    // nodes above finger
	free        *node  // deleted nodes, zeroed, linked through r
	chunk       []node // unused nodes of the newest chunk
	chunkLen    int    // length of the newest chunk
}

// maxChunk caps the chunks fresh nodes come from (16,384 nodes, 896 KB),
// which bounds the unused tail of a grown map.
const maxChunk = 1 << 14

// New returns an empty map.
func New() *Map {
	sentinel := &node{c: black}
	return &Map{nilNode: sentinel, root: sentinel}
}

// Size reports the number of intervals stored.
func (m *Map) Size() int { return m.size }

// ErrOverlap is returned when an insert would overlap an existing interval.
var ErrOverlap = errors.New("rbtree: interval overlaps existing entry")

// Insert adds the mapping [start, start+count) → [val, val+count).
func (m *Map) Insert(start, count, val uint64) (OpStats, error) {
	var st OpStats
	if count == 0 {
		return st, errors.New("rbtree: zero-length interval")
	}
	m.finger = nil
	y := m.nilNode
	rightmost := true // the descent goes right at every node
	if m.spine > 0 && start >= m.max.end() {
		// A new maximum: the descent would visit exactly the spine.
		y, st.Visits = m.max, m.spine
	} else {
		for x := m.root; x != m.nilNode; {
			st.Visits++
			y = x
			if start < x.end() && x.start < start+count {
				return st, fmt.Errorf("%w: [%#x,+%d) vs [%#x,+%d)", ErrOverlap, start, count, x.start, x.count)
			}
			if start < x.start {
				x = x.l
				rightmost = false
			} else {
				x = x.r
			}
		}
	}
	z := m.newNode(start, count, val, y)
	switch {
	case y == m.nilNode:
		m.root = z
	case start < y.start:
		y.l = z
	default:
		y.r = z
	}
	m.size++
	descent := st.Visits
	m.insertFixup(z, &st)
	if rightmost {
		// z is the new maximum. The fixup can only have rotated left at
		// spine nodes, each taking one off the spine.
		m.max = z
		m.spine = descent + 1 - st.Rotations
	} else {
		m.spine = 0
	}
	return st, nil
}

// newNode returns a red node under parent p, reusing a deleted node when
// there is one and otherwise taking the next node of the newest chunk.
func (m *Map) newNode(start, count, val uint64, p *node) *node {
	z := m.free
	if z != nil {
		m.free = z.r
	} else {
		if len(m.chunk) == 0 {
			m.chunkLen = min(max(1, 2*m.chunkLen), maxChunk)
			m.chunk = make([]node, m.chunkLen)
		}
		z = &m.chunk[0]
		m.chunk = m.chunk[1:]
	}
	*z = node{start: start, count: count, val: val, c: red, l: m.nilNode, r: m.nilNode, p: p}
	return z
}

func (m *Map) leftRotate(x *node, st *OpStats) {
	st.Rotations++
	y := x.r
	x.r = y.l
	if y.l != m.nilNode {
		y.l.p = x
	}
	y.p = x.p
	switch {
	case x.p == m.nilNode:
		m.root = y
	case x == x.p.l:
		x.p.l = y
	default:
		x.p.r = y
	}
	y.l = x
	x.p = y
}

func (m *Map) rightRotate(x *node, st *OpStats) {
	st.Rotations++
	y := x.l
	x.l = y.r
	if y.r != m.nilNode {
		y.r.p = x
	}
	y.p = x.p
	switch {
	case x.p == m.nilNode:
		m.root = y
	case x == x.p.r:
		x.p.r = y
	default:
		x.p.l = y
	}
	y.r = x
	x.p = y
}

func (m *Map) insertFixup(z *node, st *OpStats) {
	for z.p.c == red {
		st.Visits++
		if z.p == z.p.p.l {
			y := z.p.p.r
			if y.c == red {
				z.p.c = black
				y.c = black
				z.p.p.c = red
				z = z.p.p
			} else {
				if z == z.p.r {
					z = z.p
					m.leftRotate(z, st)
				}
				z.p.c = black
				z.p.p.c = red
				m.rightRotate(z.p.p, st)
			}
		} else {
			y := z.p.p.l
			if y.c == red {
				z.p.c = black
				y.c = black
				z.p.p.c = red
				z = z.p.p
			} else {
				if z == z.p.l {
					z = z.p
					m.rightRotate(z, st)
				}
				z.p.c = black
				z.p.p.c = red
				m.leftRotate(z.p.p, st)
			}
		}
	}
	m.root.c = black
}

// Lookup translates key (a guest frame) through the interval containing
// it. It reports the mapped value for that exact frame, the interval's
// start and count (so callers can batch-translate contiguous runs), and
// whether the frame is mapped.
func (m *Map) Lookup(key uint64) (val, runStart, runCount uint64, st OpStats, ok bool) {
	x := m.root
	for x != m.nilNode {
		st.Visits++
		switch {
		case key < x.start:
			x = x.l
		case key >= x.end():
			x = x.r
		default:
			return x.val + (key - x.start), x.start, x.count, st, true
		}
	}
	return 0, 0, 0, st, false
}

// Delete removes the interval whose start is exactly start.
func (m *Map) Delete(start uint64) (OpStats, error) {
	var st OpStats
	z := m.finger
	if z != nil && z.start == start {
		// The descent would visit exactly the finger's ancestors.
		st.Visits = m.fingerDepth
	} else {
		z = m.root
		for z != m.nilNode && z.start != start {
			st.Visits++
			if start < z.start {
				z = z.l
			} else {
				z = z.r
			}
		}
		if z == m.nilNode {
			m.finger = nil
			return st, fmt.Errorf("rbtree: no interval starting at %#x", start)
		}
	}
	m.size--
	depth := st.Visits // nodes above z

	// The new finger is z's successor: the leftmost node of the child
	// spliced into z's place, the nearest ancestor holding z in its left
	// subtree, or the y that takes z's place. below records whether it
	// sits at or under x, the node the fixup starts from.
	y := z
	yOrig := y.c
	var x *node
	below := false
	switch {
	case z.l == m.nilNode:
		x = z.r
		if x != m.nilNode {
			m.finger, m.fingerDepth = x, depth
			for m.finger.l != m.nilNode {
				m.finger = m.finger.l
				m.fingerDepth++
			}
			below = true
		} else {
			m.ancestorFinger(z, depth)
		}
		m.transplant(z, z.r)
	case z.r == m.nilNode:
		x = z.l
		m.ancestorFinger(z, depth)
		m.transplant(z, z.l)
	default:
		y = m.minimum(z.r, &st)
		m.finger, m.fingerDepth = y, depth
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
		m.deleteFixup(x, below, &st)
	}
	m.spine = 0
	*z = node{r: m.free}
	m.free = z
	return st, nil
}

// ancestorFinger sets the finger to z's nearest ancestor that holds z in
// its left subtree, or drops it when z is the maximum. depth is z's.
// Nodes above z keep their depth when z is spliced out.
func (m *Map) ancestorFinger(z *node, depth int) {
	for c := z; c.p != m.nilNode; c = c.p {
		depth--
		if c == c.p.l {
			m.finger, m.fingerDepth = c.p, depth
			return
		}
	}
	m.finger = nil
}

func (m *Map) transplant(u, v *node) {
	switch {
	case u.p == m.nilNode:
		m.root = v
	case u == u.p.l:
		u.p.l = v
	default:
		u.p.r = v
	}
	v.p = u.p
}

func (m *Map) minimum(x *node, st *OpStats) *node {
	for x.l != m.nilNode {
		st.Visits++
		x = x.l
	}
	return x
}

// deleteFixup restores the red-black properties from x upward, keeping
// the finger's depth exact. The finger starts at or under x (below) or on
// the path above it, and stays so: x only climbs to its parent. A
// rotation at x.p moves x, its subtree and x.p itself down one level and
// leaves every node above x.p where it was, so it deepens the finger when
// the finger is x.p or below. Rotations at the sibling w move only w's
// subtree, which never holds the finger.
func (m *Map) deleteFixup(x *node, below bool, st *OpStats) {
	sink := func() {
		if below || x.p == m.finger {
			m.fingerDepth++
		}
	}
	for x != m.root && x.c == black {
		st.Visits++
		if x == x.p.l {
			w := x.p.r
			if w.c == red {
				w.c = black
				x.p.c = red
				sink()
				m.leftRotate(x.p, st)
				w = x.p.r
			}
			if w.l.c == black && w.r.c == black {
				w.c = red
				below = below || x.p == m.finger
				x = x.p
			} else {
				if w.r.c == black {
					w.l.c = black
					w.c = red
					m.rightRotate(w, st)
					w = x.p.r
				}
				w.c = x.p.c
				x.p.c = black
				w.r.c = black
				sink()
				m.leftRotate(x.p, st)
				x = m.root
			}
		} else {
			w := x.p.l
			if w.c == red {
				w.c = black
				x.p.c = red
				sink()
				m.rightRotate(x.p, st)
				w = x.p.l
			}
			if w.r.c == black && w.l.c == black {
				w.c = red
				below = below || x.p == m.finger
				x = x.p
			} else {
				if w.l.c == black {
					w.r.c = black
					w.c = red
					m.leftRotate(w, st)
					w = x.p.l
				}
				w.c = x.p.c
				x.p.c = black
				w.l.c = black
				sink()
				m.rightRotate(x.p, st)
				x = m.root
			}
		}
	}
	x.c = black
}

// InOrder visits intervals in ascending start order until fn returns false.
func (m *Map) InOrder(fn func(start, count, val uint64) bool) {
	var walk func(n *node) bool
	walk = func(n *node) bool {
		if n == m.nilNode {
			return true
		}
		if !walk(n.l) {
			return false
		}
		if !fn(n.start, n.count, n.val) {
			return false
		}
		return walk(n.r)
	}
	walk(m.root)
}

// Validate checks every red-black and interval invariant: BST order,
// disjoint intervals, black root, no red node with a red child, and equal
// black height on every root-to-leaf path; while the spine length is
// known, that it and the cached maximum match a walk of the right spine;
// and while the finger is set, that a walk up its parents reaches the
// root after exactly its cached depth. It returns the first violation.
func (m *Map) Validate() error {
	if f := m.finger; f != nil {
		d, x := 0, f
		for x.p != nil && x.p != m.nilNode {
			d++
			x = x.p
		}
		if x != m.root || d != m.fingerDepth {
			return fmt.Errorf("rbtree: finger %#x cached at depth %d, parent walk finds %d (reaches root: %v)",
				f.start, m.fingerDepth, d, x == m.root)
		}
	}
	if m.spine > 0 {
		n, last := 0, m.nilNode
		for x := m.root; x != m.nilNode; x = x.r {
			n++
			last = x
		}
		if n != m.spine || last != m.max {
			return fmt.Errorf("rbtree: cached spine %d ending at %#x, walk finds %d ending at %#x",
				m.spine, m.max.start, n, last.start)
		}
	}
	if m.root.c != black {
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

func (m *Map) blackHeight(n *node) (int, error) {
	if n == m.nilNode {
		return 1, nil
	}
	if n.c == red && (n.l.c == red || n.r.c == red) {
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
	if n.c == black {
		lh++
	}
	return lh, nil
}

// Height reports the tree's actual height (diagnostics; O(n)).
func (m *Map) Height() int {
	var h func(n *node) int
	h = func(n *node) int {
		if n == m.nilNode {
			return 0
		}
		l, r := h(n.l), h(n.r)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return h(m.root)
}
