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
	nilNode  *node // shared sentinel leaf
	root     *node
	size     int
	free     *node  // deleted nodes, zeroed, linked through r
	chunk    []node // unused nodes of the newest chunk
	chunkLen int    // length of the newest chunk
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
	y := m.nilNode
	for x := m.root; x != m.nilNode; {
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
	m.insertFixup(z, &st)
	return st, nil
}

// InsertRun inserts the n one-page intervals [start+i, start+i+1) →
// val+i in ascending order. It reports the summed OpStats of the calls
// Insert(start+i, 1, val+i) it replaces and, like them, stops at the
// first page that fails, whose work is in the sum. A run starting at or
// past the maximum's end takes a loop specialised to maximum inserts;
// any other run makes those calls.
func (m *Map) InsertRun(start, n, val uint64) (OpStats, error) {
	var st OpStats
	// The right spine: every node on it ends at or before the maximum's
	// end, so a key at or past that end overlaps none and goes right at
	// each. Its length is that key's descent, and the maximum its parent.
	spine, top := 0, m.nilNode
	for x := m.root; x != m.nilNode; x = x.r {
		spine++
		top = x
	}
	if top != m.nilNode && start < top.end() {
		for i := uint64(0); i < n; i++ {
			s, err := m.Insert(start+i, 1, val+i)
			st.Add(s)
			if err != nil {
				return st, err
			}
		}
		return st, nil
	}
	for i := uint64(0); i < n; i++ {
		z := m.newNode(start+i, 1, val+i, top)
		if top == m.nilNode {
			m.root = z
		} else {
			top.r = z
		}
		m.size++
		st.Visits += spine
		spine++
		top = z
		// insertFixup's parent-is-a-right-child branch: z and its
		// parent are on the spine, so z is never a left child and the
		// one rotation, at the grandparent, takes it off the spine.
		for z.p.c == red {
			st.Visits++
			g := z.p.p
			if u := g.l; u.c == red {
				z.p.c = black
				u.c = black
				g.c = red
				z = g
				continue
			}
			z.p.c = black
			g.c = red
			m.leftRotate(g, &st)
			spine--
			break
		}
		m.root.c = black
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
		if z == nil || z.start != start+i {
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
func (m *Map) find(start uint64) (*node, int, error) {
	z, depth := m.root, 0
	for z != m.nilNode && z.start != start {
		depth++
		if start < z.start {
			z = z.l
		} else {
			z = z.r
		}
	}
	if z == m.nilNode {
		return nil, depth, fmt.Errorf("rbtree: no interval starting at %#x", start)
	}
	return z, depth, nil
}

// finger is a node and its depth, the number of nodes above it: the
// visits of a descent to it. n is nil when there is none.
type finger struct {
	n     *node
	depth int
}

// remove splices z, at the given depth, out of the tree, rebalances, puts
// z on the free list, and returns z's in-order successor with its depth
// in the rebalanced tree.
func (m *Map) remove(z *node, depth int, st *OpStats) finger {
	m.size--
	// The successor is the child spliced into z's place (a node with one
	// child has a red leaf there), the nearest ancestor holding z in its
	// left subtree, or the y that takes z's place. below records whether
	// it sits at or under x, the node the fixup starts from.
	var f finger
	y := z
	yOrig := y.c
	var x *node
	below := false
	switch {
	case z.l == m.nilNode:
		x = z.r
		if x != m.nilNode {
			f, below = finger{x, depth}, true
		} else {
			f = m.ancestorFinger(z, depth)
		}
		m.transplant(z, z.r)
	case z.r == m.nilNode:
		x = z.l
		f = m.ancestorFinger(z, depth)
		m.transplant(z, z.l)
	default:
		y = m.minimum(z.r, st)
		f = finger{y, depth}
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
		m.deleteFixup(x, below, &f, st)
	}
	*z = node{r: m.free}
	m.free = z
	return f
}

// ancestorFinger returns z's nearest ancestor that holds z in its left
// subtree, or none when z is the maximum. depth is z's. Nodes above z
// keep their depth when z is spliced out.
func (m *Map) ancestorFinger(z *node, depth int) finger {
	for c := z; c.p != m.nilNode; c = c.p {
		depth--
		if c == c.p.l {
			return finger{c.p, depth}
		}
	}
	return finger{}
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
// the depth of the successor f exact. f starts at or under x (below) or
// on the path above it, and stays so: x only climbs to its parent. A
// rotation at x.p moves x, its subtree and x.p itself down one level and
// leaves every node above x.p where it was, so it deepens f when f is
// x.p or below. Rotations at the sibling w move only w's subtree, which
// never holds f.
func (m *Map) deleteFixup(x *node, below bool, f *finger, st *OpStats) {
	sink := func() {
		if below || x.p == f.n {
			f.depth++
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
				below = below || x.p == f.n
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
				below = below || x.p == f.n
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
// black height on every root-to-leaf path. It returns the first
// violation.
func (m *Map) Validate() error {
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
