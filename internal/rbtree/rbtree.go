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
// descent of the next maximum insert counts it again. Deleted nodes go on
// a free list that later inserts take from before allocating.
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
	nilNode *node // shared sentinel leaf
	root    *node
	size    int
	max     *node // rightmost node; meaningful only while spine > 0
	spine   int   // nodes on the path from root to max; 0 means unknown
	free    *node // deleted nodes, zeroed, linked through r
}

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
// there is one.
func (m *Map) newNode(start, count, val uint64, p *node) *node {
	z := m.free
	if z != nil {
		m.free = z.r
	} else {
		z = new(node)
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
		m.deleteFixup(x, &st)
	}
	m.spine = 0
	*z = node{r: m.free}
	m.free = z
	return st, nil
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

func (m *Map) deleteFixup(x *node, st *OpStats) {
	for x != m.root && x.c == black {
		st.Visits++
		if x == x.p.l {
			w := x.p.r
			if w.c == red {
				w.c = black
				x.p.c = red
				m.leftRotate(x.p, st)
				w = x.p.r
			}
			if w.l.c == black && w.r.c == black {
				w.c = red
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
				m.leftRotate(x.p, st)
				x = m.root
			}
		} else {
			w := x.p.l
			if w.c == red {
				w.c = black
				x.p.c = red
				m.rightRotate(x.p, st)
				w = x.p.l
			}
			if w.r.c == black && w.l.c == black {
				w.c = red
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
// black height on every root-to-leaf path; and, while the spine length is
// known, that it and the cached maximum match a walk of the right spine.
// It returns the first violation.
func (m *Map) Validate() error {
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
