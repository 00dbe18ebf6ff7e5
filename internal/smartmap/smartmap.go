// Package smartmap implements SMARTMAP (Brightwell et al., SC'08), the
// page-table-slot-sharing facility Kitten uses for shared memory between
// *local* processes (§2, §4.3 of the XEMEM paper).
//
// Every registered process receives a rank r; attaching to process B from
// process A points one of A's top-level page-table slots at B's slot-0
// subtree, so B's entire address space appears in A at virtual offset
// r<<39 — a coarse-grained, O(1) mapping with no per-page work. The XEMEM
// paper keeps SMARTMAP for Kitten-local sharing while adding the dynamic
// per-region protocol for cross-enclave sharing, because slot sharing
// cannot cross heterogeneous address-space managers (§3.3); this package
// is that local fast path, which the root package's
// TestSmartmapCheaperThanDynamicAttach compares with the protocol.
package smartmap

import (
	"fmt"

	"xemem/internal/pagetable"
)

// Space manages SMARTMAP ranks for the processes of one Kitten instance.
type Space struct {
	ranks map[*pagetable.Table]int
	next  int
	// refs counts live windows per (borrower, slot) so the slot is
	// unshared only when the last window is detached.
	refs map[refKey]int
}

type refKey struct {
	dst  *pagetable.Table
	slot int
}

// New returns an empty SMARTMAP space.
func New() *Space {
	return &Space{
		ranks: make(map[*pagetable.Table]int),
		next:  1, // rank 0 would alias the process's own slot 0
		refs:  make(map[refKey]int),
	}
}

// Register assigns a rank to a process's page table. A Kitten instance
// supports 511 ranked processes (slots 1–511).
func (s *Space) Register(pt *pagetable.Table) (int, error) {
	if r, ok := s.ranks[pt]; ok {
		return r, nil
	}
	if s.next > 511 {
		return 0, fmt.Errorf("smartmap: out of top-level slots")
	}
	r := s.next
	s.next++
	s.ranks[pt] = r
	return r, nil
}

// Window translates a source-process virtual address into the borrower's
// window for a process of the given rank. The source address must live in
// the source's slot 0 (user addresses below 512 GB), which is where Kitten
// lays out every process.
func Window(rank int, srcVA pagetable.VA) (pagetable.VA, error) {
	if pagetable.SlotOf(srcVA) != 0 {
		return 0, fmt.Errorf("smartmap: source address %#x outside slot 0", uint64(srcVA))
	}
	return pagetable.SlotBase(rank) + srcVA, nil
}

// Attach gives dst a window onto src's address space and returns the
// borrower-side address corresponding to srcVA. Repeated attachments to
// the same source share the slot and are reference-counted.
func (s *Space) Attach(dst, src *pagetable.Table, srcVA pagetable.VA) (pagetable.VA, error) {
	rank, ok := s.ranks[src]
	if !ok {
		return 0, fmt.Errorf("smartmap: source process not registered")
	}
	va, err := Window(rank, srcVA)
	if err != nil {
		return 0, err
	}
	key := refKey{dst: dst, slot: rank}
	if s.refs[key] == 0 {
		if err := dst.ShareSlot(rank, src, 0); err != nil {
			return 0, err
		}
	}
	s.refs[key]++
	return va, nil
}

// Detach releases one window previously created by Attach, identified by
// any address within it. The slot is unshared when its last window goes.
func (s *Space) Detach(dst *pagetable.Table, winVA pagetable.VA) error {
	slot := pagetable.SlotOf(winVA)
	key := refKey{dst: dst, slot: slot}
	if s.refs[key] == 0 {
		return fmt.Errorf("smartmap: %#x is not an attached window", uint64(winVA))
	}
	s.refs[key]--
	if s.refs[key] == 0 {
		delete(s.refs, key)
		return dst.UnshareSlot(slot)
	}
	return nil
}
