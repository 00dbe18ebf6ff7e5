package pagetable

import "fmt"

// Top-level (PML4) slot sharing is the mechanism behind SMARTMAP
// (Brightwell et al., SC'08), Kitten's local-process sharing facility:
// process A's PML4 slot k is pointed at the subtree under process B's
// slot 0, giving A a live, zero-copy window onto B's entire address space
// at virtual offset k<<39.
//
// A shared slot is a borrowed subtree: the borrower must never mutate it.
// Map, MapRun, MapList and Unmap reject addresses under shared slots.
//
// The borrowed PDPT node counts its borrowers (table.lent), and the
// source never unlinks a lent node, even when an unmap empties it. The
// window thus keeps following the source's slot through an empty-and-
// refill, and a freed node recycled elsewhere in the source can never be
// one a borrower still points at.

// SlotOf reports the top-level slot index covering va.
func SlotOf(va VA) int { return index(va, 3) }

// SlotBase reports the first virtual address of top-level slot s.
func SlotBase(s int) VA { return VA(uint64(s) << 39) }

// ShareSlot points this table's top-level slot dstSlot at the subtree
// under src's top-level slot srcSlot. The source slot must be populated
// (an interior table, not a huge leaf) and the destination slot empty.
func (t *Table) ShareSlot(dstSlot int, src *Table, srcSlot int) error {
	if dstSlot < 0 || dstSlot > 511 || srcSlot < 0 || srcSlot > 511 {
		return fmt.Errorf("pagetable: slot out of range")
	}
	se := src.root.ents[srcSlot]
	if se&entPresent == 0 || se&entLeaf != 0 {
		return fmt.Errorf("pagetable: source slot %d has no shareable subtree", srcSlot)
	}
	if t.root.ents[dstSlot]&entPresent != 0 {
		return fmt.Errorf("pagetable: destination slot %d already in use", dstSlot)
	}
	sub := src.root.child(srcSlot)
	sub.lent++
	t.root.ents[dstSlot] = entPresent
	t.root.setChild(dstSlot, sub)
	t.root.used++
	if t.shared == nil {
		t.shared = make(map[int]bool)
	}
	t.shared[dstSlot] = true
	return nil
}

// UnshareSlot detaches a previously shared top-level slot. The borrowed
// subtree is untouched — it still belongs to the source table — apart
// from its borrower count. A node the source emptied while it was lent
// stays linked in the source until an unmap under that slot empties it
// again.
func (t *Table) UnshareSlot(dstSlot int) error {
	if !t.shared[dstSlot] {
		return fmt.Errorf("pagetable: slot %d is not shared", dstSlot)
	}
	t.root.next[dstSlot].lent--
	t.root.ents[dstSlot] = 0
	t.root.next[dstSlot] = nil
	t.root.used--
	delete(t.shared, dstSlot)
	return nil
}

// guardShared rejects mutation under a shared slot.
func (t *Table) guardShared(va VA, op string) error {
	if t.shared[SlotOf(va)] {
		return fmt.Errorf("pagetable: %s at %#x would mutate a shared (SMARTMAP) slot", op, uint64(va))
	}
	return nil
}
