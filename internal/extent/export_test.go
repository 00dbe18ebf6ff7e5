package extent

import "fmt"

// Page returns the frame of the i-th page of the list.
func (l List) Page(i uint64) (PFN, error) {
	if i >= l.pages {
		return 0, fmt.Errorf("extent: page %d out of range (%d pages)", i, l.pages)
	}
	for _, e := range l.exts {
		if i < e.Count {
			return e.First + PFN(i), nil
		}
		i -= e.Count
	}
	panic("extent: inconsistent page count") // unreachable if pages is consistent
}

// Equal reports whether two lists map the same frames in the same order.
// Coalescing is canonical, so structural equality suffices.
func (l List) Equal(other List) bool {
	if l.pages != other.pages || len(l.exts) != len(other.exts) {
		return false
	}
	for i, e := range l.exts {
		if other.exts[i] != e {
			return false
		}
	}
	return true
}
