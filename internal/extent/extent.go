// Package extent represents page-frame lists as runs of contiguous frames.
//
// Page-frame lists are the payload of the XEMEM attachment protocol
// (Fig. 3 of the paper): the exporting enclave walks its page tables and
// produces the list of physical frames backing a segment, and the
// attaching enclave maps that list into a process address space.
// Representing the list as (first, count) extents instead of one entry per
// page is what real implementations ship over kernel channels, and it is
// what makes the per-page cost accounting of the simulation affordable: a
// physically contiguous 1 GB co-kernel region is a single extent even
// though it spans 262,144 frames.
package extent

import (
	"fmt"
	"strings"
)

// PageSize is the base page granularity of every frame list (4 KB).
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// PFN is a page frame number in some physical address domain — host
// physical for native enclaves, guest physical inside a Palacios VM.
type PFN uint64

// Extent is a run of Count physically contiguous frames starting at First.
type Extent struct {
	First PFN
	Count uint64
}

// End reports the first frame past the extent.
func (e Extent) End() PFN { return e.First + PFN(e.Count) }

// Bytes reports the extent's size in bytes.
func (e Extent) Bytes() uint64 { return e.Count * PageSize }

// Contains reports whether the extent covers frame f.
func (e Extent) Contains(f PFN) bool { return f >= e.First && f < e.End() }

// String formats the extent as "[first,+count)".
func (e Extent) String() string { return fmt.Sprintf("[%#x,+%d)", uint64(e.First), e.Count) }

// List is an ordered page-frame list. The order is the mapping order (the
// i-th page of the region is the i-th frame of the list), so a List is not
// necessarily sorted by frame number.
type List struct {
	exts  []Extent
	pages uint64
}

// FromExtents builds a list from pre-built extents (zero-count extents are
// dropped; adjacent extents are coalesced).
func FromExtents(exts ...Extent) List {
	var l List
	for _, e := range exts {
		l.Append(e.First, e.Count)
	}
	return l
}

// Append adds a run of count frames starting at first, merging with the
// tail extent when physically adjacent.
func (l *List) Append(first PFN, count uint64) {
	if count == 0 {
		return
	}
	l.pages += count
	if n := len(l.exts); n > 0 && l.exts[n-1].End() == first {
		l.exts[n-1].Count += count
		return
	}
	l.exts = append(l.exts, Extent{First: first, Count: count})
}

// Reset empties l but keeps its storage, so a list rebuilt on every call
// allocates only when it outgrows its largest earlier self. Copies of l
// share that storage and see it overwritten by later appends: reset only
// a list no one else holds.
func (l *List) Reset() {
	l.exts = l.exts[:0]
	l.pages = 0
}

// AppendList appends every extent of other, coalescing at the seam.
func (l *List) AppendList(other List) {
	for _, e := range other.exts {
		l.Append(e.First, e.Count)
	}
}

// Pages reports the total number of frames in the list.
func (l List) Pages() uint64 { return l.pages }

// Bytes reports the total size in bytes.
func (l List) Bytes() uint64 { return l.pages * PageSize }

// Len reports the number of extents (the wire-size driver).
func (l List) Len() int { return len(l.exts) }

// Extents returns the underlying extents. The caller must not modify them.
func (l List) Extents() []Extent { return l.exts }

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

// Slice returns the sub-list covering pages [off, off+n) of the region.
// It is how partial attachments (xpmem_attach with offset/size) carve the
// exported frame list.
func (l List) Slice(off, n uint64) (List, error) {
	if off+n > l.pages {
		return List{}, fmt.Errorf("extent: slice [%d,+%d) exceeds %d pages", off, n, l.pages)
	}
	var out List
	skip := off
	need := n
	for _, e := range l.exts {
		if need == 0 {
			break
		}
		if skip >= e.Count {
			skip -= e.Count
			continue
		}
		avail := e.Count - skip
		take := avail
		if take > need {
			take = need
		}
		out.Append(e.First+PFN(skip), take)
		skip = 0
		need -= take
	}
	return out, nil
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

// String renders a compact human-readable form.
func (l List) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d pages in %d extents:", l.pages, len(l.exts))
	for i, e := range l.exts {
		if i == 4 {
			fmt.Fprintf(&b, " …")
			break
		}
		fmt.Fprintf(&b, " %s", e)
	}
	return b.String()
}

// WireSize reports the modelled wire size of the list in bytes: an
// 8-byte header plus 16 bytes per extent. Channel implementations charge
// copy costs against this size.
func (l List) WireSize() int { return 8 + 16*len(l.exts) }
