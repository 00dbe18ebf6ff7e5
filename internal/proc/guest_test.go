package proc_test

import (
	"bytes"
	"math/rand"
	"testing"

	"xemem"
	"xemem/internal/extent"
	"xemem/internal/pagetable"
)

// TestGuestReadMatchesPageReads reads a guest (Palacios) process's
// buffer, whose guest-physical frames are not contiguous, in one access
// and page by page: the whole-buffer read translates every leaf's frames
// through the VM memory map at once and must return the same bytes, the
// ones in the host frames the map names.
func TestGuestReadMatchesPageReads(t *testing.T) {
	node := xemem.NewNode(xemem.NodeConfig{Seed: 3, MemBytes: 1 << 30})
	// On this node the first VM's RAM lands on host frames numbered like
	// its guest frames; the second VM's does not, so an access that
	// skipped the translation would read the wrong host frames.
	if _, err := node.BootVM("pad", 16<<20, 1); err != nil {
		t.Fatal(err)
	}
	vm, err := node.BootVM("vm", 128<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, p := node.GuestProcess(vm, "reader", 0)
	const pages = 1100 // more than two 512-page scatter runs
	r, err := xemem.AllocLinux(vm.Guest, p, "buf", pages*extent.PageSize, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Backing.Len() < 2 {
		t.Fatalf("guest buffer backed by %d extent(s); the test needs non-contiguous guest frames", r.Backing.Len())
	}
	data := make([]byte, pages*extent.PageSize)
	rand.New(rand.NewSource(9)).Read(data)
	if _, err := p.AS.Write(r.Base, data); err != nil {
		t.Fatal(err)
	}
	// Start and end mid-page, so the first and last leaves are partial.
	const off, n = 123, (pages-1)*extent.PageSize - 45
	whole := make([]byte, n)
	if _, err := p.AS.Read(r.Base+off, whole); err != nil {
		t.Fatal(err)
	}
	paged := make([]byte, 0, n)
	for va := r.Base + off; va < r.Base+off+n; {
		m := min(extent.PageSize-va.Offset(), uint64(r.Base+off+n-va))
		buf := make([]byte, m)
		if _, err := p.AS.Read(va, buf); err != nil {
			t.Fatal(err)
		}
		paged = append(paged, buf...)
		va += pagetable.VA(m)
	}
	if !bytes.Equal(whole, paged) || !bytes.Equal(whole, data[off:off+n]) {
		t.Fatal("one guest read differs from page-by-page reads")
	}
	hostList, err := p.AS.Domain().TranslateList(r.Backing)
	if err != nil {
		t.Fatal(err)
	}
	host := make([]byte, n)
	if err := node.Phys().ReadAt(hostList, off, host); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole, host) {
		t.Fatal("guest read differs from the host frames the VM memory map names")
	}
}
