package xpmem_test

import (
	"testing"

	"xemem/internal/core"
	"xemem/internal/extent"
	"xemem/internal/linuxos"
	"xemem/internal/mem"
	"xemem/internal/pagetable"
	"xemem/internal/pisces"
	"xemem/internal/proc"
	"xemem/internal/sim"
	"xemem/internal/xpmem"
)

// serveNode is a two-enclave topology — Linux management enclave with the
// name server plus one Kitten co-kernel — so attaches cross enclaves and
// run the owner-side serve path (Fig. 3 steps 5–6: walk, translate, pin).
// Single-enclave attaches use SMARTMAP / local mappings and never reach
// it; see xpmem_test.go.
type serveNode struct {
	w       *sim.World
	pm      *mem.PhysMem
	expSess *xpmem.Session // Kitten exporter process session
	attSess *xpmem.Session // Linux attacher process session
	heap    *proc.Region
}

func newServeNode(t *testing.T) *serveNode {
	t.Helper()
	w := sim.NewWorld(42)
	pm := mem.NewPhysMem("node0", 1<<30)
	linux := linuxos.New("linux", w, pm.Zone(0), proc.HostDomain{Mem: pm}, 4)
	lmod := core.New("linux", w, linux, true)
	lmod.Start()
	ck, err := pisces.CreateCoKernel("kitten0", w, pm, linux.Zone(), 64<<20, lmod)
	if err != nil {
		t.Fatal(err)
	}
	kp, heap, err := ck.OS.NewProcess("exporter", 256)
	if err != nil {
		t.Fatal(err)
	}
	lp := linux.NewProcess("attacher", 1)
	auditAtEnd(t, w, pm)
	return &serveNode{
		w:       w,
		pm:      pm,
		expSess: xpmem.NewSession(ck.Module, kp),
		attSess: xpmem.NewSession(lmod, lp),
		heap:    heap,
	}
}

// auditAtEnd registers pm's audit on w and, when the test ends without
// having failed, runs the world-end audit over everything w holds.
func auditAtEnd(t *testing.T, w *sim.World, pm *mem.PhysMem) {
	w.AddAudit("phys/"+pm.Name(), pm.Audit)
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		if err := w.Audit(); err != nil {
			t.Errorf("world-end %v", err)
		}
	})
}

// waitPinned waits, bounded, until the exporter's heap page has want pins:
// the owner releases a detached window's pins when the detach message
// arrives, after Detach has returned to the attacher.
func (n *serveNode) waitPinned(t *testing.T, a *sim.Actor, page uint64, want int) {
	t.Helper()
	pg, _ := n.heap.Backing.Slice(page, 1)
	f := pg.Extents()[0].First
	if !a.PollDeadline(5*sim.Microsecond, a.Now()+sim.Millisecond, func() bool { return n.pm.Pinned(f) == want }) {
		t.Errorf("page %d: %d pins, want %d", page, n.pm.Pinned(f), want)
	}
}

// expectRead reads len(want) bytes at va through sess and compares them.
func expectRead(t *testing.T, sess *xpmem.Session, va pagetable.VA, want, what string) {
	t.Helper()
	got := make([]byte, len(want))
	if _, err := sess.Read(va, got); err != nil {
		t.Errorf("%s: %v", what, err)
		return
	}
	if string(got) != want {
		t.Errorf("%s reads %q, want %q", what, got, want)
	}
}

// TestServeAliasesExporterFrames: every cross-enclave attach is served by
// walking the exporter's page tables, so two live attaches of one window
// and a sub-window all alias the exporter's frames, and each detach
// releases exactly the pins its serve took.
func TestServeAliasesExporterFrames(t *testing.T) {
	n := newServeNode(t)
	const bytes = 16 * extent.PageSize
	rw := xpmem.PermRead | xpmem.PermWrite
	n.w.Spawn("driver", func(a *sim.Actor) {
		segid, err := n.expSess.Make(a, n.heap.Base, bytes, rw, "")
		if err != nil {
			t.Error(err)
			return
		}
		apid, err := n.attSess.GetWith(a, segid, xpmem.GetOpts{Perm: rw})
		if err != nil {
			t.Error(err)
			return
		}
		va1, err := n.attSess.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: bytes, Perm: rw})
		if err != nil {
			t.Error(err)
			return
		}
		va2, err := n.attSess.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: bytes, Perm: rw})
		if err != nil {
			t.Error(err)
			return
		}
		if va1 == va2 {
			t.Error("two live attaches share one virtual address")
		}
		n.waitPinned(t, a, 0, 2)

		// Exporter → both attaches.
		if _, err := n.expSess.Write(n.heap.Base+5, []byte("from the exporter")); err != nil {
			t.Error(err)
			return
		}
		expectRead(t, n.attSess, va1+5, "from the exporter", "first attach")
		expectRead(t, n.attSess, va2+5, "from the exporter", "second attach")

		// Each attach → the exporter and the other attach.
		if _, err := n.attSess.Write(va2+extent.PageSize, []byte("written via va2")); err != nil {
			t.Error(err)
			return
		}
		expectRead(t, n.expSess, n.heap.Base+extent.PageSize, "written via va2", "exporter")
		expectRead(t, n.attSess, va1+extent.PageSize, "written via va2", "first attach")
		if _, err := n.attSess.Write(va1+2*extent.PageSize, []byte("written via va1")); err != nil {
			t.Error(err)
			return
		}
		expectRead(t, n.expSess, n.heap.Base+2*extent.PageSize, "written via va1", "exporter")
		expectRead(t, n.attSess, va2+2*extent.PageSize, "written via va1", "second attach")

		// A sub-window attach reads the exporter's bytes at its offset.
		const off = 4 * extent.PageSize
		if _, err := n.expSess.Write(n.heap.Base+off+7, []byte("sub-window")); err != nil {
			t.Error(err)
			return
		}
		va3, err := n.attSess.AttachWith(a, segid, apid, xpmem.AttachOpts{Offset: off, Bytes: 4 * extent.PageSize, Perm: xpmem.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		expectRead(t, n.attSess, va3+7, "sub-window", "sub-window attach")
		n.waitPinned(t, a, 0, 2)
		n.waitPinned(t, a, 4, 3)

		// Each detach drops exactly its own pins.
		if err := n.attSess.Detach(a, va3); err != nil {
			t.Error(err)
			return
		}
		n.waitPinned(t, a, 4, 2)
		n.waitPinned(t, a, 0, 2)
		if err := n.attSess.Detach(a, va2); err != nil {
			t.Error(err)
			return
		}
		n.waitPinned(t, a, 0, 1)
		expectRead(t, n.attSess, va1+5, "from the exporter", "surviving attach")
		if err := n.attSess.Detach(a, va1); err != nil {
			t.Error(err)
			return
		}
		n.waitPinned(t, a, 0, 0)
		n.waitPinned(t, a, 4, 0)
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestReExportAfterRemove: after Remove, re-exporting the same range
// gets a new segid, and a fresh attach walks the exporter's page tables
// again and reads the bytes written since the first attach.
func TestReExportAfterRemove(t *testing.T) {
	n := newServeNode(t)
	const bytes = 8 * extent.PageSize
	n.w.Spawn("driver", func(a *sim.Actor) {
		attach := func(segid xpmem.Segid) (pagetable.VA, bool) {
			apid, err := n.attSess.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
			if err != nil {
				t.Error(err)
				return 0, false
			}
			va, err := n.attSess.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: bytes, Perm: xpmem.PermRead})
			if err != nil {
				t.Error(err)
				return 0, false
			}
			return va, true
		}
		if _, err := n.expSess.Write(n.heap.Base, []byte("old bytes")); err != nil {
			t.Error(err)
			return
		}
		segid, err := n.expSess.Make(a, n.heap.Base, bytes, xpmem.PermRead|xpmem.PermWrite, "")
		if err != nil {
			t.Error(err)
			return
		}
		va, ok := attach(segid)
		if !ok {
			return
		}
		expectRead(t, n.attSess, va, "old bytes", "first export")
		if err := n.attSess.Detach(a, va); err != nil {
			t.Error(err)
			return
		}
		n.waitPinned(t, a, 0, 0)
		if err := n.expSess.Remove(a, segid); err != nil {
			t.Error(err)
			return
		}

		if _, err := n.expSess.Write(n.heap.Base, []byte("new bytes")); err != nil {
			t.Error(err)
			return
		}
		segid2, err := n.expSess.Make(a, n.heap.Base, bytes, xpmem.PermRead|xpmem.PermWrite, "")
		if err != nil {
			t.Error(err)
			return
		}
		if segid2 == segid {
			t.Error("re-export reused the removed segid")
		}
		va2, ok := attach(segid2)
		if !ok {
			return
		}
		expectRead(t, n.attSess, va2, "new bytes", "re-export")
		n.waitPinned(t, a, 0, 1)
		if err := n.attSess.Detach(a, va2); err != nil {
			t.Error(err)
			return
		}
		n.waitPinned(t, a, 0, 0)
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}
}
