package xpmem_test

import (
	"testing"

	"xemem/internal/core"
	"xemem/internal/extent"
	"xemem/internal/linuxos"
	"xemem/internal/mem"
	"xemem/internal/proc"
	"xemem/internal/sim"
	"xemem/internal/xpmem"
)

// TestTable1APISurface exercises every Table 1 operation through the
// Session veneer — the backwards-compatibility artifact of §4.1 — within
// one enclave (the protocol paths are covered by the core and palacios
// integration tests).
func TestTable1APISurface(t *testing.T) {
	w := sim.NewWorld(1)
	pm := mem.NewPhysMem("node", 1<<30)
	l := linuxos.New("linux", w, pm.Zone(0), proc.HostDomain{Mem: pm}, 2)
	m := core.New("linux", w, l, true)
	m.Start()

	expProc := l.NewProcess("exporter", 1)
	attProc := l.NewProcess("attacher", 1)
	exp := xpmem.NewSession(m, expProc)
	att := xpmem.NewSession(m, attProc)

	if exp.Process() != expProc || exp.Module() != m {
		t.Fatal("session accessors broken")
	}

	region, err := l.Alloc(expProc, "buf", 16, true)
	if err != nil {
		t.Fatal(err)
	}

	w.Spawn("api", func(a *sim.Actor) {
		// xpmem_make + name publication.
		segid, err := exp.Make(a, region.Base, 16*extent.PageSize, xpmem.PermRead|xpmem.PermWrite, "table1")
		if err != nil {
			t.Error(err)
			return
		}
		// Discovery.
		found, err := att.Lookup(a, "table1")
		if err != nil || found != segid {
			t.Errorf("lookup = %d, %v", found, err)
			return
		}
		// xpmem_get.
		apid, err := att.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead | xpmem.PermWrite})
		if err != nil {
			t.Error(err)
			return
		}
		// xpmem_attach with an offset.
		va, err := att.AttachWith(a, segid, apid, xpmem.AttachOpts{Offset: 4 * extent.PageSize, Bytes: 4 * extent.PageSize, Perm: xpmem.PermRead | xpmem.PermWrite})
		if err != nil {
			t.Error(err)
			return
		}
		// Data visibility through Session read/write helpers.
		if _, err := exp.Write(region.Base+4*extent.PageSize, []byte("table one")); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 9)
		if _, err := att.Read(va, buf); err != nil {
			t.Error(err)
			return
		}
		if string(buf) != "table one" {
			t.Errorf("read %q", buf)
			return
		}
		// xpmem_detach, xpmem_release, xpmem_remove.
		if err := att.Detach(a, va); err != nil {
			t.Error(err)
		}
		if err := att.Release(a, segid, apid); err != nil {
			t.Error(err)
		}
		if err := exp.Remove(a, segid); err != nil {
			t.Error(err)
		}
		// Removed segments are no longer discoverable or gettable.
		if _, err := att.Lookup(a, "table1"); err == nil {
			t.Error("removed segment still discoverable")
		}
		if _, err := att.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead}); err == nil {
			t.Error("removed segment still gettable")
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}
