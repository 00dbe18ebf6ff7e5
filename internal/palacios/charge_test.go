package palacios

import (
	"testing"

	"xemem/internal/core"
	"xemem/internal/extent"
	"xemem/internal/linuxos"
	"xemem/internal/mem"
	"xemem/internal/proc"
	"xemem/internal/rbtree"
	"xemem/internal/sim"
)

// refMap is the per-page reference for a VM's guest memory map: a
// standalone rb-tree on which every page is its own Insert or Delete
// call, charged at the VM's per-visit and per-rotation costs.
type refMap struct {
	rb  *rbtree.Map
	c   *sim.Costs
	err error
}

// newRefMap returns a reference map holding a VM's RAM entry as one
// interval, as Launch inserts it.
func newRefMap(w *sim.World, ramPages uint64) *refMap {
	r := &refMap{rb: rbtree.New(), c: w.Costs()}
	_, r.err = r.rb.Insert(uint64(ramBase), ramPages, 0)
	return r
}

// insert maps n pages from gpa one Insert call at a time and returns
// what importList charges for them.
func (r *refMap) insert(gpa, n, hpa uint64) sim.Time {
	var spent sim.Time
	for i := uint64(0); i < n && r.err == nil; i++ {
		var st rbtree.OpStats
		st, r.err = r.rb.Insert(gpa+i, 1, hpa+i)
		spent += sim.Time(st.Visits)*r.c.RBVisit + sim.Time(st.Rotations)*r.c.RBRotate
	}
	return spent
}

// remove unmaps n pages from gpa one Delete call at a time and returns
// what ReleaseImport charges for them.
func (r *refMap) remove(gpa, n uint64) sim.Time {
	var spent sim.Time
	for i := uint64(0); i < n && r.err == nil; i++ {
		var st rbtree.OpStats
		st, r.err = r.rb.Delete(gpa + i)
		spent += sim.Time(st.Visits+st.Rotations) * r.c.RBVisit
	}
	return spent
}

// TestLiveImportChargesPerPageReference: a live import (no memo entry)
// and its release charge exactly what one Insert and one Delete per page
// would on a map holding the same entries. Each world
// first imports a small multi-extent list it keeps, so the measured
// import and release run over more than the RAM entry; the measured list
// is one extent of a few hundred pages or several non-contiguous ones.
func TestLiveImportChargesPerPageReference(t *testing.T) {
	const ramBytes = 16 << 20
	kept := extent.FromExtents(extent.Extent{First: 0x9000, Count: 5}, extent.Extent{First: 0x9100, Count: 32})
	lists := map[string]extent.List{
		"single-extent": extent.FromExtents(extent.Extent{First: 0x10000, Count: 300}),
		"multi-extent": extent.FromExtents(
			extent.Extent{First: 0x20000, Count: 100},
			extent.Extent{First: 0x20400, Count: 1},
			extent.Extent{First: 0x21000, Count: 157},
			extent.Extent{First: 0x30000, Count: 42}),
	}
	for _, name := range []string{"single-extent", "multi-extent"} {
		host := lists[name]
		w := sim.NewWorld(7)
		pm := mem.NewPhysMem("node0", 256<<20)
		linux := linuxos.New("linux", w, pm.Zone(0), proc.HostDomain{Mem: pm}, 2)
		lmod := core.New("linux", w, linux, true)
		lmod.Start()
		vm, err := Launch("vm0", w, pm, linux.Zone(), ramBytes, 1, lmod)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefMap(w, ramBytes/extent.PageSize)
		var wantIns, wantRem, gotIns, gotRem sim.Time
		w.Spawn("driver", func(a *sim.Actor) {
			if _, err := vm.importList(a, kept); err != nil {
				t.Error(err)
				return
			}
			ref.insert(importBase, kept.Pages(), 0)
			gpa := importBase + kept.Pages()
			for _, e := range host.Extents() {
				wantIns += ref.insert(gpa, e.Count, uint64(e.First))
				gpa += e.Count
			}
			wantRem = ref.remove(importBase+kept.Pages(), host.Pages())

			start, before := a.Now(), vm.MapInsertTime
			guest, err := vm.importList(a, host)
			if err != nil {
				t.Error(err)
				return
			}
			gotIns = a.Now() - start
			if vm.MapInsertTime-before != gotIns {
				t.Errorf("MapInsertTime grew by %v, the actor was charged %v", vm.MapInsertTime-before, gotIns)
			}
			if rec := vm.imports[guest.Extents()[0].First]; rec == nil || rec.compressed {
				t.Errorf("import record %+v: want a live import", rec)
			}
			start = a.Now()
			if err := vm.ReleaseImport(a, guest); err != nil {
				t.Error(err)
				return
			}
			gotRem = a.Now() - start
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if ref.err != nil {
			t.Fatalf("%s: reference: %v", name, ref.err)
		}
		if gotIns != wantIns || gotRem != wantRem || wantIns == 0 || wantRem == 0 {
			t.Errorf("%s: map-insert %v, map-remove %v; per-page reference %v, %v",
				name, gotIns, gotRem, wantIns, wantRem)
		}
	}
}
