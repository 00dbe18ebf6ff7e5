package xpmem_test

import (
	"testing"

	"xemem/internal/core"
	"xemem/internal/extent"
	"xemem/internal/linuxos"
	"xemem/internal/mem"
	"xemem/internal/pisces"
	"xemem/internal/proc"
	"xemem/internal/sim"
	"xemem/internal/xpmem"
)

// cacheNode is a two-enclave topology — Linux management enclave with the
// name server plus one Kitten co-kernel — so attaches cross enclaves and
// exercise the owner-side serve path where the frame-list cache lives.
// (Single-enclave attaches use SMARTMAP / local mappings and never reach
// serveAttach; see xpmem_test.go.)
type cacheNode struct {
	w       *sim.World
	pm      *mem.PhysMem
	ck      *pisces.CoKernel
	expSess *xpmem.Session // Kitten exporter process session
	attSess *xpmem.Session // Linux attacher process session
	heap    *proc.Region
}

func newCacheNode(t *testing.T) *cacheNode {
	t.Helper()
	w := sim.NewWorld(42)
	costs := sim.DefaultCosts()
	pm := mem.NewPhysMem("node0", 1<<30)
	linux := linuxos.New("linux", w, costs, pm.Zone(0), proc.HostDomain{Mem: pm}, 4)
	lmod := core.New("linux", w, costs, linux, true)
	lmod.Start()
	ck, err := pisces.CreateCoKernel("kitten0", w, costs, pm, linux.Zone(), 64<<20, lmod)
	if err != nil {
		t.Fatal(err)
	}
	kp, heap, err := ck.OS.NewProcess("exporter", 256)
	if err != nil {
		t.Fatal(err)
	}
	lp := linux.NewProcess("attacher", 1)
	return &cacheNode{
		w:       w,
		pm:      pm,
		ck:      ck,
		expSess: xpmem.NewSession(ck.Module, kp),
		attSess: xpmem.NewSession(lmod, lp),
		heap:    heap,
	}
}

// stats reads the owner-side (exporter enclave) frame-cache counters.
func (n *cacheNode) stats() sim.CacheStats { return n.expSess.FrameCacheStats() }

// TestFrameCacheHitMissDetach covers the cache lifecycle on the serve
// path: first attach of a window misses and fills, a repeat attach of the
// same window hits (and is served zero-copy — both mappings alias the same
// host frames), and a detach invalidates so the next attach misses again.
func TestFrameCacheHitMissDetach(t *testing.T) {
	n := newCacheNode(t)
	const bytes = 16 * extent.PageSize
	n.w.Spawn("driver", func(a *sim.Actor) {
		segid, err := n.expSess.Make(a, n.heap.Base, bytes, xpmem.PermRead|xpmem.PermWrite, "")
		if err != nil {
			t.Error(err)
			return
		}
		apid, err := n.attSess.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead | xpmem.PermWrite})
		if err != nil {
			t.Error(err)
			return
		}

		va1, err := n.attSess.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: bytes, Perm: xpmem.PermRead | xpmem.PermWrite})
		if err != nil {
			t.Error(err)
			return
		}
		if s := n.stats(); s.Misses != 1 || s.Hits != 0 {
			t.Errorf("after first attach: %+v, want 1 miss 0 hits", s)
		}

		// Same window again, without detaching the first: a cache hit.
		va2, err := n.attSess.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: bytes, Perm: xpmem.PermRead | xpmem.PermWrite})
		if err != nil {
			t.Error(err)
			return
		}
		if s := n.stats(); s.Misses != 1 || s.Hits != 1 {
			t.Errorf("after repeat attach: %+v, want 1 miss 1 hit", s)
		}

		// Zero-copy through the cached mapping: the exporter's bytes are
		// visible via the cache-served attachment, and a write through it
		// lands in the exporter's pages.
		if _, err := n.expSess.Write(n.heap.Base+5, []byte("served from cache")); err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, 17)
		if _, err := n.attSess.Read(va2+5, got); err != nil {
			t.Error(err)
			return
		}
		if string(got) != "served from cache" {
			t.Errorf("cached attach reads %q", got)
		}
		if _, err := n.attSess.Write(va2+extent.PageSize, []byte("written back")); err != nil {
			t.Error(err)
			return
		}
		back := make([]byte, 12)
		if _, err := n.expSess.Read(n.heap.Base+extent.PageSize, back); err != nil {
			t.Error(err)
			return
		}
		if string(back) != "written back" {
			t.Errorf("exporter sees %q through cached attach", back)
		}

		// A different window is a different key: miss, not hit.
		va3, err := n.attSess.AttachWith(a, segid, apid, xpmem.AttachOpts{Offset: 4 * extent.PageSize, Bytes: 4 * extent.PageSize, Perm: xpmem.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		if s := n.stats(); s.Misses != 2 || s.Hits != 1 {
			t.Errorf("after sub-window attach: %+v, want 2 misses 1 hit", s)
		}
		// Detach invalidates the segment's cached lists (the owner released
		// pins; the lists may no longer be safe to reuse). The first detach
		// notification wipes every window cached for the segid; the later
		// ones find the cache already empty and do not bump the counter.
		if err := n.attSess.Detach(a, va3); err != nil {
			t.Error(err)
			return
		}
		a.Poll(5*sim.Microsecond, func() bool { return n.stats().Invalidations >= 1 })
		if err := n.attSess.Detach(a, va2); err != nil {
			t.Error(err)
			return
		}
		if err := n.attSess.Detach(a, va1); err != nil {
			t.Error(err)
			return
		}
		f, _ := n.heap.Backing.Page(0)
		a.Poll(5*sim.Microsecond, func() bool { return n.pm.Pinned(f) == 0 })
		if s := n.stats(); s.Invalidations != 1 {
			t.Errorf("invalidations = %d, want 1 (later detaches found an empty cache)", s.Invalidations)
		}

		// Next attach of the original window must re-walk: a fresh miss.
		va4, err := n.attSess.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: bytes, Perm: xpmem.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		if s := n.stats(); s.Misses != 3 || s.Hits != 1 {
			t.Errorf("after post-detach attach: %+v, want 3 misses 1 hit", s)
		}
		if err := n.attSess.Detach(a, va4); err != nil {
			t.Error(err)
		}
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}
	if s := n.stats(); s.HitRate() <= 0 || s.HitRate() >= 1 {
		t.Fatalf("hit rate = %v, want in (0,1)", s.HitRate())
	}
}

// TestFrameCacheInvalidationOnReExport: removing a segment invalidates its
// cached frame lists, and a re-export of the same range gets a new segid
// whose first attach is a miss — a stale list can never be served.
func TestFrameCacheInvalidationOnReExport(t *testing.T) {
	n := newCacheNode(t)
	const bytes = 8 * extent.PageSize
	n.w.Spawn("driver", func(a *sim.Actor) {
		segid, err := n.expSess.Make(a, n.heap.Base, bytes, xpmem.PermRead|xpmem.PermWrite, "")
		if err != nil {
			t.Error(err)
			return
		}
		apid, err := n.attSess.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		va, err := n.attSess.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: bytes, Perm: xpmem.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		if err := n.attSess.Detach(a, va); err != nil {
			t.Error(err)
			return
		}
		f, _ := n.heap.Backing.Page(0)
		a.Poll(5*sim.Microsecond, func() bool { return n.pm.Pinned(f) == 0 })

		before := n.stats()
		if err := n.expSess.Remove(a, segid); err != nil {
			t.Error(err)
			return
		}
		// The detach already dropped the entries; Remove on an empty cache
		// must not bump the invalidation counter again.
		if s := n.stats(); s.Invalidations != before.Invalidations {
			t.Errorf("remove of uncached segment bumped invalidations: %+v", s)
		}

		// Re-export the same range and attach while the cache holds an
		// entry, then remove: this invalidation must count.
		segid2, err := n.expSess.Make(a, n.heap.Base, bytes, xpmem.PermRead|xpmem.PermWrite, "")
		if err != nil {
			t.Error(err)
			return
		}
		if segid2 == segid {
			t.Error("re-export reused the removed segid")
		}
		apid2, err := n.attSess.GetWith(a, segid2, xpmem.GetOpts{Perm: xpmem.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := n.attSess.AttachWith(a, segid2, apid2, xpmem.AttachOpts{Bytes: bytes, Perm: xpmem.PermRead}); err != nil {
			t.Error(err)
			return
		}
		if s := n.stats(); s.Misses != 2 || s.Hits != 0 {
			t.Errorf("re-exported segment attach: %+v, want 2 misses 0 hits", s)
		}
		pre := n.stats().Invalidations
		if err := n.expSess.Remove(a, segid2); err != nil {
			t.Error(err)
			return
		}
		if s := n.stats(); s.Invalidations != pre+1 {
			t.Errorf("remove with cached entry: invalidations %d, want %d", s.Invalidations, pre+1)
		}
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}
}
