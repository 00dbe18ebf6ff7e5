package xpmem_test

import (
	"errors"
	"testing"

	"xemem/internal/core"
	"xemem/internal/extent"
	"xemem/internal/fault"
	"xemem/internal/linuxos"
	"xemem/internal/mem"
	"xemem/internal/pagetable"
	"xemem/internal/pisces"
	"xemem/internal/proc"
	"xemem/internal/sim"
	"xemem/internal/xpmem"
)

// regNode mirrors cacheNode but keeps the co-kernel handle so the
// crash test can name it as the fault plan's victim.
type regNode struct {
	w       *sim.World
	ck      *pisces.CoKernel
	expSess *xpmem.Session
	attSess *xpmem.Session
	heap    *proc.Region
}

func newRegNode(t *testing.T, seed uint64) *regNode {
	t.Helper()
	w := sim.NewWorld(seed)
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
	return &regNode{
		w:       w,
		ck:      ck,
		expSess: xpmem.NewSession(ck.Module, kp),
		attSess: xpmem.NewSession(lmod, lp),
		heap:    heap,
	}
}

// TestRegCacheHitMissDetach covers the attacher-side lifecycle: the
// first AttachCached of a window runs the protocol (miss), a repeat
// recovers the address from the cache (hit) without losing zero-copy
// semantics, Detach invalidates, and the next attach misses afresh.
func TestRegCacheHitMissDetach(t *testing.T) {
	n := newRegNode(t, 51)
	const bytes = 16 * extent.PageSize
	opts := xpmem.AttachOpts{Bytes: bytes, Perm: xpmem.PermRead}
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
		va1, err := n.attSess.AttachCached(a, segid, apid, opts)
		if err != nil {
			t.Error(err)
			return
		}
		if s := n.attSess.RegCacheStats(); s.Misses != 1 || s.Hits != 0 {
			t.Errorf("after first attach: %+v, want 1 miss 0 hits", s)
		}

		va2, err := n.attSess.AttachCached(a, segid, apid, opts)
		if err != nil {
			t.Error(err)
			return
		}
		if va2 != va1 {
			t.Errorf("cache hit returned %#x, first attach %#x", uint64(va2), uint64(va1))
		}
		if s := n.attSess.RegCacheStats(); s.Misses != 1 || s.Hits != 1 {
			t.Errorf("after repeat attach: %+v, want 1 miss 1 hit", s)
		}

		// The cached window is the real mapping: exporter bytes are
		// visible through it.
		if _, err := n.expSess.Write(n.heap.Base, []byte("via reg cache")); err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, 13)
		if _, err := n.attSess.Read(va2, got); err != nil {
			t.Error(err)
			return
		}
		if string(got) != "via reg cache" {
			t.Errorf("cached window reads %q", got)
		}

		// A different window caches independently.
		if _, err := n.attSess.AttachCached(a, segid, apid, xpmem.AttachOpts{
			Offset: 4 * extent.PageSize, Bytes: 4 * extent.PageSize, Perm: xpmem.PermRead}); err != nil {
			t.Error(err)
			return
		}
		if s := n.attSess.RegCacheStats(); s.Misses != 2 || s.Hits != 1 {
			t.Errorf("after sub-window attach: %+v, want 2 misses 1 hit", s)
		}

		// Detach drops the entry; the next AttachCached re-runs the
		// protocol.
		if err := n.attSess.Detach(a, va1); err != nil {
			t.Error(err)
			return
		}
		if s := n.attSess.RegCacheStats(); s.Invalidations != 1 {
			t.Errorf("after detach: %+v, want 1 invalidation", s)
		}
		va3, err := n.attSess.AttachCached(a, segid, apid, opts)
		if err != nil {
			t.Error(err)
			return
		}
		if s := n.attSess.RegCacheStats(); s.Misses != 3 || s.Hits != 1 {
			t.Errorf("after post-detach attach: %+v, want 3 misses 1 hit", s)
		}
		if err := n.attSess.Detach(a, va3); err != nil {
			t.Error(err)
		}
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}
	if s := n.attSess.RegCacheStats(); s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("%+v: want both hits and misses", s)
	}
}

// TestRegCacheInteriorDetach: Detach addresses an attachment by any VA
// inside it, so invalidation must fire for an interior address exactly
// as for the cached base — eagerly at detach time, not lazily at the
// next probe — or the stale entry lingers in the reverse index.
func TestRegCacheInteriorDetach(t *testing.T) {
	n := newRegNode(t, 57)
	const bytes = 16 * extent.PageSize
	opts := xpmem.AttachOpts{Bytes: bytes, Perm: xpmem.PermRead}
	n.w.Spawn("driver", func(a *sim.Actor) {
		segid, err := n.expSess.Make(a, n.heap.Base, bytes, xpmem.PermRead, "")
		if err != nil {
			t.Error(err)
			return
		}
		apid, err := n.attSess.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		va, err := n.attSess.AttachCached(a, segid, apid, opts)
		if err != nil {
			t.Error(err)
			return
		}
		if err := n.attSess.Detach(a, va+pagetable.VA(3*extent.PageSize)); err != nil {
			t.Error(err)
			return
		}
		if s := n.attSess.RegCacheStats(); s.Invalidations != 1 {
			t.Errorf("after interior detach: %+v, want 1 invalidation", s)
		}
		// The next attach runs the full protocol afresh.
		if _, err := n.attSess.AttachCached(a, segid, apid, opts); err != nil {
			t.Error(err)
			return
		}
		if s := n.attSess.RegCacheStats(); s.Misses != 2 || s.Hits != 0 {
			t.Errorf("after re-attach: %+v, want 2 misses 0 hits", s)
		}
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRegCacheCrashInvalidation: a cached window whose owner enclave
// crashed must not be served — the liveness probe sees the poisoned
// attachment, drops the entry, and the full re-attach surfaces
// ErrEnclaveDown.
func TestRegCacheCrashInvalidation(t *testing.T) {
	const crashAt = 2 * sim.Millisecond
	n := newRegNode(t, 53)
	inj := fault.New(n.w, fault.Plan{
		Crashes: []fault.Crash{{At: crashAt, Module: n.ck.Module.Name()}},
	})
	inj.Arm()

	const bytes = 8 * extent.PageSize
	opts := xpmem.AttachOpts{Bytes: bytes, Perm: xpmem.PermRead, Timeout: sim.Millisecond}
	n.w.Spawn("driver", func(a *sim.Actor) {
		segid, err := n.expSess.Make(a, n.heap.Base, bytes, xpmem.PermRead, "")
		if err != nil {
			t.Error(err)
			return
		}
		apid, err := n.attSess.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead, Timeout: sim.Millisecond})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := n.attSess.AttachCached(a, segid, apid, opts); err != nil {
			t.Error(err)
			return
		}
		if s := n.attSess.RegCacheStats(); s.Misses != 1 || s.Invalidations != 0 {
			t.Errorf("pre-crash: %+v, want 1 miss 0 invalidations", s)
		}

		a.AdvanceTo(crashAt + sim.Millisecond)
		_, err = n.attSess.AttachCached(a, segid, apid, opts)
		if !errors.Is(err, xpmem.ErrEnclaveDown) {
			t.Errorf("post-crash AttachCached = %v, want ErrEnclaveDown", err)
		}
		if s := n.attSess.RegCacheStats(); s.Invalidations != 1 || s.Misses != 2 || s.Hits != 0 {
			t.Errorf("post-crash: %+v, want 2 misses 0 hits 1 invalidation", s)
		}
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}
	if !n.ck.Module.Stopped() {
		t.Fatal("victim module not marked crashed")
	}
}
