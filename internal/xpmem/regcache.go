package xpmem

import (
	"xemem/internal/pagetable"
	"xemem/internal/sim"
)

// The attacher-side registration cache, the only cache on the attach
// path: the owner walks the exporter's page tables on every serve
// (DESIGN.md §6.3). XHC-style collectives re-attach the same peer
// buffers on every operation; AttachCached makes the repeat attaches
// free of protocol traffic: attach on first appearance, recover the
// window from the cache after. Entries are keyed by the full attach request — segid,
// apid, window, permission — so differently-sized windows onto one
// segment cache independently, exactly as separate xpmem_attach calls
// would.
//
// Coherence with the fault layer: a cached window is only trusted after
// a liveness probe against the module's attachment table, so a window
// torn down by Detach or poisoned by its owner enclave's crash is
// dropped (counted as an invalidation) and the attach retried through
// the full protocol — which then reports the owner's death instead of
// serving stale frames.

// regKey identifies one attach request in the registration cache.
type regKey struct {
	segid  Segid
	apid   Apid
	offset uint64
	bytes  uint64
	perm   Perm
}

// AttachCached is AttachWith through the session's registration cache:
// the first attach of a given (segid, apid, window, perm) runs the full
// protocol and memoizes the returned window; later calls pay only the
// probe cost (Costs.RegProbe) and recover the address from the cache.
// Hit, miss, and invalidation counts are reported through the world's
// observer (reg-cache-hit / reg-cache-miss / reg-cache-invalidate
// counter events) and via RegCacheStats.
func (s *Session) AttachCached(a *sim.Actor, segid Segid, apid Apid, opts AttachOpts) (pagetable.VA, error) {
	a.Charge("reg-cache-probe", s.mod.Costs().RegProbe)
	key := regKey{segid: segid, apid: apid, offset: opts.Offset, bytes: opts.Bytes, perm: opts.Perm}
	if va, ok := s.reg[key]; ok {
		if s.mod.AttachmentLive(s.p, va, key.segid, key.apid) {
			s.regStats.Hits++
			s.count(a, "reg-cache-hit")
			return va, nil
		}
		// Detached behind our back or poisoned by the owner's crash:
		// drop the entry and fall through to a full re-attach.
		s.dropReg(a, key)
	}
	s.regStats.Misses++
	s.count(a, "reg-cache-miss")
	va, err := s.mod.AttachWith(a, s.p, segid, apid, opts)
	if err != nil {
		return 0, err
	}
	if s.reg == nil {
		s.reg = make(map[regKey]pagetable.VA)
		s.regByVA = make(map[pagetable.VA]regKey)
	}
	s.reg[key] = va
	s.regByVA[va] = key
	return va, nil
}

// dropReg removes one cache entry and counts the invalidation.
func (s *Session) dropReg(a *sim.Actor, key regKey) {
	delete(s.regByVA, s.reg[key])
	delete(s.reg, key)
	s.regStats.Invalidations++
	s.count(a, "reg-cache-invalidate")
}

// count emits a zero-duration counter event to the world's observer.
func (s *Session) count(a *sim.Actor, name string) {
	if obs := a.Observer(); obs != nil {
		obs.Count(name, a, 0)
	}
}

// RegCacheStats reports the session's attacher-side registration-cache
// counters (hits, misses, invalidations). A hit changes simulated time:
// it skips the attach protocol, which is the cache's whole point.
func (s *Session) RegCacheStats() sim.CacheStats { return s.regStats }
