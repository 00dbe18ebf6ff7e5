// Package xpmem is the user-level, XPMEM-backwards-compatible API of
// Table 1 (§4.1). A Session binds one process to its enclave's XEMEM
// module; the six operations mirror the SGI/Cray XPMEM interface —
// xpmem_make, xpmem_remove, xpmem_get, xpmem_release, xpmem_attach,
// xpmem_detach — so applications written against XPMEM need no knowledge
// of enclave topology or cross-enclave channels (§3).
//
// The one extension beyond XPMEM is name-based discovery (Lookup), which
// substitutes for the filesystem IPC a single-OS system would use to pass
// segids between processes (§3.1).
package xpmem

import (
	"xemem/internal/core"
	"xemem/internal/pagetable"
	"xemem/internal/proc"
	"xemem/internal/sim"
	"xemem/internal/xproto"
)

// Re-exported identifier types, matching the XPMEM API's vocabulary.
type (
	// Segid names an exported segment, globally unique system-wide.
	Segid = xproto.Segid
	// Apid is an access permit returned by Get.
	Apid = xproto.Apid
	// Perm is a permission mask.
	Perm = xproto.Perm
)

// Permission bits.
const (
	PermRead  = xproto.PermRead
	PermWrite = xproto.PermWrite
)

// AttachAll, passed as the byte count to Attach, maps the entire segment
// from the given offset (the xpmem_attach whole-segment convention).
const AttachAll = core.AttachAll

// Typed errors returned by the API, re-exported from the enclave module
// layer. Match with errors.Is; errors.As with *core.OpError recovers the
// failing segid/apid/address.
var (
	// ErrNoSuchSegid: the segid does not exist or was removed.
	ErrNoSuchSegid = core.ErrNoSuchSegid
	// ErrNoSuchApid: the permit was never granted or already released.
	ErrNoSuchApid = core.ErrNoSuchApid
	// ErrPermission: the request exceeds the granted/offered permission,
	// or names a handle the calling process does not hold.
	ErrPermission = core.ErrPermission
	// ErrEnclaveDown: the enclave owning the segment (or the caller's
	// own) has crashed or been torn down.
	ErrEnclaveDown = core.ErrEnclaveDown
	// ErrTimeout: a cross-enclave request exhausted its retry budget.
	ErrTimeout = core.ErrTimeout
	// ErrNotAttached: Detach of an address not inside an attachment.
	ErrNotAttached = core.ErrNotAttached
	// ErrBadRange: unaligned or out-of-bounds address range.
	ErrBadRange = core.ErrBadRange
)

// Option structs for GetWith and AttachWith. The zero values request
// read permission (and, for AttachOpts, the whole segment) under the
// default timeout/retry policy — which only takes effect when the world
// has a fault injector; without one, requests block until answered.
type (
	// GetOpts parameterizes GetWith: permission plus timeout/retry policy.
	GetOpts = core.GetOpts
	// AttachOpts parameterizes AttachWith: offset, length, permission,
	// plus timeout/retry policy.
	AttachOpts = core.AttachOpts
)

// Session is one process's handle onto its enclave's XEMEM service (the
// analogue of an open /dev/xpmem descriptor).
type Session struct {
	mod *core.Module
	p   *proc.Process

	// Attacher-side registration cache (regcache.go): memoized attach
	// windows keyed by the full attach request, with a reverse index so
	// Detach can invalidate by address. Lazily allocated on the first
	// AttachCached; sessions that never use the cached form carry nil
	// maps and zero counters.
	reg      map[regKey]pagetable.VA
	regByVA  map[pagetable.VA]regKey
	regStats sim.CacheStats
}

// NewSession binds process p to its enclave module.
func NewSession(mod *core.Module, p *proc.Process) *Session {
	return &Session{mod: mod, p: p}
}

// Process returns the bound process.
func (s *Session) Process() *proc.Process { return s.p }

// Module returns the enclave module (diagnostics).
func (s *Session) Module() *core.Module { return s.mod }

// Make exports [va, va+bytes) as shared memory and returns its segid
// (xpmem_make). If name is non-empty the segment is discoverable via
// Lookup from any enclave.
func (s *Session) Make(a *sim.Actor, va pagetable.VA, bytes uint64, perm Perm, name string) (Segid, error) {
	return s.mod.Make(a, s.p, va, bytes, perm, name)
}

// Remove retires an exported segment (xpmem_remove).
func (s *Session) Remove(a *sim.Actor, segid Segid) error {
	return s.mod.Remove(a, s.p, segid)
}

// GetWith requests access to a segment and returns a permission grant
// (xpmem_get). The options carry the permission plus the timeout/retry
// policy bounding the cross-enclave request when fault injection is
// active.
func (s *Session) GetWith(a *sim.Actor, segid Segid, opts GetOpts) (Apid, error) {
	return s.mod.GetWith(a, s.p, segid, opts)
}

// Release drops a permission grant (xpmem_release).
func (s *Session) Release(a *sim.Actor, segid Segid, apid Apid) error {
	return s.mod.Release(a, s.p, segid, apid)
}

// AttachWith maps a window of the segment into the process and returns
// the new virtual address (xpmem_attach). The options carry the window
// and permission plus the timeout/retry policy bounding the cross-enclave
// request when fault injection is active.
func (s *Session) AttachWith(a *sim.Actor, segid Segid, apid Apid, opts AttachOpts) (pagetable.VA, error) {
	return s.mod.AttachWith(a, s.p, segid, apid, opts)
}

// Detach unmaps an attachment by any address within it (xpmem_detach).
// Detaching a window held by the registration cache invalidates its
// entry — the cache is keyed by the window's base address, so the base
// is resolved before the unmap tears the region down, and an interior
// address invalidates just as the base does.
func (s *Session) Detach(a *sim.Actor, va pagetable.VA) error {
	base := va
	if len(s.regByVA) > 0 {
		if region := s.p.AS.FindRegion(va); region != nil {
			base = region.Base
		}
	}
	if err := s.mod.Detach(a, s.p, va); err != nil {
		return err
	}
	if key, ok := s.regByVA[base]; ok {
		s.dropReg(a, key)
	}
	return nil
}

// Lookup resolves a published segment name (discoverability, §3.1).
func (s *Session) Lookup(a *sim.Actor, name string) (Segid, error) {
	return s.mod.Lookup(a, name)
}

// Read copies memory out of the process's address space (helper for
// applications built on the API). Reading through an attachment whose
// owner enclave crashed fails with ErrEnclaveDown instead of returning
// bytes from frames the dead partition no longer guards.
func (s *Session) Read(va pagetable.VA, buf []byte) (int, error) {
	if err := s.mod.CheckAccess(s.p, va); err != nil {
		return 0, err
	}
	return s.p.AS.Read(va, buf)
}

// Write copies memory into the process's address space, with the same
// crashed-owner poisoning check as Read.
func (s *Session) Write(va pagetable.VA, data []byte) (int, error) {
	if err := s.mod.CheckAccess(s.p, va); err != nil {
		return 0, err
	}
	return s.p.AS.Write(va, data)
}
