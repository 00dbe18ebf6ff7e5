package core

import (
	"errors"

	"xemem/internal/extent"
	"xemem/internal/pagetable"
	"xemem/internal/proc"
	"xemem/internal/sim"
	"xemem/internal/xproto"
)

const pageSize = extent.PageSize

// AttachAll, passed as the byte count to Attach, maps the whole segment
// from the given offset — the xpmem_attach convention of passing the
// segment's full size.
const AttachAll = ^uint64(0)

// resolveDst rewrites a name-server-addressed segment command to its
// owning enclave when this module hosts the root name server itself —
// there is no "toward the NS" link to defer the resolution to.
func (m *Module) resolveDst(a *sim.Actor, msg *xproto.Message) error {
	if !m.nsRoot || msg.Dst != xproto.NoEnclave {
		return nil
	}
	resp, err := m.nsLocal(a, msg)
	if err != nil {
		return err
	}
	msg.Dst = xproto.EnclaveID(resp.Value)
	return nil
}

// rpc issues a request from a process actor and waits for the routed
// response under pol, resolved for this world (RetryPolicy.resolve): each
// attempt waits up to its timeout, and timed-out attempts are retried
// with exponential backoff. In the zero-fault world the single attempt
// has no deadline, so the requester blocks until the response wakes it.
func (m *Module) rpc(a *sim.Actor, msg *xproto.Message, pol RetryPolicy) (*xproto.Message, error) {
	msg.Src = m.R.Self()
	origDst := msg.Dst
	if err := m.resolveDst(a, msg); err != nil {
		return nil, opErr(msg.Type.String(), err, msg.Segid, msg.Apid)
	}
	l, err := m.route(msg.Dst)
	if err != nil {
		return nil, err
	}
	pol = pol.resolve(m.w.Injector() != nil)
	timeout := pol.Timeout
	for attempt := 0; ; attempt++ {
		resp, err := m.rpcOnce(a, msg, l, timeout)
		if err == nil {
			return resp, nil
		}
		if !errors.Is(err, ErrTimeout) || attempt >= DefaultRPCRetries {
			return nil, err
		}
		m.Stats.Retries++
		timeout = sim.Time(float64(timeout) * DefaultRPCBackoff)
		// Re-resolve destination and route before retrying: the timeout may
		// mean the target died mid-protocol. A name-server-hosting module
		// then learns the owner is down right here (ErrEnclaveDown); others
		// fall back to the name-server route, where the same verdict comes
		// back on the wire.
		if origDst == xproto.NoEnclave {
			msg.Dst = xproto.NoEnclave
			if err := m.resolveDst(a, msg); err != nil {
				return nil, opErr(msg.Type.String(), err, msg.Segid, msg.Apid)
			}
		}
		if l2, err := m.route(msg.Dst); err == nil {
			l = l2
		} else {
			return nil, err
		}
	}
}

// rpcReasons holds each message type's block reason, "rpc:<type>",
// built once: a reason built per request escapes into the actor.
var rpcReasons = func() (r [256]string) {
	for t := range r {
		r[t] = "rpc:" + xproto.MsgType(t).String()
	}
	return r
}()

// rpcOnce sends one attempt with a fresh ReqID and waits for its response
// until timeout: polling when the timeout is finite, blocking until
// complete or failPending wakes it when it is sim.Forever. A late
// response to an abandoned attempt finds no pending entry and is counted
// as dropped — the retry carries a new ReqID, so stale responses can
// never complete the wrong attempt.
func (m *Module) rpcOnce(a *sim.Actor, msg *xproto.Message, l xproto.Link, timeout sim.Time) (*xproto.Message, error) {
	msg.ReqID = m.newReqID()
	p := &pendingReq{waiter: a, dst: msg.Dst}
	m.pending[msg.ReqID] = p
	m.sendOn(a, l, msg)
	answered := a.Await(rpcReasons[msg.Type], rpcPollInterval, a.Deadline(timeout), func() bool { return p.resp != nil })
	delete(m.pending, msg.ReqID)
	if !answered {
		m.Stats.Timeouts++
		return nil, opErr(msg.Type.String(), ErrTimeout, msg.Segid, msg.Apid)
	}
	if err := statusErr(p.resp.Status); err != nil {
		return nil, opErr(msg.Type.String(), err, msg.Segid, msg.Apid)
	}
	return p.resp, nil
}

// notify sends a fire-and-forget command toward the name server.
func (m *Module) notify(a *sim.Actor, msg *xproto.Message) {
	msg.Src = m.R.Self()
	if err := m.resolveDst(a, msg); err != nil {
		m.Stats.DroppedMessages++
		return
	}
	l, err := m.route(msg.Dst)
	if err != nil {
		m.Stats.DroppedMessages++
		return
	}
	m.sendOn(a, l, msg)
}

func (m *Module) allocApid() xproto.Apid {
	m.nextApid++
	return m.nextApid
}

// checkUp returns ErrEnclaveDown once this module's enclave has crashed;
// every XPMEM entry point calls it so operations against a dead enclave
// fail cleanly instead of hanging on a kernel that will never answer.
func (m *Module) checkUp(op string) error {
	if m.crashed {
		return &OpError{Op: op, Err: ErrEnclaveDown}
	}
	return nil
}

// Make exports [va, va+bytes) of process p's address space as a shared
// segment (xpmem_make). The range must be page-aligned and lie within one
// region. perm is the maximum permission the owner offers. If name is
// non-empty the segment is also published at the name server for
// discovery. It returns the globally unique segid.
func (m *Module) Make(a *sim.Actor, p *proc.Process, va pagetable.VA, bytes uint64, perm xproto.Perm, name string) (xproto.Segid, error) {
	m.WaitReady(a)
	if err := m.checkUp("make"); err != nil {
		return xproto.NoSegid, err
	}
	a.Charge("syscall", m.c.Syscall)
	if bytes == 0 || bytes%pageSize != 0 || va.Offset() != 0 {
		return xproto.NoSegid, vaErr("make", ErrBadRange, va)
	}
	r := p.AS.FindRegion(va)
	if r == nil || va+pagetable.VA(bytes) > r.End() {
		return xproto.NoSegid, vaErr("make", ErrBadRange, va)
	}

	resp, err := m.nsCall(a, "make", &xproto.Message{Type: xproto.MsgSegidAllocReq}, RetryPolicy{})
	if err != nil {
		return xproto.NoSegid, err
	}
	segid := xproto.Segid(resp.Value)
	seg := &Segment{
		ID: segid, Owner: p, VA: va, PagesN: bytes / pageSize,
		Perm: perm, permits: make(map[xproto.Apid]*Permit),
	}
	m.segs[segid] = seg

	if name != "" {
		if _, err := m.nsCall(a, "publish", &xproto.Message{Type: xproto.MsgNamePublish, Segid: segid, Name: name}, RetryPolicy{}); err != nil {
			delete(m.segs, segid)
			// Best-effort retirement: the publish failure is what the
			// caller needs to hear.
			_, _ = m.nsCall(a, "remove", &xproto.Message{Type: xproto.MsgSegidRemove, Segid: segid}, RetryPolicy{})
			return xproto.NoSegid, err
		}
		seg.Name = name
	}
	return segid, nil
}

// Lookup resolves a published segment name at the name server
// (discoverability, §3.1).
func (m *Module) Lookup(a *sim.Actor, name string) (xproto.Segid, error) {
	m.WaitReady(a)
	if err := m.checkUp("lookup"); err != nil {
		return xproto.NoSegid, err
	}
	a.Charge("syscall", m.c.Syscall)
	resp, err := m.nsCall(a, "lookup", &xproto.Message{Type: xproto.MsgNameLookupReq, Name: name}, RetryPolicy{})
	if err != nil {
		return xproto.NoSegid, err
	}
	return resp.Segid, nil
}

// Remove retires a segment (xpmem_remove). Only the owning process may
// remove it. Existing attachments keep their mappings (the frames stay
// pinned until detach); new gets and attaches fail.
func (m *Module) Remove(a *sim.Actor, p *proc.Process, segid xproto.Segid) error {
	m.WaitReady(a)
	if err := m.checkUp("remove"); err != nil {
		return err
	}
	a.Charge("syscall", m.c.Syscall)
	seg, ok := m.segs[segid]
	if !ok || seg.Removed {
		return opErr("remove", ErrNoSuchSegid, segid, xproto.NoApid)
	}
	if seg.Owner != p {
		return opErr("remove", ErrPermission, segid, xproto.NoApid)
	}
	seg.Removed = true
	delete(m.leases, segid)
	_, err := m.nsCall(a, "remove", &xproto.Message{Type: xproto.MsgSegidRemove, Segid: segid}, RetryPolicy{})
	return err
}

// GetWith requests access to a segment (xpmem_get) with explicit options
// and returns the permission grant. For locally owned segments the grant
// is immediate; for remote segments the request routes to the owner via
// the name server, bounded by the options' retry policy when fault
// injection is active.
func (m *Module) GetWith(a *sim.Actor, p *proc.Process, segid xproto.Segid, opts GetOpts) (xproto.Apid, error) {
	m.WaitReady(a)
	if err := m.checkUp("get"); err != nil {
		return xproto.NoApid, err
	}
	perm := permOrRead(opts.Perm)
	a.Charge("syscall", m.c.Syscall)
	if seg, ok := m.segs[segid]; ok {
		if seg.Removed {
			return xproto.NoApid, opErr("get", ErrNoSuchSegid, segid, xproto.NoApid)
		}
		if perm&^seg.Perm != 0 {
			return xproto.NoApid, opErr("get", ErrPermission, segid, xproto.NoApid)
		}
		apid := m.allocApid()
		seg.permits[apid] = &Permit{Apid: apid, Perm: perm, Holder: m.R.Self(), HolderP: p}
		return apid, nil
	}
	req := &xproto.Message{Type: xproto.MsgGetReq, Dst: xproto.NoEnclave, Segid: segid, Perm: perm}
	resp, err := m.segRPC(a, req, opts.policy())
	if err != nil {
		return xproto.NoApid, err
	}
	m.remoteGrants[grantKey{segid: segid, apid: resp.Apid}] = &remoteGrant{owner: resp.Src, holder: p}
	return resp.Apid, nil
}

// Release drops a permission grant (xpmem_release). Releasing an apid
// that was never granted — or granted and already released — returns
// ErrNoSuchApid; releasing someone else's grant returns ErrPermission.
// Grants from an enclave that has since crashed release locally without
// notifying the dead owner.
func (m *Module) Release(a *sim.Actor, p *proc.Process, segid xproto.Segid, apid xproto.Apid) error {
	m.WaitReady(a)
	if err := m.checkUp("release"); err != nil {
		return err
	}
	a.Charge("syscall", m.c.Syscall)
	if seg, ok := m.segs[segid]; ok {
		permit, ok := seg.permits[apid]
		if !ok {
			return opErr("release", ErrNoSuchApid, segid, apid)
		}
		if permit.HolderP != p {
			return opErr("release", ErrPermission, segid, apid)
		}
		delete(seg.permits, apid)
		return nil
	}
	g, ok := m.remoteGrants[grantKey{segid: segid, apid: apid}]
	if !ok {
		return opErr("release", ErrNoSuchApid, segid, apid)
	}
	if g.holder != p {
		return opErr("release", ErrPermission, segid, apid)
	}
	delete(m.remoteGrants, grantKey{segid: segid, apid: apid})
	if m.dead[g.owner] {
		return nil // the owner crashed; there is no one left to notify
	}
	m.notifyOwner(a, g.owner, &xproto.Message{Type: xproto.MsgReleaseNotify, Dst: xproto.NoEnclave, Segid: segid, Apid: apid})
	return nil
}

// notifyOwner sends a fire-and-forget command to a segment's owner: via
// the name server in flat worlds, directly in sharded ones (release and
// detach record the owner when the grant/attachment is made, so the
// notify needs no resolution).
func (m *Module) notifyOwner(a *sim.Actor, owner xproto.EnclaveID, msg *xproto.Message) {
	if m.shards == nil {
		m.notify(a, msg)
		return
	}
	if owner == xproto.NoEnclave || m.dead[owner] {
		m.Stats.DroppedMessages++
		return
	}
	msg.Dst = owner
	msg.Src = m.R.Self()
	l, err := m.route(owner)
	if err != nil {
		m.Stats.DroppedMessages++
		return
	}
	m.sendOn(a, l, msg)
}

// AttachWith maps part of a segment into process p (xpmem_attach) with
// explicit options and returns the new virtual address. Opts.Bytes ==
// AttachAll (or 0) maps the whole segment from Opts.Offset onward,
// matching xpmem_attach's "size of segment" convention. Local segments
// use the kernel's local sharing facility; remote segments run the
// Fig. 3 protocol: the request routes through the name server to the
// owner, the owner's frame list routes back (translated across VM
// boundaries by the channels it crosses), and the local kernel maps it.
// The request is bounded by the options' retry policy when fault
// injection is active.
func (m *Module) AttachWith(a *sim.Actor, p *proc.Process, segid xproto.Segid, apid xproto.Apid, opts AttachOpts) (pagetable.VA, error) {
	m.WaitReady(a)
	if err := m.checkUp("attach"); err != nil {
		return 0, err
	}
	offset, bytes, perm := opts.Offset, opts.Bytes, permOrRead(opts.Perm)
	a.Charge("syscall", m.c.Syscall)
	if offset%pageSize != 0 {
		return 0, opErr("attach", ErrBadRange, segid, apid)
	}
	if bytes == 0 || bytes == AttachAll {
		// Whole-segment attach: the owner resolves the true size. For a
		// local segment we know it; for a remote one we request with
		// Pages == 0 and the owner serves the remainder.
		if seg, ok := m.segs[segid]; ok {
			if offset >= seg.Bytes() {
				return 0, opErr("attach", ErrBadRange, segid, apid)
			}
			bytes = seg.Bytes() - offset
		} else {
			bytes = 0 // resolved at the owner
		}
	}
	pages := (bytes + pageSize - 1) / pageSize

	if seg, ok := m.segs[segid]; ok {
		if seg.Removed {
			return 0, opErr("attach", ErrNoSuchSegid, segid, apid)
		}
		permit := seg.permits[apid]
		if permit == nil {
			return 0, opErr("attach", ErrNoSuchApid, segid, apid)
		}
		if permit.HolderP != p || perm&^permit.Perm != 0 {
			return 0, opErr("attach", ErrPermission, segid, apid)
		}
		offPages := offset / pageSize
		if offPages+pages > seg.PagesN {
			return 0, opErr("attach", ErrBadRange, segid, apid)
		}
		region, err := m.os.AttachLocal(a, seg, p, offPages, pages, perm)
		if err != nil {
			return 0, err
		}
		seg.attaches++
		m.attachments[region] = &Attachment{Region: region, Segid: segid, Apid: apid, Local: true, offset: offset, holder: p}
		m.Stats.AttachesMade++
		return region.Base, nil
	}

	req := &xproto.Message{
		Type: xproto.MsgAttachReq, Dst: xproto.NoEnclave,
		Segid: segid, Apid: apid, Offset: offset, Pages: pages, Perm: perm,
	}
	resp, err := m.segRPC(a, req, opts.policy())
	if err != nil {
		return 0, err
	}
	list := resp.List
	var mirror extent.List
	if m.nic != nil && m.nic.Remote(resp.Src) {
		// Cross-machine attach: pull the bytes over the fabric into local
		// frames (one-time RDMA read). The mirror is a snapshot copy, so
		// write mappings — which could not be kept coherent — are refused.
		if perm&xproto.PermWrite != 0 {
			return 0, opErr("attach", ErrPermission, segid, apid)
		}
		list, err = m.nic.MirrorFrames(a, resp.Src, list)
		if err != nil {
			return 0, opErr("attach", err, segid, apid)
		}
		mirror = list
	}
	region, err := m.os.MapRemote(a, p, list, perm)
	if err != nil {
		return 0, err
	}
	m.attachments[region] = &Attachment{Region: region, Segid: segid, Apid: apid, Local: false, Owner: resp.Src, offset: offset, mirror: mirror}
	m.Stats.AttachesMade++
	return region.Base, nil
}

// Detach unmaps an attachment by any address inside it (xpmem_detach).
// Detaching an address that is not inside an XEMEM attachment — including
// a second detach of the same address — returns ErrNotAttached. An
// attachment poisoned by its owner enclave's crash unmaps locally without
// notifying the dead owner.
func (m *Module) Detach(a *sim.Actor, p *proc.Process, va pagetable.VA) error {
	m.WaitReady(a)
	if err := m.checkUp("detach"); err != nil {
		return err
	}
	a.Charge("syscall", m.c.Syscall)
	region := p.AS.FindRegion(va)
	if region == nil {
		return vaErr("detach", ErrNotAttached, va)
	}
	att, ok := m.attachments[region]
	if !ok {
		return vaErr("detach", ErrNotAttached, va)
	}
	if att.Local {
		if err := m.os.DetachLocal(a, p, region); err != nil {
			return err
		}
		if seg, ok := m.segs[att.Segid]; ok {
			seg.attaches--
		}
	} else {
		pages := region.Pages()
		if err := m.os.UnmapRemote(a, p, region); err != nil {
			return err
		}
		if att.mirror.Pages() > 0 && m.nic != nil {
			m.nic.FreeMirror(att.mirror)
		}
		if att.Poisoned {
			m.poisoned--
		} else {
			m.notifyOwner(a, att.Owner, &xproto.Message{
				Type: xproto.MsgDetachNotify, Dst: xproto.NoEnclave,
				Segid: att.Segid, Apid: att.Apid, Offset: att.offset, Pages: pages,
			})
		}
	}
	delete(m.attachments, region)
	return nil
}

// CheckAccess reports whether va may be read or written through p, i.e.
// that it is not inside an attachment poisoned by its owner enclave's
// crash. The zero-fault fast path is a single counter test.
func (m *Module) CheckAccess(p *proc.Process, va pagetable.VA) error {
	if m.poisoned == 0 {
		return nil
	}
	region := p.AS.FindRegion(va)
	if region == nil {
		return nil // not mapped at all; the address-space access will say so
	}
	if att, ok := m.attachments[region]; ok && att.Poisoned {
		return &OpError{Op: "access", Segid: att.Segid, Apid: att.Apid, VA: va, Err: ErrEnclaveDown}
	}
	return nil
}

// AttachmentLive reports whether va still names a live attachment of p
// onto the given segid/apid: mapped, tracked by the module, identity-
// matched, and not poisoned by its owner enclave's crash. The
// attacher-side registration cache probes this before trusting a
// memoized window (internal/xpmem); the identity check keeps a stale
// cache entry from vouching for a different attachment later mapped
// over the same address.
func (m *Module) AttachmentLive(p *proc.Process, va pagetable.VA, segid xproto.Segid, apid xproto.Apid) bool {
	region := p.AS.FindRegion(va)
	if region == nil {
		return false
	}
	att, ok := m.attachments[region]
	return ok && !att.Poisoned && att.Segid == segid && att.Apid == apid
}
