package core

import (
	"xemem/internal/pagetable"
	"xemem/internal/sim"
	"xemem/internal/xproto"
)

// handle processes one decoded message on the kernel actor. It implements
// the §3.2 routing rule: commands for other enclaves are forwarded on the
// learned route when one exists and toward the name server otherwise;
// commands addressed to the name server are resolved there and forwarded
// to the owning enclave (Fig. 3 step routing).
func (m *Module) handle(a *sim.Actor, msg *xproto.Message, via xproto.Link) {
	switch msg.Type {
	case xproto.MsgPingNS:
		if m.R.HasPathToNS() {
			m.sendOn(a, via, &xproto.Message{Type: xproto.MsgPongNS, ReqID: msg.ReqID})
		} else {
			// No path yet: answer once our own bootstrap completes, so
			// sibling boot order does not matter.
			m.pendingPings = append(m.pendingPings, pendingPing{via: via, reqID: msg.ReqID})
		}

	case xproto.MsgPongNS:
		// The first pong (of any bootstrap attempt) picks the channel
		// toward the name server; late or duplicate pongs are ignored.
		if !m.R.HasPathToNS() {
			m.R.SetNSLink(via)
		}

	case xproto.MsgEnclaveIDReq:
		if m.nsRoot {
			a.Charge("ns-op", m.c.NSOp)
			id := m.NS.AllocEnclaveID()
			m.R.Learn(id, via)
			m.sendOn(a, via, &xproto.Message{
				Type: xproto.MsgEnclaveIDResp, ReqID: msg.ReqID,
				Status: xproto.StatusOK, Value: uint64(id),
			})
			return
		}
		if err := m.R.TrackHop(msg.ReqID, via); err != nil {
			m.Stats.DroppedMessages++
			return
		}
		m.forward(a, msg, xproto.NoEnclave)

	case xproto.MsgEnclaveIDResp:
		if m.bootIDReq != 0 && msg.ReqID == m.bootIDReq {
			m.R.SetSelf(xproto.EnclaveID(msg.Value)) // our bootstrap's answer
			return
		}
		if hopVia, ok := m.R.TakeHop(msg.ReqID); ok {
			// A response passing through: learn the route to the new
			// enclave and retrace the request path (§3.2).
			a.Charge("route-lookup", m.c.RouteLookup)
			m.R.Learn(xproto.EnclaveID(msg.Value), hopVia)
			m.Stats.MsgsForwarded++
			m.sendOn(a, hopVia, msg)
			return
		}
		m.complete(a, msg) // a late duplicate of our own bootstrap response: dropped

	default:
		switch {
		case msg.Dst == xproto.NoEnclave:
			// Addressed to the root name server.
			if m.nsRoot {
				m.handleNS(a, msg)
				return
			}
			m.forward(a, msg, xproto.NoEnclave)
		case msg.Dst != m.R.Self():
			m.forward(a, msg, msg.Dst)
		case msg.Type.IsResponse():
			m.complete(a, msg)
		case m.NS != nil && isShardServiceMsg(msg.Type):
			// A name-service command addressed directly to this enclave:
			// sharded worlds route allocations, lookups, and replication
			// syncs straight at shard replicas (flat worlds only ever send
			// these types toward Dst==NoEnclave, so this arm is dead there).
			m.handleNS(a, msg)
		default:
			m.handleOwner(a, msg)
		}
	}
}

// forward routes msg toward dst (NoEnclave = toward the name server).
func (m *Module) forward(a *sim.Actor, msg *xproto.Message, dst xproto.EnclaveID) {
	a.Charge("route-lookup", m.c.RouteLookup)
	l, err := m.route(dst)
	if err != nil {
		m.Stats.DroppedMessages++
		return
	}
	m.Stats.MsgsForwarded++
	m.sendOn(a, l, msg)
}

// reply sends a response back toward the requester.
func (m *Module) reply(a *sim.Actor, resp *xproto.Message) {
	l, err := m.route(resp.Dst)
	if err != nil {
		m.Stats.DroppedMessages++
		return
	}
	m.sendOn(a, l, resp)
}

// handleNS processes commands addressed to the name server. Segment
// commands (get/attach/release/detach) are resolved through the
// segid→enclave map and forwarded to the owner, per Fig. 3.
//
// During an injected name-server outage window every request is dropped
// on the floor — the service is down, there is no one to even say so —
// and requesters recover via their timeout/retry policies once the
// window passes.
func (m *Module) handleNS(a *sim.Actor, msg *xproto.Message) {
	if inj := m.w.Injector(); inj != nil && inj.ServiceDown("nameserver", a.Now()) {
		m.Stats.NSOutageDrops++
		if obs := a.Observer(); obs != nil {
			obs.Count("fault-ns-drop", a, 0)
		}
		return
	}
	a.Charge("ns-op", m.c.NSOp)
	switch msg.Type {
	case xproto.MsgSegidAllocReq:
		segid, err := m.NS.AllocSegid(msg.Src)
		resp := &xproto.Message{Type: xproto.MsgSegidAllocResp, ReqID: msg.ReqID, Dst: msg.Src, Src: m.R.Self()}
		if err != nil {
			resp.Status = xproto.StatusError
		} else {
			resp.Value = uint64(segid)
			m.replicateShard(a, &xproto.Message{Type: xproto.MsgShardSyncAlloc, Segid: segid, Value: uint64(msg.Src)})
		}
		m.reply(a, resp)

	case xproto.MsgSegidRemove:
		if err := m.NS.RemoveSegid(msg.Segid, msg.Src); err != nil {
			m.Stats.DroppedMessages++
		} else {
			m.replicateShard(a, &xproto.Message{Type: xproto.MsgShardSyncRemove, Segid: msg.Segid})
		}

	case xproto.MsgNamePublish:
		resp := &xproto.Message{Type: xproto.MsgNamePublishResp, ReqID: msg.ReqID, Dst: msg.Src, Src: m.R.Self()}
		var err error
		if m.shards != nil {
			// A name's home shard generally does not hold the segid's
			// registration, so the sharded bind skips owner validation.
			err = m.NS.BindName(msg.Name, msg.Segid)
		} else {
			err = m.NS.Publish(msg.Name, msg.Segid, msg.Src)
		}
		if err != nil {
			resp.Status = xproto.StatusDenied
		} else if m.shards != nil {
			m.replicateShard(a, &xproto.Message{Type: xproto.MsgShardSyncPublish, Segid: msg.Segid, Name: msg.Name})
		}
		m.reply(a, resp)

	case xproto.MsgShardLookupReq:
		resp := &xproto.Message{Type: xproto.MsgShardLookupResp, ReqID: msg.ReqID, Dst: msg.Src, Src: m.R.Self(), Segid: msg.Segid}
		owner, ok := m.NS.Owner(msg.Segid)
		switch {
		case !ok:
			resp.Status = xproto.StatusNotFound
		case m.NS.EnclaveDown(owner):
			resp.Status = xproto.StatusEnclaveDown
		default:
			resp.Value = uint64(owner)
		}
		m.reply(a, resp)

	case xproto.MsgShardSyncAlloc:
		m.NS.SyncRegister(msg.Segid, xproto.EnclaveID(msg.Value))
		m.ShardStats.SyncsApplied++

	case xproto.MsgShardSyncPublish:
		if err := m.NS.BindName(msg.Name, msg.Segid); err != nil {
			m.Stats.DroppedMessages++
		} else {
			m.ShardStats.SyncsApplied++
		}

	case xproto.MsgShardSyncRemove:
		m.NS.SyncRemove(msg.Segid)
		m.ShardStats.SyncsApplied++

	case xproto.MsgNameLookupReq:
		resp := &xproto.Message{Type: xproto.MsgNameLookupResp, ReqID: msg.ReqID, Dst: msg.Src, Src: m.R.Self()}
		if segid, ok := m.NS.Lookup(msg.Name); ok {
			resp.Segid = segid
		} else {
			resp.Status = xproto.StatusNotFound
		}
		m.reply(a, resp)

	case xproto.MsgGetReq, xproto.MsgAttachReq, xproto.MsgReleaseNotify, xproto.MsgDetachNotify:
		owner, ok := m.NS.Owner(msg.Segid)
		if !ok {
			if msg.Type == xproto.MsgGetReq || msg.Type == xproto.MsgAttachReq {
				m.reply(a, &xproto.Message{
					Type:  respType(msg.Type),
					ReqID: msg.ReqID, Dst: msg.Src, Src: m.R.Self(),
					Status: xproto.StatusNotFound,
				})
			} else {
				m.Stats.DroppedMessages++
			}
			return
		}
		if m.NS.EnclaveDown(owner) {
			// The segment's owner crashed: its registrations linger so the
			// failure is attributable, but there is no one to serve the
			// request. Tell the requester the enclave is gone.
			if msg.Type == xproto.MsgGetReq || msg.Type == xproto.MsgAttachReq {
				m.reply(a, &xproto.Message{
					Type:  respType(msg.Type),
					ReqID: msg.ReqID, Dst: msg.Src, Src: m.R.Self(),
					Status: xproto.StatusEnclaveDown,
				})
			} else {
				m.Stats.DroppedMessages++
			}
			return
		}
		if owner == m.R.Self() {
			m.handleOwner(a, msg)
			return
		}
		msg.Dst = owner
		m.NS.Forwards++
		m.forward(a, msg, owner)

	default:
		m.Stats.DroppedMessages++
	}
}

func respType(req xproto.MsgType) xproto.MsgType {
	switch req {
	case xproto.MsgGetReq:
		return xproto.MsgGetResp
	case xproto.MsgAttachReq:
		return xproto.MsgAttachResp
	default:
		return xproto.MsgInvalid
	}
}

// handleOwner processes segment commands at the owning enclave.
func (m *Module) handleOwner(a *sim.Actor, msg *xproto.Message) {
	switch msg.Type {
	case xproto.MsgGetReq:
		resp := &xproto.Message{Type: xproto.MsgGetResp, ReqID: msg.ReqID, Dst: msg.Src, Src: m.R.Self(), Segid: msg.Segid}
		seg, ok := m.segs[msg.Segid]
		switch {
		case !ok || seg.Removed:
			resp.Status = xproto.StatusNotFound
		case msg.Perm&^seg.Perm != 0:
			resp.Status = xproto.StatusDenied
		default:
			apid := m.allocApid()
			seg.permits[apid] = &Permit{Apid: apid, Perm: msg.Perm, Holder: msg.Src}
			resp.Apid = apid
		}
		m.reply(a, resp)

	case xproto.MsgReleaseNotify:
		if seg, ok := m.segs[msg.Segid]; ok {
			if permit, ok := seg.permits[msg.Apid]; ok && permit.Holder == msg.Src {
				delete(seg.permits, msg.Apid)
				return
			}
		}
		m.Stats.DroppedMessages++

	case xproto.MsgAttachReq:
		m.serveAttach(a, msg)

	case xproto.MsgDetachNotify:
		m.finishDetach(msg)

	default:
		m.Stats.DroppedMessages++
	}
}

// serveAttach is the owner side of Fig. 3 steps 5–6: validate the permit,
// walk the exporting process's page tables to build the frame list, pin
// the backing host frames for the attachment's lifetime, and send the
// list back toward the attacher.
func (m *Module) serveAttach(a *sim.Actor, msg *xproto.Message) {
	resp := &xproto.Message{Type: xproto.MsgAttachResp, ReqID: msg.ReqID, Dst: msg.Src, Src: m.R.Self(), Segid: msg.Segid}
	fail := func(st xproto.Status) {
		resp.Status = st
		m.reply(a, resp)
	}
	seg, ok := m.segs[msg.Segid]
	if !ok || seg.Removed {
		fail(xproto.StatusNotFound)
		return
	}
	permit := seg.permits[msg.Apid]
	if permit == nil || permit.Holder != msg.Src || msg.Perm&^permit.Perm != 0 {
		fail(xproto.StatusDenied)
		return
	}
	offPages := msg.Offset / pageSize
	pages := msg.Pages
	if pages == 0 && msg.Offset%pageSize == 0 && offPages < seg.PagesN {
		// Whole-segment attach: serve the remainder from the offset.
		pages = seg.PagesN - offPages
	}
	if msg.Offset%pageSize != 0 || pages == 0 || offPages+pages > seg.PagesN {
		fail(xproto.StatusError)
		return
	}

	m.os.KernelCore().Exec(a, m.c.ServeFixed, "xemem-serve")
	va := seg.VA + pagetable.VA(msg.Offset)
	key := frameKey{offPages: offPages, pages: pages}
	ent, hit := m.frameCache[msg.Segid][key]
	if hit {
		// Repeat attachment of a window we already served: reuse the walked
		// frame list. A cached window is still pinned, so the exporter's
		// mappings cannot have changed; the charge is what a repeat walk of
		// populated pages costs, keeping simulated time bit-identical.
		m.Stats.FrameCache.Hits++
		m.os.ExportWalkCost(a, pages)
	} else {
		m.Stats.FrameCache.Misses++
		list, err := m.os.WalkForExport(a, seg.Owner.AS, va, pages)
		if err != nil {
			fail(xproto.StatusError)
			return
		}
		host, err := seg.Owner.AS.Domain().TranslateList(list)
		if err != nil {
			fail(xproto.StatusError)
			return
		}
		ent = frameEntry{list: list, host: host}
		if m.frameCache[msg.Segid] == nil {
			m.frameCache[msg.Segid] = make(map[frameKey]frameEntry)
		}
		m.frameCache[msg.Segid][key] = ent
	}
	// Pin the backing host frames so the exporter's OS cannot free them
	// while the remote attachment lives (the get_user_pages rationale).
	seg.Owner.AS.Domain().Host().Pin(ent.host)
	seg.attaches++
	m.Stats.AttachesServed++
	m.Stats.PagesServed += pages

	resp.List = ent.list
	m.reply(a, resp)
}

// finishDetach is the owner side of a remote detach: release the pins the
// matching serve took. Pure bookkeeping, charged nothing — the attaching
// side already paid the protocol costs.
func (m *Module) finishDetach(msg *xproto.Message) {
	seg, ok := m.segs[msg.Segid]
	if !ok {
		m.Stats.DroppedMessages++
		return
	}
	offPages := msg.Offset / pageSize
	va := seg.VA + pagetable.VA(msg.Offset)
	if offPages+msg.Pages > seg.PagesN {
		m.Stats.DroppedMessages++
		return
	}
	list, err := seg.Owner.AS.PageTable().ExtentsFor(va, msg.Pages)
	if err != nil {
		m.Stats.DroppedMessages++
		return
	}
	host, err := seg.Owner.AS.Domain().TranslateList(list)
	if err != nil {
		m.Stats.DroppedMessages++
		return
	}
	if err := seg.Owner.AS.Domain().Host().Unpin(host); err != nil {
		m.Stats.DroppedMessages++
		return
	}
	seg.attaches--
	// With the pins for this window released, the exporter's OS may free
	// or remap the frames, so any cached frame lists are no longer
	// trustworthy.
	m.invalidateFrameCache(msg.Segid)
}

// complete matches a response to its pending request and wakes the
// requester. a is the kernel actor handling the response.
func (m *Module) complete(a *sim.Actor, msg *xproto.Message) {
	p, ok := m.pending[msg.ReqID]
	if !ok {
		m.Stats.DroppedMessages++
		return
	}
	p.resp = msg
	a.Unblock(p.waiter)
}
