package core

// The name-service path. Every name-service command — segid allocation,
// removal, publish, name lookup, owner lookup and the shard replication
// syncs — is applied by one function, nsServe, whether it arrived on the
// wire (handleNS) or is served from this module's own instance
// (nsLocal). Callers issue commands through one function, nsCall, which
// alone decides where the command goes, so a command fails with the same
// typed error from every enclave.

import (
	"errors"

	"xemem/internal/sim"
	"xemem/internal/xproto"
)

// nsCall issues one name-service command and returns its response. In
// sharded worlds the command goes to its home shard (shardCall,
// shardRemove); a module hosting the root serves it from its own
// instance; every other module sends it along the routed path to the
// root — as a request under pol, or fire-and-forget for a remove. A
// failure is wrapped once as an *OpError labelled op, carrying the
// command's segid and name around the sentinel cause.
func (m *Module) nsCall(a *sim.Actor, op string, req *xproto.Message, pol RetryPolicy) (*xproto.Message, error) {
	var resp *xproto.Message
	var err error
	switch {
	case m.shards != nil && req.Type == xproto.MsgSegidRemove:
		err = m.shardRemove(a, req)
	case m.shards != nil:
		resp, err = m.shardCall(a, req, pol)
	case m.nsRoot:
		resp, err = m.nsLocal(a, req)
	case req.Type == xproto.MsgSegidRemove:
		m.notify(a, req)
	default:
		resp, err = m.rpc(a, req, pol)
	}
	if err != nil {
		return nil, &OpError{Op: op, Segid: req.Segid, Name: req.Name, Err: sentinelOf(err)}
	}
	return resp, nil
}

// sentinelOf extracts an error's sentinel cause for rewrapping under a
// different operation label.
func sentinelOf(err error) error {
	var oe *OpError
	if errors.As(err, &oe) {
		return oe.Err
	}
	return err
}

// nsLocal serves req from this module's own name-service instance, as
// this module: the outage gate, the ns-op charge, then nsServe. A failed
// command returns the sentinel its wire response would carry.
func (m *Module) nsLocal(a *sim.Actor, req *xproto.Message) (*xproto.Message, error) {
	if err := m.nsWait(a); err != nil {
		return nil, err
	}
	a.Charge("ns-op", m.c.NSOp)
	req.Src = m.R.Self()
	resp := m.nsServe(a, req)
	return resp, statusErr(resp.Status)
}

// nsWait gates a locally served name-server operation on injected
// outage windows: while the name server is down, the caller backs off
// exponentially (bounded), returning ErrTimeout if the outage outlasts
// the budget. A nil injector — the zero-fault world — costs one branch.
func (m *Module) nsWait(a *sim.Actor) error {
	inj := m.w.Injector()
	if inj == nil || !inj.NameServerDown(a.Now()) {
		return nil
	}
	wait := nsOutageBaseWait
	for i := 0; i < nsOutageRetries; i++ {
		a.Charge("ns-outage-wait", wait)
		m.Stats.NSRetries++
		if !inj.NameServerDown(a.Now()) {
			return nil
		}
		wait *= 2
	}
	m.Stats.Timeouts++
	return ErrTimeout
}

// Name-server outage backoff: 20 µs doubling 10 times rides out ~20 ms
// of unavailability — matching the default RPC retry budget — before the
// caller gives up with ErrTimeout.
const (
	nsOutageBaseWait = 20 * sim.Microsecond
	nsOutageRetries  = 10
)

// handleNS processes commands addressed to the name server. Segment
// commands (get/attach/release/detach) are resolved through the
// segid→enclave map and forwarded to the owner, per Fig. 3; every other
// command is answered (or, one-way, dropped on failure) as nsServe
// applies it.
//
// During an injected name-server outage window every request is dropped
// on the floor — the service is down, there is no one to even say so —
// and requesters recover via their timeout/retry policies once the
// window passes.
func (m *Module) handleNS(a *sim.Actor, msg *xproto.Message) {
	if inj := m.w.Injector(); inj != nil && inj.NameServerDown(a.Now()) {
		m.Stats.NSOutageDrops++
		if obs := a.Observer(); obs != nil {
			obs.Count("fault-ns-drop", a, 0)
		}
		return
	}
	a.Charge("ns-op", m.c.NSOp)
	switch msg.Type {
	case xproto.MsgGetReq, xproto.MsgAttachReq, xproto.MsgReleaseNotify, xproto.MsgDetachNotify:
		// The common case needs no response: forward to a resolved owner.
		// A refusal falls through to nsServe, which words it.
		if owner, st := m.nsOwner(msg.Segid); st == xproto.StatusOK {
			if owner != m.R.Self() {
				msg.Dst = owner
				m.NS.Forwards++
				m.forward(a, msg, owner)
			} else {
				m.handleOwner(a, msg)
			}
			return
		}
	}
	resp := m.nsServe(a, msg)
	if resp.Type != xproto.MsgInvalid {
		m.reply(a, resp)
	} else if resp.Status != xproto.StatusOK {
		m.Stats.DroppedMessages++
	}
}

// nsServe applies one name-service command from msg.Src to this
// module's instance. It returns the response addressed back to the
// requester, with the outcome in its Status; a one-way command's
// response has type MsgInvalid and is never sent. A segment command
// (get/attach/release/detach) is answered with its owner in Value: the
// root resolves its own requests' destinations this way, and handleNS
// answers a refusal with it.
func (m *Module) nsServe(a *sim.Actor, msg *xproto.Message) *xproto.Message {
	resp := &xproto.Message{Type: respType(msg.Type), ReqID: msg.ReqID, Dst: msg.Src, Src: m.R.Self()}
	switch msg.Type {
	case xproto.MsgSegidAllocReq:
		segid, err := m.NS.AllocSegid(msg.Src)
		if err != nil {
			resp.Status = xproto.StatusError
			break
		}
		resp.Value = uint64(segid)
		m.replicateShard(a, &xproto.Message{Type: xproto.MsgShardSyncAlloc, Segid: segid, Value: uint64(msg.Src)})

	case xproto.MsgSegidRemove:
		if err := m.NS.RemoveSegid(msg.Segid, msg.Src); err != nil {
			resp.Status = xproto.StatusNotFound
			break
		}
		m.replicateShard(a, &xproto.Message{Type: xproto.MsgShardSyncRemove, Segid: msg.Segid})

	case xproto.MsgNamePublish:
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
			break
		}
		m.replicateShard(a, &xproto.Message{Type: xproto.MsgShardSyncPublish, Segid: msg.Segid, Name: msg.Name})

	case xproto.MsgNameLookupReq:
		var ok bool
		if resp.Segid, ok = m.NS.Lookup(msg.Name); !ok {
			resp.Status = xproto.StatusNotFound
		}

	case xproto.MsgShardLookupReq:
		resp.Segid = msg.Segid
		fallthrough
	case xproto.MsgGetReq, xproto.MsgAttachReq, xproto.MsgReleaseNotify, xproto.MsgDetachNotify:
		owner, st := m.nsOwner(msg.Segid)
		resp.Value, resp.Status = uint64(owner), st

	case xproto.MsgShardSyncAlloc:
		m.NS.SyncRegister(msg.Segid, xproto.EnclaveID(msg.Value))
		m.ShardStats.SyncsApplied++

	case xproto.MsgShardSyncPublish:
		if err := m.NS.BindName(msg.Name, msg.Segid); err != nil {
			resp.Status = xproto.StatusDenied
			break
		}
		m.ShardStats.SyncsApplied++

	case xproto.MsgShardSyncRemove:
		m.NS.SyncRemove(msg.Segid)
		m.ShardStats.SyncsApplied++

	default:
		resp.Status = xproto.StatusError
	}
	return resp
}

// nsOwner resolves segid to its owning enclave. The registrations of a
// crashed enclave linger so the failure stays attributable: its segids
// resolve to StatusEnclaveDown, not StatusNotFound.
func (m *Module) nsOwner(segid xproto.Segid) (xproto.EnclaveID, xproto.Status) {
	owner, ok := m.NS.Owner(segid)
	switch {
	case !ok:
		return xproto.NoEnclave, xproto.StatusNotFound
	case m.NS.EnclaveDown(owner):
		return xproto.NoEnclave, xproto.StatusEnclaveDown
	}
	return owner, xproto.StatusOK
}

// respType maps a request to its response type: MsgInvalid for one-way
// commands.
func respType(req xproto.MsgType) xproto.MsgType {
	switch req {
	case xproto.MsgSegidAllocReq:
		return xproto.MsgSegidAllocResp
	case xproto.MsgNamePublish:
		return xproto.MsgNamePublishResp
	case xproto.MsgNameLookupReq:
		return xproto.MsgNameLookupResp
	case xproto.MsgShardLookupReq:
		return xproto.MsgShardLookupResp
	case xproto.MsgGetReq:
		return xproto.MsgGetResp
	case xproto.MsgAttachReq:
		return xproto.MsgAttachResp
	default:
		return xproto.MsgInvalid
	}
}
