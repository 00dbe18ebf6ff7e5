package core

import (
	"xemem/internal/sim"
	"xemem/internal/xproto"
)

// BumpAttaches raises a segment's attach count without an attachment,
// for the audit's mutation tests.
func BumpAttaches(m *Module, segid xproto.Segid, d int) { m.segs[segid].attaches += d }

// Links reports the module's channel endpoints.
func (m *Module) Links() []xproto.Link { return m.links }

// Attaches reports a segment's attach count.
func Attaches(m *Module, segid xproto.Segid) int { return m.segs[segid].attaches }

// NotifyDetach sends owner a detach notice for pages pages at offset
// bytes into segid, from m and addressed straight to owner as a sharded
// world's Detach does, with no attachment behind it: the owner-side drop
// tests forge the notices a confused peer could send.
func NotifyDetach(m *Module, a *sim.Actor, owner xproto.EnclaveID, segid xproto.Segid, offset, pages uint64) {
	l, err := m.route(owner)
	if err != nil {
		panic(err)
	}
	m.sendOn(a, l, &xproto.Message{
		Type: xproto.MsgDetachNotify, Dst: owner, Src: m.R.Self(),
		Segid: segid, Offset: offset, Pages: pages,
	})
}

// SetLease caches a segid→owner resolution at m, for the audit's
// mutation tests; owner NoEnclave drops the entry.
func SetLease(m *Module, segid xproto.Segid, owner xproto.EnclaveID) {
	if owner == xproto.NoEnclave {
		delete(m.leases, segid)
		return
	}
	m.leases[segid] = lease{owner: owner, expiry: m.w.Now()}
}

// RPCReason is the block reason a request of type t waits under.
func RPCReason(t xproto.MsgType) string { return rpcReasons[t] }
