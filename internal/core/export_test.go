package core

import "xemem/internal/xproto"

// BumpAttaches raises a segment's attach count without an attachment,
// for the audit's mutation tests.
func BumpAttaches(m *Module, segid xproto.Segid, d int) { m.segs[segid].attaches += d }

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
