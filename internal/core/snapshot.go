package core

// Snapshot support for the XEMEM kernel module (DESIGN.md §12). The
// module's section serializes every piece of protocol state two runs must
// agree on to fingerprint the same, with all maps collected and sorted
// before encoding so the bytes are a pure function of the simulated
// history.
//
// Two things are deliberately not captured:
//
//   - host pointers (links, regions, processes, actors) — encoded by
//     stable surrogate (enclave ID, region base VA, PID);
//   - dead segment tombstones (Removed, no attachments, no permits) —
//     they are unreachable by the protocol, so the section holds only
//     state a future protocol step can observe.

import (
	"sort"

	"xemem/internal/sim/snapshot"
	"xemem/internal/xproto"
)

// segDead reports whether a segment is a tombstone no future protocol
// step can observe.
func segDead(s *Segment) bool {
	return s.Removed && s.attaches == 0 && len(s.permits) == 0
}

// EncodeSnapshot appends the module's protocol state to e.
func (m *Module) EncodeSnapshot(e *snapshot.Enc) {
	e.Str(m.name)
	e.U64(uint64(m.R.Self()))
	e.Bool(m.ready)
	e.Bool(m.stopped)
	e.Bool(m.crashed)
	e.U64(m.nextReq)
	e.U64(uint64(m.nextApid))
	e.U64(uint64(m.poisoned))
	m.encodeStats(e)
	if m.NS != nil {
		e.Bool(true)
		m.NS.EncodeSnapshot(e)
	} else {
		e.Bool(false)
	}

	// Sharded name-service state, appended only when sharding is enabled
	// so flat-world sections stay byte-identical to every pinned digest
	// and repro bundle.
	if m.shards != nil {
		e.U64(uint64(len(m.shards.Replicas)))
		for _, reps := range m.shards.Replicas {
			e.U64(uint64(len(reps)))
			for _, id := range reps {
				e.U64(uint64(id))
			}
		}
		e.I64(int64(m.shards.LeaseTTL))
		lsegs := make([]xproto.Segid, 0, len(m.leases))
		for s := range m.leases {
			lsegs = append(lsegs, s)
		}
		sort.Slice(lsegs, func(i, j int) bool { return lsegs[i] < lsegs[j] })
		e.U64(uint64(len(lsegs)))
		for _, s := range lsegs {
			l := m.leases[s]
			e.U64(uint64(s))
			e.U64(uint64(l.owner))
			e.I64(int64(l.expiry))
		}
		ss := &m.ShardStats
		e.U64(uint64(ss.LeaseHits))
		e.U64(uint64(ss.LeaseMisses))
		e.U64(uint64(ss.LeaseStale))
		e.U64(uint64(ss.ShardLookups))
		e.U64(uint64(ss.ShardFailovers))
		e.U64(uint64(ss.SyncsSent))
		e.U64(uint64(ss.SyncsApplied))
	}

	// Router: learned routes by enclave ID (the link itself is a host
	// pointer; reachability is what must match) and outstanding hops.
	known := m.R.KnownEnclaves()
	e.U64(uint64(len(known)))
	for _, id := range known {
		e.U64(uint64(id))
	}
	hops := m.R.PendingHops()
	e.U64(uint64(len(hops)))
	for _, id := range hops {
		e.U64(id)
	}
	e.U64(uint64(m.In.Len()))

	// Segments, live only, in segid order.
	segids := make([]xproto.Segid, 0, len(m.segs))
	for id, s := range m.segs {
		if !segDead(s) {
			segids = append(segids, id)
		}
	}
	sort.Slice(segids, func(i, j int) bool { return segids[i] < segids[j] })
	e.U64(uint64(len(segids)))
	for _, id := range segids {
		s := m.segs[id]
		e.U64(uint64(s.ID))
		e.U64(uint64(s.Owner.PID))
		e.U64(uint64(s.VA))
		e.U64(s.PagesN)
		e.U64(uint64(s.Perm))
		e.Str(s.Name)
		e.Bool(s.Removed)
		e.U64(uint64(s.attaches))
		apids := make([]xproto.Apid, 0, len(s.permits))
		for apid := range s.permits {
			apids = append(apids, apid)
		}
		sort.Slice(apids, func(i, j int) bool { return apids[i] < apids[j] })
		e.U64(uint64(len(apids)))
		for _, apid := range apids {
			p := s.permits[apid]
			e.U64(uint64(p.Apid))
			e.U64(uint64(p.Perm))
			e.U64(uint64(p.Holder))
			if p.HolderP != nil {
				e.U64(uint64(p.HolderP.PID))
			} else {
				e.U64(0)
			}
		}
	}

	// Attachments, sorted by (segid, apid, region base).
	atts := make([]*Attachment, 0, len(m.attachments))
	for _, att := range m.attachments {
		atts = append(atts, att)
	}
	sort.Slice(atts, func(i, j int) bool {
		a, b := atts[i], atts[j]
		if a.Segid != b.Segid {
			return a.Segid < b.Segid
		}
		if a.Apid != b.Apid {
			return a.Apid < b.Apid
		}
		return a.Region.Base < b.Region.Base
	})
	e.U64(uint64(len(atts)))
	for _, att := range atts {
		e.U64(uint64(att.Segid))
		e.U64(uint64(att.Apid))
		e.U64(uint64(att.Region.Base))
		e.Bool(att.Local)
		e.U64(uint64(att.Owner))
		e.Bool(att.Poisoned)
		e.U64(att.offset)
	}

	// Remote grants, sorted by (segid, apid).
	gkeys := make([]grantKey, 0, len(m.remoteGrants))
	for k := range m.remoteGrants {
		gkeys = append(gkeys, k)
	}
	sort.Slice(gkeys, func(i, j int) bool {
		if gkeys[i].segid != gkeys[j].segid {
			return gkeys[i].segid < gkeys[j].segid
		}
		return gkeys[i].apid < gkeys[j].apid
	})
	e.U64(uint64(len(gkeys)))
	for _, k := range gkeys {
		g := m.remoteGrants[k]
		e.U64(uint64(k.segid))
		e.U64(uint64(k.apid))
		e.U64(uint64(g.owner))
		if g.holder != nil {
			e.U64(uint64(g.holder.PID))
		} else {
			e.U64(0)
		}
	}

	// Pending requests, by ReqID; the waiter is a host pointer, the
	// (reqID, dst, responded) triple is the protocol-visible part.
	reqs := make([]uint64, 0, len(m.pending))
	for id := range m.pending {
		reqs = append(reqs, id)
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i] < reqs[j] })
	e.U64(uint64(len(reqs)))
	for _, id := range reqs {
		p := m.pending[id]
		e.U64(id)
		e.U64(uint64(p.dst))
		e.Bool(p.resp != nil)
	}

	// Crash knowledge, sorted.
	deads := make([]xproto.EnclaveID, 0, len(m.dead))
	for id := range m.dead {
		deads = append(deads, id)
	}
	sort.Slice(deads, func(i, j int) bool { return deads[i] < deads[j] })
	e.U64(uint64(len(deads)))
	for _, id := range deads {
		e.U64(uint64(id))
	}
}

// encodeStats appends the Stats block in fixed field order.
func (m *Module) encodeStats(e *snapshot.Enc) {
	s := &m.Stats
	e.U64(uint64(s.MsgsSent))
	e.U64(uint64(s.MsgsReceived))
	e.U64(uint64(s.MsgsForwarded))
	e.U64(uint64(s.BytesSent))
	e.U64(uint64(s.AttachesServed))
	e.U64(s.PagesServed)
	e.U64(uint64(s.AttachesMade))
	e.U64(uint64(s.DecodeErrors))
	e.U64(uint64(s.DroppedMessages))
	e.U64(uint64(s.Timeouts))
	e.U64(uint64(s.Retries))
	e.U64(uint64(s.NSRetries))
	e.U64(uint64(s.NSOutageDrops))
}
