package core

// Sharded name service (cluster tier). The flat deployment funnels every
// name-service operation to the root enclave; at cluster scale that
// single kernel worker is the collapse point. Under sharding, segids are
// residue-class partitioned (nameserver.ConfigureShard) across shard
// replicas hosted on distinct enclaves, names hash to shards
// independently, and attachers cache resolved owners under virtual-time
// leases. A stale lease — the cached owner crashed or the entry expired
// — surfaces as an attributable *OpError (ErrTimeout / ErrEnclaveDown)
// and is repaired by re-resolving at the shard.
//
// Everything in this file is inert in flat worlds: no module enters any
// of these paths until SetShardMap is called, so pre-cluster digests are
// unchanged byte for byte.

import (
	"errors"
	"fmt"

	"xemem/internal/nameserver"
	"xemem/internal/sim"
	"xemem/internal/xproto"
)

// ShardMap is the cluster-wide shard layout every module shares:
// Replicas[k] lists the enclaves hosting shard k, primary first. A
// segid's home shard is ShardOf(segid, len(Replicas)); a name's is
// ShardOfName. LeaseTTL bounds how long an attacher may trust a cached
// owner resolution.
type ShardMap struct {
	Replicas [][]xproto.EnclaveID
	LeaseTTL sim.Time
}

// lease is one cached segid→owner resolution.
type lease struct {
	owner  xproto.EnclaveID
	expiry sim.Time
}

// ShardStats counts sharded name-service activity.
type ShardStats struct {
	// LeaseHits/LeaseMisses/LeaseStale classify lease-cache probes: a
	// stale probe found an entry that was expired, pointed at a known-dead
	// owner, or was invalidated by an in-flight failure.
	LeaseHits   int
	LeaseMisses int
	LeaseStale  int
	// ShardLookups counts resolutions routed to a shard replica;
	// ShardFailovers counts replica-list advances after a replica failed.
	ShardLookups   int
	ShardFailovers int
	// SyncsSent/SyncsApplied count primary→backup replication messages.
	SyncsSent    int
	SyncsApplied int
}

// SetShardMap installs the cluster's shard layout, switching this module
// to sharded name resolution. Call once, after bootstrap, before any
// segment traffic.
func (m *Module) SetShardMap(sm *ShardMap) {
	if sm == nil || len(sm.Replicas) == 0 {
		panic("core: SetShardMap with empty shard map")
	}
	m.shards = sm
	m.leases = make(map[xproto.Segid]lease)
}

// HostShardNS makes this module host replica r (of nr) of shard k (of
// n): a name-service instance allocating segids in shard k's residue
// class. The root module's existing instance is re-striped in place (it
// keeps hosting enclave-ID allocation); other modules gain a fresh
// instance. Replicas of one shard sub-stripe the class — replica r
// allocates from residue k+r·n mod n·nr, which still homes to shard k
// under ShardOf(·, n) — so concurrent allocations at different replicas
// can never hand out the same segid, even though the replication stream
// between them is asynchronous.
func (m *Module) HostShardNS(k, r, n, nr int) {
	if r < 0 || nr <= 0 || r >= nr {
		panic(fmt.Sprintf("core: shard replica %d of %d", r, nr))
	}
	if m.NS == nil {
		m.NS = nameserver.New()
	}
	m.NS.ConfigureShard(k+r*n, n*nr)
}

// countShard emits a shard/lease observer counter into the trace digest
// (the fault-drop:* pattern: invisible when no observer is installed).
func countShard(a *sim.Actor, name string) {
	if obs := a.Observer(); obs != nil {
		obs.Count(name, a, 0)
	}
}

// shardCount reports the number of shards.
func (m *Module) shardCount() int { return len(m.shards.Replicas) }

// localShardServe reports whether this module can serve shard k's
// requests from its own name-service instance: it is one of the shard's
// replicas (primary state or replicated backup state).
func (m *Module) localShardServe(k int) bool {
	if m.NS == nil {
		return false
	}
	for _, rep := range m.shards.Replicas[k] {
		if rep == m.R.Self() {
			return true
		}
	}
	return false
}

// shardResolveOwner resolves segid→owner, consulting the lease cache
// first. cached reports that the answer came from a lease — the caller's
// cue that a subsequent failure against that owner may be a stale lease
// worth one re-resolution.
func (m *Module) shardResolveOwner(a *sim.Actor, segid xproto.Segid, pol RetryPolicy) (owner xproto.EnclaveID, cached bool, err error) {
	a.Charge("lease-check", m.c.LeaseCheck)
	if l, ok := m.leases[segid]; ok {
		if a.Now() < l.expiry && !m.dead[l.owner] {
			m.ShardStats.LeaseHits++
			countShard(a, "lease-hit")
			return l.owner, true, nil
		}
		delete(m.leases, segid)
		m.ShardStats.LeaseStale++
		countShard(a, "lease-stale")
	} else {
		m.ShardStats.LeaseMisses++
		countShard(a, "lease-miss")
	}
	owner, err = m.shardLookup(a, segid, pol)
	if err != nil {
		return xproto.NoEnclave, false, err
	}
	m.leases[segid] = lease{owner: owner, expiry: a.Now() + m.shards.LeaseTTL}
	return owner, false, nil
}

// dropLease invalidates a cached resolution after an in-flight failure
// against its owner, counting it as stale.
func (m *Module) dropLease(a *sim.Actor, segid xproto.Segid) {
	if _, ok := m.leases[segid]; !ok {
		return
	}
	delete(m.leases, segid)
	m.ShardStats.LeaseStale++
	countShard(a, "lease-stale")
}

// shardCall is the request path of the sharded name service: it sends
// req to its home shard's replicas in order until one answers. A segid
// allocation homes to a shard chosen by this module's enclave ID — or, on
// a shard host, to the host's own instance and residue class; a publish
// or name lookup homes to the name's shard, an owner lookup to the
// segid's. Replicas known dead are skipped; a replica that times out or
// turns out down advances to the next, and the last such error is
// returned when the list runs out. A replica this module hosts serves
// the request in place.
func (m *Module) shardCall(a *sim.Actor, req *xproto.Message, pol RetryPolicy) (*xproto.Message, error) {
	n := m.shardCount()
	var k int
	switch req.Type {
	case xproto.MsgSegidAllocReq:
		if m.NS != nil {
			return m.nsLocal(a, req)
		}
		k = int(uint64(m.R.Self()) % uint64(n))
	case xproto.MsgShardLookupReq:
		k = nameserver.ShardOf(req.Segid, n)
		m.ShardStats.ShardLookups++
	case xproto.MsgNameLookupReq:
		m.ShardStats.ShardLookups++
		fallthrough
	default: // name publish
		k = nameserver.ShardOfName(req.Name, n)
	}
	if req.Type != xproto.MsgSegidAllocReq {
		countShard(a, fmt.Sprintf("shard-route:%d", k))
	}
	var err error = ErrTimeout
	for i, rep := range m.shards.Replicas[k] {
		if i > 0 {
			m.ShardStats.ShardFailovers++
			countShard(a, "shard-failover")
		}
		if rep == m.R.Self() && m.localShardServe(k) {
			return m.nsLocal(a, req)
		}
		if m.dead[rep] {
			err = ErrEnclaveDown
			continue
		}
		msg := *req
		msg.Dst = rep
		resp, rerr := m.rpc(a, &msg, pol)
		if rerr == nil || !errors.Is(rerr, ErrTimeout) && !errors.Is(rerr, ErrEnclaveDown) {
			return resp, rerr
		}
		err = rerr
	}
	return nil, err
}

// shardLookup resolves segid→owner at the segid's home shard.
func (m *Module) shardLookup(a *sim.Actor, segid xproto.Segid, pol RetryPolicy) (xproto.EnclaveID, error) {
	resp, err := m.nsCall(a, "shard-lookup", &xproto.Message{Type: xproto.MsgShardLookupReq, Segid: segid}, pol)
	if err != nil {
		return xproto.NoEnclave, err
	}
	return xproto.EnclaveID(resp.Value), nil
}

// segRPC issues a segment request (get, attach) to the segment's owner.
// A flat world sends it toward the name server, which forwards it. A
// sharded world resolves the owner and sends it a direct request; if a
// lease-resolved owner fails to answer, the lease is dropped as stale and
// the request retried once against a fresh resolution — the stale-lease
// repair path. A fresh resolution that still fails is the truth: the
// owner is gone.
func (m *Module) segRPC(a *sim.Actor, msg *xproto.Message, pol RetryPolicy) (*xproto.Message, error) {
	if m.shards == nil {
		return m.rpc(a, msg, pol)
	}
	op := msg.Type.String()
	owner, cached, err := m.shardResolveOwner(a, msg.Segid, pol)
	if err != nil {
		return nil, opErr(op, err, msg.Segid, msg.Apid)
	}
	if m.dead[owner] {
		return nil, opErr(op, ErrEnclaveDown, msg.Segid, msg.Apid)
	}
	msg.Dst = owner
	resp, err := m.rpc(a, msg, pol)
	if err != nil && cached && (errors.Is(err, ErrTimeout) || errors.Is(err, ErrEnclaveDown)) {
		m.dropLease(a, msg.Segid)
		owner2, lerr := m.shardLookup(a, msg.Segid, pol)
		if lerr != nil {
			return nil, opErr(op, lerr, msg.Segid, msg.Apid)
		}
		m.leases[msg.Segid] = lease{owner: owner2, expiry: a.Now() + m.shards.LeaseTTL}
		if owner2 == owner {
			return nil, err // the lease was right; the owner really is unreachable
		}
		msg.Dst = owner2
		return m.rpc(a, msg, pol)
	}
	return resp, err
}

// shardRemove sends a segid remove to the segid's home shard. The caller
// is the owner; a shard-hosting owner whose instance holds the
// registration retires it in place, others send the remove to the first
// live replica, fire-and-forget. Either way the serving replica
// replicates onward. Name bindings on other shards are deliberately left
// to dangle — a lookup through one resolves to a segid whose own shard
// then reports it gone (DESIGN.md §13).
func (m *Module) shardRemove(a *sim.Actor, req *xproto.Message) error {
	k := nameserver.ShardOf(req.Segid, m.shardCount())
	for _, rep := range m.shards.Replicas[k] {
		if rep == m.R.Self() && m.localShardServe(k) {
			_, err := m.nsLocal(a, req)
			return err
		}
		if m.dead[rep] {
			continue
		}
		l, err := m.route(rep)
		if err != nil {
			m.Stats.DroppedMessages++
			continue
		}
		msg := *req
		msg.Dst, msg.Src = rep, m.R.Self()
		m.sendOn(a, l, &msg)
		return nil
	}
	return ErrEnclaveDown
}

// replicateShard fans a mutation out to the rest of its shard's replica
// set, fire-and-forget (the kernel actor a is serving the mutation).
// Losing a sync to a dropped message leaves a backup behind exactly as a
// real asynchronous replication stream would.
func (m *Module) replicateShard(a *sim.Actor, msg *xproto.Message) {
	if m.shards == nil {
		return
	}
	var k int
	if msg.Type == xproto.MsgShardSyncPublish {
		k = nameserver.ShardOfName(msg.Name, m.shardCount())
	} else {
		k = nameserver.ShardOf(msg.Segid, m.shardCount())
	}
	msg.Src = m.R.Self()
	for _, rep := range m.shards.Replicas[k] {
		if rep == m.R.Self() || m.dead[rep] {
			continue
		}
		cp := *msg
		cp.Dst = rep
		l, err := m.route(rep)
		if err != nil {
			m.Stats.DroppedMessages++
			continue
		}
		m.ShardStats.SyncsSent++
		countShard(a, "shard-sync")
		m.sendOn(a, l, &cp)
	}
}

// isShardServiceMsg reports message types a shard replica serves through
// handleNS when they arrive addressed directly to it (in flat worlds
// these types only ever travel Dst==NoEnclave toward the root).
func isShardServiceMsg(t xproto.MsgType) bool {
	switch t {
	case xproto.MsgSegidAllocReq, xproto.MsgSegidRemove, xproto.MsgNamePublish,
		xproto.MsgNameLookupReq, xproto.MsgShardLookupReq,
		xproto.MsgShardSyncAlloc, xproto.MsgShardSyncPublish, xproto.MsgShardSyncRemove:
		return true
	}
	return false
}
