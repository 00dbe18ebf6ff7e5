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

// Sharded reports whether the module resolves names through shards.
func (m *Module) Sharded() bool { return m.shards != nil }

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

// shardCall is the one request path of the sharded name service: it
// sends req to shard k's replicas in order until one answers. Replicas
// known dead are skipped; a replica that times out or turns out down
// advances to the next. A replica this module hosts serves the request
// through local instead of the wire (nil local: never). Every
// failover-worthy error — ErrTimeout for an exhausted list,
// ErrEnclaveDown for a dead replica, the wire error otherwise — is
// attributed to the caller's operation by fail, and the last one is
// returned when the list runs out.
func (m *Module) shardCall(a *sim.Actor, k int, req xproto.Message, pol RetryPolicy,
	fail func(error) error, local func() (*xproto.Message, error)) (*xproto.Message, error) {
	err := fail(ErrTimeout)
	for i, rep := range m.shards.Replicas[k] {
		if i > 0 {
			m.ShardStats.ShardFailovers++
			countShard(a, "shard-failover")
		}
		if local != nil && rep == m.R.Self() && m.localShardServe(k) {
			return local()
		}
		if m.dead[rep] {
			err = fail(ErrEnclaveDown)
			continue
		}
		msg := req
		msg.Dst = rep
		resp, rerr := m.rpc(a, &msg, pol)
		if rerr == nil {
			return resp, nil
		}
		if !errors.Is(rerr, ErrTimeout) && !errors.Is(rerr, ErrEnclaveDown) {
			return nil, rerr
		}
		err = fail(rerr)
	}
	return nil, err
}

// shardLookup resolves segid→owner at the segid's home shard.
func (m *Module) shardLookup(a *sim.Actor, segid xproto.Segid, pol RetryPolicy) (xproto.EnclaveID, error) {
	k := nameserver.ShardOf(segid, m.shardCount())
	m.ShardStats.ShardLookups++
	countShard(a, fmt.Sprintf("shard-route:%d", k))
	fail := func(err error) error { return opErr("shard-lookup", err, segid, xproto.NoApid) }
	resp, err := m.shardCall(a, k, xproto.Message{Type: xproto.MsgShardLookupReq, Segid: segid}, pol, fail, func() (*xproto.Message, error) {
		if werr := m.nsWait(a); werr != nil {
			return nil, fail(werr)
		}
		a.Charge("ns-op", m.c.NSOp)
		owner, ok := m.NS.Owner(segid)
		if !ok {
			return nil, fail(ErrNoSuchSegid)
		}
		if m.NS.EnclaveDown(owner) || m.dead[owner] {
			return nil, fail(ErrEnclaveDown)
		}
		return &xproto.Message{Value: uint64(owner)}, nil
	})
	if err != nil {
		return xproto.NoEnclave, err
	}
	return xproto.EnclaveID(resp.Value), nil
}

// shardRPC resolves the segment's owner and issues a direct request to
// it. If a lease-resolved owner fails to answer, the lease is dropped as
// stale and the request retried once against a fresh resolution — the
// stale-lease repair path. A fresh resolution that still fails is the
// truth: the owner is gone.
func (m *Module) shardRPC(a *sim.Actor, msg *xproto.Message, pol RetryPolicy) (*xproto.Message, error) {
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

// shardAllocSegid allocates a segid in a sharded world. A shard-hosting
// module allocates from its own instance's residue class — owner-local,
// no wire traffic — and replicates the registration to its shard
// siblings. Other modules route the request to a home shard chosen by
// their enclave ID, failing over along its replica list; whichever
// replica serves it allocates from its own residue class.
func (m *Module) shardAllocSegid(a *sim.Actor, pol RetryPolicy) (xproto.Segid, error) {
	if m.NS != nil {
		if err := m.nsWait(a); err != nil {
			return xproto.NoSegid, opErr("make", err, xproto.NoSegid, xproto.NoApid)
		}
		a.Charge("ns-op", m.c.NSOp)
		segid, err := m.NS.AllocSegid(m.R.Self())
		if err != nil {
			return xproto.NoSegid, err
		}
		m.replicateShard(a, &xproto.Message{Type: xproto.MsgShardSyncAlloc, Segid: segid, Value: uint64(m.R.Self())})
		return segid, nil
	}
	k := int(uint64(m.R.Self()) % uint64(m.shardCount()))
	fail := func(err error) error { return opErr("make", err, xproto.NoSegid, xproto.NoApid) }
	resp, err := m.shardCall(a, k, xproto.Message{Type: xproto.MsgSegidAllocReq}, pol, fail, nil)
	if err != nil {
		return xproto.NoSegid, err
	}
	return xproto.Segid(resp.Value), nil
}

// shardPublish binds name→segid at the name's home shard. Failures are
// attributed to the publish even when a replica's wire request failed.
func (m *Module) shardPublish(a *sim.Actor, segid xproto.Segid, name string, pol RetryPolicy) error {
	k := nameserver.ShardOfName(name, m.shardCount())
	countShard(a, fmt.Sprintf("shard-route:%d", k))
	fail := func(err error) error { return &OpError{Op: "publish", Segid: segid, Name: name, Err: sentinelOf(err)} }
	_, err := m.shardCall(a, k, xproto.Message{Type: xproto.MsgNamePublish, Segid: segid, Name: name}, pol, fail, func() (*xproto.Message, error) {
		if werr := m.nsWait(a); werr != nil {
			return nil, fail(werr)
		}
		a.Charge("ns-op", m.c.NSOp)
		if berr := m.NS.BindName(name, segid); berr != nil {
			return nil, berr
		}
		m.replicateShard(a, &xproto.Message{Type: xproto.MsgShardSyncPublish, Segid: segid, Name: name})
		return nil, nil
	})
	return err
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

// shardNameLookup resolves a published name at its home shard, then
// returns the bound segid (whose owner resolves separately, at the
// segid's own home shard).
func (m *Module) shardNameLookup(a *sim.Actor, name string, pol RetryPolicy) (xproto.Segid, error) {
	k := nameserver.ShardOfName(name, m.shardCount())
	m.ShardStats.ShardLookups++
	countShard(a, fmt.Sprintf("shard-route:%d", k))
	fail := func(err error) error {
		var oe *OpError
		if errors.As(err, &oe) {
			return err // a replica's wire error, already attributed
		}
		return &OpError{Op: "lookup", Name: name, Err: err}
	}
	resp, err := m.shardCall(a, k, xproto.Message{Type: xproto.MsgNameLookupReq, Name: name}, pol, fail, func() (*xproto.Message, error) {
		if werr := m.nsWait(a); werr != nil {
			return nil, fail(werr)
		}
		a.Charge("ns-op", m.c.NSOp)
		if segid, ok := m.NS.Lookup(name); ok {
			return &xproto.Message{Segid: segid}, nil
		}
		return nil, fail(ErrNoSuchSegid)
	})
	if err != nil {
		return xproto.NoSegid, err
	}
	return resp.Segid, nil
}

// shardRemove retires a segid at its home shard. The caller is the
// owner; a shard-hosting owner whose instance holds the registration
// retires it locally and replicates, others send the remove to the first
// live replica (which replicates onward). Name bindings on other shards
// are deliberately left to dangle — a lookup through one resolves to a
// segid whose own shard then reports it gone (DESIGN.md §13).
func (m *Module) shardRemove(a *sim.Actor, segid xproto.Segid) error {
	k := nameserver.ShardOf(segid, m.shardCount())
	for _, rep := range m.shards.Replicas[k] {
		if rep == m.R.Self() && m.localShardServe(k) {
			if err := m.nsWait(a); err != nil {
				return opErr("remove", err, segid, xproto.NoApid)
			}
			a.Charge("ns-op", m.c.NSOp)
			if err := m.NS.RemoveSegid(segid, m.R.Self()); err != nil {
				return err
			}
			m.replicateShard(a, &xproto.Message{Type: xproto.MsgShardSyncRemove, Segid: segid})
			return nil
		}
		if m.dead[rep] {
			continue
		}
		msg := &xproto.Message{Type: xproto.MsgSegidRemove, Dst: rep, Segid: segid, Src: m.R.Self()}
		l, err := m.route(rep)
		if err != nil {
			m.Stats.DroppedMessages++
			continue
		}
		m.sendOn(a, l, msg)
		return nil
	}
	return opErr("remove", ErrEnclaveDown, segid, xproto.NoApid)
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
