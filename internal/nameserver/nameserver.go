// Package nameserver implements the centralized name server of §3.1: the
// single authority for enclave-ID allocation, globally unique segment-ID
// allocation, the segid→owner map used to route attachment commands, and
// the name registry that gives processes discoverability without local
// IPC constructs.
//
// The name server is deliberately passive state — the paper implements it
// "as a component of our XEMEM kernel module", and so do we: the enclave
// module that hosts it (normally the management enclave's) invokes these
// methods from its message loop.
package nameserver

import (
	"fmt"
	"sort"

	"xemem/internal/sim/snapshot"
	"xemem/internal/xproto"
)

// NS is the name server's state.
type NS struct {
	nextEnclave xproto.EnclaveID
	nextSegid   xproto.Segid
	// allocStep is the segid allocation stride: 1 for the flat deployment,
	// the shard count for a shard replica (ConfigureShard), so every shard
	// allocates within its own residue class and a segid's home shard is
	// computable locally (ShardOf) without a directory.
	allocStep xproto.Segid //xemem:nosnap -- deployment config (ConfigureShard stride), fixed by the world build, not run state
	owners    map[xproto.Segid]xproto.EnclaveID
	names     map[string]xproto.Segid
	// nameOf is the reverse index of names, so retiring a segid drops its
	// bindings without scanning the whole registry. A segid can carry
	// several names (publish is idempotent per name, first-come).
	nameOf map[xproto.Segid][]string //xemem:nosnap -- derived reverse index of the encoded names map; encoding it would add no information
	// down records crashed enclaves. Their segid registrations are kept —
	// a lookup of a dead owner's segment must report "enclave down", not
	// "no such segment" — but requests toward them are answered with
	// StatusEnclaveDown instead of being forwarded.
	down map[xproto.EnclaveID]bool

	// Counters for the scalability analysis.
	EnclaveAllocs int
	SegidAllocs   int
	Lookups       int
	Forwards      int
	// EnclavesDowned counts crash notifications processed.
	EnclavesDowned int
}

// New returns an empty name server. The hosting enclave holds ID 1; the
// first allocated enclave ID is 2. Segids start above zero so a zero
// Segid is always invalid.
func New() *NS {
	return &NS{
		nextEnclave: xproto.NameServerID + 1,
		nextSegid:   0x1000,
		allocStep:   1,
		owners:      make(map[xproto.Segid]xproto.EnclaveID),
		names:       make(map[string]xproto.Segid),
		nameOf:      make(map[xproto.Segid][]string),
	}
}

// ConfigureShard turns this instance into shard k of n: segid allocation
// starts at 0x1000·n+k and strides by n, so every segid this shard hands
// out satisfies ShardOf(segid, n) == k. Call it once, before the first
// allocation (the stride is configuration, not snapshot state).
func (ns *NS) ConfigureShard(k, n int) {
	if n <= 0 || k < 0 || k >= n {
		panic(fmt.Sprintf("nameserver: shard %d of %d", k, n))
	}
	ns.allocStep = xproto.Segid(n)
	ns.nextSegid = xproto.Segid(0x1000*n + k)
}

// ShardOf reports the home shard of a segid under n-way residue-class
// partitioning.
func ShardOf(s xproto.Segid, n int) int { return int(uint64(s) % uint64(n)) }

// ShardOfName reports the home shard of a published name: an FNV-1a hash
// of the name, reduced mod n. Names and segids generally live on
// different shards — a name binding resolves to a segid whose
// registration then resolves at the segid's own home shard.
func ShardOfName(name string, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

// AllocEnclaveID hands out the next enclave ID.
func (ns *NS) AllocEnclaveID() xproto.EnclaveID {
	id := ns.nextEnclave
	ns.nextEnclave++
	ns.EnclaveAllocs++
	return id
}

// AllocSegid allocates a globally unique segment ID owned by the given
// enclave.
func (ns *NS) AllocSegid(owner xproto.EnclaveID) (xproto.Segid, error) {
	if owner == xproto.NoEnclave {
		return xproto.NoSegid, fmt.Errorf("nameserver: segid requested by unidentified enclave")
	}
	s := ns.nextSegid
	ns.nextSegid += ns.allocStep
	ns.owners[s] = owner
	ns.SegidAllocs++
	return s, nil
}

// SyncRegister installs a segid registration replicated from another
// shard replica (MsgShardSyncAlloc). Unlike AllocSegid it does not touch
// the allocation cursor — the primary allocated; the backup records.
func (ns *NS) SyncRegister(s xproto.Segid, owner xproto.EnclaveID) {
	ns.owners[s] = owner
}

// SyncRemove retires a segid replicated from another shard replica
// (MsgShardSyncRemove): no ownership check — the primary validated.
func (ns *NS) SyncRemove(s xproto.Segid) {
	delete(ns.owners, s)
	for _, name := range ns.nameOf[s] {
		delete(ns.names, name)
	}
	delete(ns.nameOf, s)
}

// BindName binds a name to a segid without validating the registration:
// under sharding, a name's home shard is generally not the segid's home
// shard, so the binding shard cannot see the registration. First-come
// single-writer, like Publish.
func (ns *NS) BindName(name string, s xproto.Segid) error {
	if name == "" {
		return fmt.Errorf("nameserver: empty name")
	}
	if bound, taken := ns.names[name]; taken {
		if bound != s {
			return fmt.Errorf("nameserver: name %q already bound to segid %d", name, bound)
		}
		return nil
	}
	ns.names[name] = s
	ns.nameOf[s] = append(ns.nameOf[s], name)
	return nil
}

// Owner reports the enclave owning segid.
func (ns *NS) Owner(s xproto.Segid) (xproto.EnclaveID, bool) {
	e, ok := ns.owners[s]
	return e, ok
}

// RemoveSegid retires a segid. Only the owning enclave may remove it. Any
// names bound to it are dropped.
func (ns *NS) RemoveSegid(s xproto.Segid, requester xproto.EnclaveID) error {
	owner, ok := ns.owners[s]
	if !ok {
		return fmt.Errorf("nameserver: unknown segid %d", s)
	}
	if owner != requester {
		return fmt.Errorf("nameserver: enclave %d cannot remove segid %d owned by %d", requester, s, owner)
	}
	delete(ns.owners, s)
	for _, name := range ns.nameOf[s] {
		delete(ns.names, name)
	}
	delete(ns.nameOf, s)
	return nil
}

// Publish binds a human-readable name to a segid so processes in other
// enclaves can discover it. The segid must exist and be published by its
// owner; names are first-come single-writer.
func (ns *NS) Publish(name string, s xproto.Segid, requester xproto.EnclaveID) error {
	if name == "" {
		return fmt.Errorf("nameserver: empty name")
	}
	owner, ok := ns.owners[s]
	if !ok {
		return fmt.Errorf("nameserver: publish of unknown segid %d", s)
	}
	if owner != requester {
		return fmt.Errorf("nameserver: enclave %d cannot publish segid %d owned by %d", requester, s, owner)
	}
	if bound, taken := ns.names[name]; taken {
		if bound != s {
			return fmt.Errorf("nameserver: name %q already bound to segid %d", name, bound)
		}
		return nil // re-publish of the same binding: already indexed
	}
	ns.names[name] = s
	ns.nameOf[s] = append(ns.nameOf[s], name)
	return nil
}

// Lookup resolves a published name to its segid.
func (ns *NS) Lookup(name string) (xproto.Segid, bool) {
	ns.Lookups++
	s, ok := ns.names[name]
	return s, ok
}

// Names lists published names, sorted (diagnostics).
func (ns *NS) Names() []string {
	out := make([]string, 0, len(ns.names))
	for n := range ns.names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// LiveSegids reports the number of live segment registrations.
func (ns *NS) LiveSegids() int { return len(ns.owners) }

// MarkEnclaveDown records that enclave e crashed. Its segid
// registrations are deliberately retained: subsequent gets and attaches
// of its segments fail with an attributable "enclave down" rather than
// a confusing "no such segment", and the IDs stay burned (segids are
// never reused, so a stale apid can never alias a new segment).
func (ns *NS) MarkEnclaveDown(e xproto.EnclaveID) {
	if e == xproto.NoEnclave || ns.down[e] {
		return
	}
	if ns.down == nil {
		ns.down = make(map[xproto.EnclaveID]bool)
	}
	ns.down[e] = true
	ns.EnclavesDowned++
}

// EnclaveDown reports whether e has been marked crashed.
func (ns *NS) EnclaveDown(e xproto.EnclaveID) bool { return ns.down[e] }

// EncodeSnapshot appends the name server's full state to e: allocation
// cursors, counters, and the registries with every map collected and
// sorted first. The nameOf reverse index is not encoded — it is derivable
// from the name registry.
func (ns *NS) EncodeSnapshot(e *snapshot.Enc) {
	e.U64(uint64(ns.nextEnclave))
	e.U64(uint64(ns.nextSegid))
	e.U64(uint64(ns.EnclaveAllocs))
	e.U64(uint64(ns.SegidAllocs))
	e.U64(uint64(ns.Lookups))
	e.U64(uint64(ns.Forwards))
	e.U64(uint64(ns.EnclavesDowned))
	segids := make([]xproto.Segid, 0, len(ns.owners))
	for s := range ns.owners {
		segids = append(segids, s)
	}
	sort.Slice(segids, func(i, j int) bool { return segids[i] < segids[j] })
	e.U64(uint64(len(segids)))
	for _, s := range segids {
		e.U64(uint64(s))
		e.U64(uint64(ns.owners[s]))
	}
	names := ns.Names()
	e.U64(uint64(len(names)))
	for _, n := range names {
		e.Str(n)
		e.U64(uint64(ns.names[n]))
	}
	downs := make([]xproto.EnclaveID, 0, len(ns.down))
	for id := range ns.down {
		downs = append(downs, id)
	}
	sort.Slice(downs, func(i, j int) bool { return downs[i] < downs[j] })
	e.U64(uint64(len(downs)))
	for _, id := range downs {
		e.U64(uint64(id))
	}
}
