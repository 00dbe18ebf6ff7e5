package core

// The world-end audit of the protocol state a world's modules share
// (DESIGN.md §12.2). Every module joins its world's registry at New,
// and the registry's one "core" audit checks, per name-service domain,
// what no module can check alone: attach counts and host pins against
// the attachments every attacher holds, local attachments against the
// exporter's frames, and the name service, routers and shard layout
// against the modules.
//
// A crashed enclave abandons its state mid-protocol, as a kernel panic
// would: its segments, the pins taken to serve them and its own tables
// are exempt. Attachments a crashed attacher held still count, since
// their owners keep serving them.

import (
	"cmp"
	"fmt"
	"slices"

	"xemem/internal/extent"
	"xemem/internal/mem"
	"xemem/internal/nameserver"
	"xemem/internal/pagetable"
	"xemem/internal/sim"
	"xemem/internal/xproto"
)

// registry is the set of modules built in one world, in creation order
// (Module.order indexes it).
type registry struct{ mods []*Module }

type registryKey struct{}

// registryOf returns w's registry, creating it (and registering the
// world's core audit) on first use.
func registryOf(w *sim.World) *registry {
	return w.Shared(registryKey{}, func() any {
		r := &registry{}
		w.AddAudit("core", r.audit)
		return r
	}).(*registry)
}

// join adds m to its world's registry.
func (m *Module) join() {
	r := registryOf(m.w)
	m.order = len(r.mods)
	r.mods = append(r.mods, m)
}

// Named returns the module of w called name, nil when w has none.
func Named(w *sim.World, name string) *Module {
	for _, m := range registryOf(w).mods {
		if m.name == name {
			return m
		}
	}
	return nil
}

// audit checks each domain of the world — the modules Connect joined by
// channels, which share one enclave-ID space — in creation order.
func (r *registry) audit() error {
	seen := make(map[*Module]bool)
	for _, m := range r.mods {
		if seen[m] {
			continue
		}
		seen[m] = true
		dom := []*Module{m}
		for i := 0; i < len(dom); i++ {
			for _, p := range dom[i].peers {
				if !seen[p] {
					seen[p] = true
					dom = append(dom, p)
				}
			}
		}
		slices.SortFunc(dom, func(a, b *Module) int { return a.order - b.order })
		if err := auditDomain(dom); err != nil {
			return err
		}
	}
	return nil
}

// segKey names a segment within a domain: its owner enclave and segid.
type segKey struct {
	owner xproto.EnclaveID
	segid xproto.Segid
}

// auditDomain runs the cross-module checks over one domain and reports
// the first violation, prefixed with the module or memory it concerns.
func auditDomain(dom []*Module) error {
	byID := make(map[xproto.EnclaveID]*Module)
	for _, m := range dom {
		id := m.R.Self()
		if id == xproto.NoEnclave {
			continue // never booted: it holds no protocol state
		}
		if o, dup := byID[id]; dup {
			return fmt.Errorf("modules %s and %s both hold enclave ID %d", o.name, m.name, id)
		}
		byID[id] = m
	}

	// A world ends when its last workload actor does, which can leave a
	// one-way notice queued in an inbox or held by a kernel actor
	// stopped mid-handling. It counts as handled: a detach notice has
	// released its attachment, a remove notice retired its segid.
	detaching := make(map[xproto.Segid]int)
	removing := make(map[xproto.Segid]bool)
	note := func(msg *xproto.Message) {
		switch {
		case msg == nil:
		case msg.Type == xproto.MsgDetachNotify:
			detaching[msg.Segid]++
		case msg.Type == xproto.MsgSegidRemove:
			removing[msg.Segid] = true
		}
	}
	for _, m := range dom {
		note(m.held)
		for _, d := range m.In.Queued() {
			note(d.Msg)
		}
	}

	// served counts each segment's remote attachments, held anywhere,
	// plus its unhandled detach notices: each holds the owner's pins.
	// local counts the owner's own local attachments. A remote
	// attachment its owner's crash poisoned no longer counts.
	served := make(map[segKey]int)
	local := make(map[segKey]int)
	for _, m := range dom {
		for _, att := range m.sortedAttachments() {
			if att.Local {
				local[segKey{m.R.Self(), att.Segid}]++
			} else if !att.Poisoned {
				served[segKey{att.Owner, att.Segid}]++
			}
		}
	}

	// pinning sums the served attachments per host memory; a host where
	// an owner crashed is exempt from the pin check.
	var hosts []*mem.PhysMem
	pinning := make(map[*mem.PhysMem]int)
	exempt := make(map[*mem.PhysMem]bool)
	for _, m := range dom {
		for _, id := range sortedKeys(m.segs) {
			seg, k := m.segs[id], segKey{m.R.Self(), id}
			served[k] += detaching[id]
			h := seg.Owner.AS.Domain().Host()
			if _, ok := pinning[h]; !ok {
				hosts = append(hosts, h)
			}
			pinning[h] += served[k]
			exempt[h] = exempt[h] || m.crashed
			if n := local[k] + served[k]; !m.crashed && seg.attaches != n {
				return fmt.Errorf("module %s: segment %d: attaches is %d, but %d live attachment(s) map it", m.name, id, seg.attaches, n)
			}
		}
		if m.crashed {
			continue
		}
		if err := m.auditTables(byID); err != nil {
			return fmt.Errorf("module %s: %w", m.name, err)
		}
	}
	for _, h := range hosts {
		if pins := h.PinnedExtents(); !exempt[h] && pinning[h] == 0 && len(pins) > 0 {
			return fmt.Errorf("host memory %s: %d extent(s) still pinned with every attachment detached, first %v", h.Name(), len(pins), pins[0])
		}
	}
	return auditNames(dom, byID, removing)
}

// auditTables checks m's own tables: each page a local attachment has
// mapped resolves to the frame the exporter maps at the same segment
// offset, and the router routes only to live enclaves of the domain,
// never to itself, with no hop-routed request outstanding.
func (m *Module) auditTables(byID map[xproto.EnclaveID]*Module) error {
	for _, att := range m.sortedAttachments() {
		seg := m.segs[att.Segid]
		if !att.Local || seg == nil {
			continue
		}
		t, owner := att.holder.AS.PageTable(), seg.Owner.AS.PageTable()
		src := seg.VA + pagetable.VA(att.offset)
		for i := uint64(0); i < att.Region.Pages(); i++ {
			off := pagetable.VA(i * extent.PageSize)
			f, _, _, mapped := t.Walk(att.Region.Base + off)
			if g, _, _, ok := owner.Walk(src + off); mapped && (!ok || g != f) {
				return fmt.Errorf("local attachment of segid %d: page %d maps frame %#x, but the exporter's is %#x", att.Segid, i, uint64(f), uint64(g))
			}
		}
	}
	for _, id := range m.R.KnownEnclaves() {
		switch {
		case id == m.R.Self():
			return fmt.Errorf("router holds a route to its own enclave %d", id)
		case byID[id] == nil:
			return fmt.Errorf("router holds a route to enclave %d, which no module holds", id)
		case m.dead[id]:
			return fmt.Errorf("router still routes to enclave %d, which it knows crashed", id)
		}
	}
	if hops := m.R.PendingHops(); len(hops) > 0 {
		return fmt.Errorf("router has %d hop-routed request(s) outstanding, first %d", len(hops), hops[0])
	}
	return nil
}

// auditNames checks the name service against the modules. Each
// instance's own indexes agree; each registration names a segment its
// owner holds, at an instance that serves the segid's shard; and each
// live segment is registered, its published name bound, at the
// instance that answers for it: the root, or the shard's primary.
// Registrations of crashed owners are kept by design, and backups learn
// of removals asynchronously, so only the answering instance must have
// dropped a removed segment. Under sharding every module shares one
// map, every replica hosts its shard, and every lease names the true
// owner.
func auditNames(dom []*Module, byID map[xproto.EnclaveID]*Module, removing map[xproto.Segid]bool) error {
	var shards *ShardMap
	for _, m := range dom {
		if shards != nil && m.shards != nil && m.shards != shards {
			return fmt.Errorf("module %s: holds a shard map other modules do not share", m.name)
		}
		shards = cmp.Or(shards, m.shards)
	}
	segShard, nameShard := func(xproto.Segid) int { return 0 }, func(string) int { return 0 }
	answering := func(int) *Module { return byID[xproto.NameServerID] }
	if shards != nil {
		n := len(shards.Replicas)
		segShard = func(s xproto.Segid) int { return nameserver.ShardOf(s, n) }
		nameShard = func(name string) int { return nameserver.ShardOfName(name, n) }
		answering = func(k int) *Module { return byID[shards.Replicas[k][0]] }
	}

	for _, m := range dom {
		if m.NS == nil || m.crashed {
			continue
		}
		if err := m.NS.Audit(); err != nil {
			return fmt.Errorf("module %s: name server: %w", m.name, err)
		}
		for _, s := range m.NS.Segids() {
			owner, _ := m.NS.Owner(s)
			o := byID[owner]
			var seg *Segment
			if o != nil {
				seg = o.segs[s]
			}
			switch {
			case m.NS.EnclaveDown(owner) || (o != nil && o.crashed):
			case seg == nil:
				return fmt.Errorf("module %s: name server registers segid %d to enclave %d, which does not hold it", m.name, s, owner)
			case seg.Removed && !removing[s] && answering(segShard(s)) == m:
				return fmt.Errorf("module %s: name server still registers segid %d, which its owner removed", m.name, s)
			case shards != nil && !m.localShardServe(segShard(s)):
				return fmt.Errorf("module %s: name server registers segid %d outside the shards it serves", m.name, s)
			}
		}
	}

	for _, o := range dom {
		for _, id := range sortedKeys(o.segs) {
			seg := o.segs[id]
			if o.crashed || seg.Removed {
				continue
			}
			if a := answering(segShard(id)); a != nil && !a.crashed {
				if owner, ok := a.NS.Owner(id); !ok || owner != o.R.Self() {
					return fmt.Errorf("module %s: live segment %d is not registered to it at the name server", o.name, id)
				}
			}
			if a := answering(nameShard(seg.Name)); seg.Name != "" && a != nil && !a.crashed {
				if s, ok := a.NS.Binding(seg.Name); !ok || s != id {
					return fmt.Errorf("module %s: segment %d's name %q is not bound to it at the name server", o.name, id, seg.Name)
				}
			}
		}
	}
	if shards == nil {
		return nil
	}
	for k, reps := range shards.Replicas {
		for _, id := range reps {
			if m := byID[id]; m != nil && !m.crashed && !m.localShardServe(k) {
				return fmt.Errorf("shard %d: replica enclave %d (%s) hosts no instance of it", k, id, m.name)
			}
		}
	}
	for _, m := range dom {
		for _, s := range sortedKeys(m.leases) {
			if o := byID[m.leases[s].owner]; !m.crashed && (o == nil || o.segs[s] == nil) {
				return fmt.Errorf("module %s: lease for segid %d names enclave %d, which does not own it", m.name, s, m.leases[s].owner)
			}
		}
	}
	return nil
}

// sortedAttachments lists m's attachments by (segid, apid, base).
func (m *Module) sortedAttachments() []*Attachment {
	atts := make([]*Attachment, 0, len(m.attachments))
	for _, att := range m.attachments {
		atts = append(atts, att)
	}
	slices.SortFunc(atts, func(a, b *Attachment) int {
		return cmp.Or(cmp.Compare(a.Segid, b.Segid), cmp.Compare(a.Apid, b.Apid), cmp.Compare(a.Region.Base, b.Region.Base))
	})
	return atts
}

// sortedKeys lists a map's keys in order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
