// Package core implements the XEMEM kernel module — the paper's primary
// contribution (§4). One Module runs inside every enclave OS/R. It
// provides:
//
//   - the XPMEM-compatible segment registry (export, permit, attach,
//     detach state) backing the Table 1 API;
//   - the shared-memory protocol of Fig. 3: segid allocation at the
//     central name server, attachment requests routed to the owning
//     enclave, page-frame lists routed back;
//   - the §3.2 bootstrap: name-server discovery by broadcast, enclave-ID
//     allocation over hop-routed requests, and passive route learning;
//   - message forwarding for arbitrary hierarchical enclave topologies.
//
// The module is OS-agnostic: each enclave kernel (Kitten, Linux, a Linux
// guest under Palacios) plugs in through the OS interface, which performs
// the actual page-table walking and mapping using that kernel's own
// conventions (§3.4, localized address space management).
package core

import (
	"fmt"
	"sort"

	"xemem/internal/extent"
	"xemem/internal/nameserver"
	"xemem/internal/pagetable"
	"xemem/internal/proc"
	"xemem/internal/router"
	"xemem/internal/sim"
	"xemem/internal/xproto"
)

// OS is the hook set an enclave kernel provides to its XEMEM module. All
// methods charge their own simulated costs (the per-page prices differ
// between kernels, which is much of what the evaluation measures).
type OS interface {
	// KernelCore is the core on which kernel-level XEMEM work (message
	// handling, serve-side walks) executes. For the Linux management
	// enclave under Pisces this is core 0 (§5.3).
	KernelCore() *sim.Core

	// WalkForExport generates the frame list (in the kernel's physical
	// domain) backing pages [va, va+pages) of the address space,
	// pinning/populating as required.
	WalkForExport(a *sim.Actor, as *proc.AddressSpace, va pagetable.VA, pages uint64) (extent.List, error)

	// MapRemote maps a frame list received from a remote enclave into the
	// process and returns the new region. The list is already in this
	// kernel's physical domain (cross-domain translation happens in the
	// channel, per Fig. 4).
	MapRemote(a *sim.Actor, p *proc.Process, list extent.List, perm xproto.Perm) (*proc.Region, error)

	// UnmapRemote tears down a region created by MapRemote.
	UnmapRemote(a *sim.Actor, p *proc.Process, r *proc.Region) error

	// AttachLocal attaches pages [off, off+pages) of a locally owned
	// segment using the kernel's local sharing facility (SMARTMAP on
	// Kitten, fault-populated mappings on Linux).
	AttachLocal(a *sim.Actor, seg *Segment, p *proc.Process, offPages, pages uint64, perm xproto.Perm) (*proc.Region, error)

	// DetachLocal tears down a region created by AttachLocal.
	DetachLocal(a *sim.Actor, p *proc.Process, r *proc.Region) error
}

// Segment is one exported address region (the owner-side record).
type Segment struct {
	ID      xproto.Segid
	Owner   *proc.Process
	VA      pagetable.VA
	PagesN  uint64
	Perm    xproto.Perm // maximum permission the owner offers
	Name    string      // published name, if any
	Removed bool

	permits map[xproto.Apid]*Permit
	// attaches counts the live attachments that map the segment: local
	// ones and remote serves, each of which pinned its host frames. Stop
	// refuses while it is nonzero; the world-end audit checks it.
	attaches int
}

// Bytes reports the segment size in bytes.
func (s *Segment) Bytes() uint64 { return s.PagesN * extent.PageSize }

// Permit is an access grant created by xpmem_get.
type Permit struct {
	Apid    xproto.Apid
	Perm    xproto.Perm
	Holder  xproto.EnclaveID // enclave the grant was issued to
	HolderP *proc.Process    // local holder, when Holder is this enclave
}

// Attachment is the attacher-side record of one mapped region.
type Attachment struct {
	Region *proc.Region
	Segid  xproto.Segid
	Apid   xproto.Apid
	Local  bool
	// Owner is the enclave serving a remote attachment's frames; when it
	// crashes the attachment is poisoned.
	Owner xproto.EnclaveID
	// Poisoned marks a remote attachment whose owner enclave crashed: its
	// frames may be reused by whoever reclaims the dead partition, so
	// reads and writes through it fail with ErrEnclaveDown (CheckAccess)
	// and detach skips the notify there is no one left to receive.
	Poisoned bool
	// offset is the byte offset within the segment the attachment
	// covers; a remote detach notification carries it so the owner can
	// release the matching pins.
	offset uint64
	// holder is the process a local attachment maps into (nil for a
	// remote one); the world-end audit walks its page table.
	holder *proc.Process
	// mirror holds the locally allocated frames of a cross-machine
	// attachment (NIC.MirrorFrames); they return to the local zone on
	// detach. Nil for same-machine attachments.
	mirror extent.List
}

// NIC bridges an enclave module to a multi-machine interconnect
// (internal/cluster installs one per module). Frame lists are only
// mappable on the machine whose physical memory they index; when a
// segment's owner lives on another machine, the attacher instead pulls
// the bytes over the fabric into local frames — a one-time RDMA read,
// the distributed extension of the paper's one-time attachment model.
type NIC interface {
	// Remote reports whether enclave owner's memory lives on another
	// machine. Unknown enclaves are local (single-machine behaviour).
	Remote(owner xproto.EnclaveID) bool
	// MirrorFrames materializes the remote owner's frame list on this
	// machine: it charges the fabric transfer and returns freshly
	// allocated local frames holding a copy of the bytes. Only called
	// when Remote(owner) is true.
	MirrorFrames(a *sim.Actor, owner xproto.EnclaveID, list extent.List) (extent.List, error)
	// FreeMirror returns a mirrored attachment's frames to the local
	// zone at detach.
	FreeMirror(list extent.List)
}

// SetNIC installs the interconnect bridge. Call before workload traffic.
func (m *Module) SetNIC(nic NIC) { m.nic = nic }

// grantKey identifies a grant received from a remote owner. Keyed by the
// (segid, apid) pair, not the apid alone: apids are only unique per
// owning enclave.
type grantKey struct {
	segid xproto.Segid
	apid  xproto.Apid
}

// remoteGrant is the attacher-side record of a permit granted by a
// remote owner, kept so Release can fail deterministically on stale or
// foreign apids and skip notifying a crashed owner.
type remoteGrant struct {
	owner  xproto.EnclaveID
	holder *proc.Process
}

// Stats counts protocol activity for the scalability analysis.
type Stats struct {
	MsgsSent        int
	MsgsReceived    int
	MsgsForwarded   int
	BytesSent       int
	AttachesServed  int
	PagesServed     uint64
	AttachesMade    int
	DroppedMessages int
	// Timeouts counts request attempts abandoned at their virtual-time
	// deadline; Retries counts the reissues those timeouts triggered.
	Timeouts int
	Retries  int
	// NSRetries counts backoff waits spent riding out name-server outage
	// windows; NSOutageDrops counts remote requests the name server
	// discarded while down.
	NSRetries     int
	NSOutageDrops int
}

type pendingReq struct {
	waiter *sim.Actor
	resp   *xproto.Message
	// dst is the enclave the request was addressed to (NoEnclave when it
	// was deferred to the name server for resolution); crash fanout uses
	// it to fail requests whose target died.
	dst xproto.EnclaveID
	// answered is the waiter's condition, bound to this entry once: the
	// scheduler keeps a parked condition, so a closure made per request
	// would be a heap allocation per request.
	answered func() bool
}

// Module is one enclave's XEMEM kernel module.
type Module struct {
	name string
	w    *sim.World
	c    *sim.Costs
	os   OS

	R  *router.Router
	In *xproto.Inbox
	NS *nameserver.NS // non-nil when this enclave hosts a name service instance
	// nsRoot marks the enclave hosting the root name server: the enclave-ID
	// allocator and the service every Dst==NoEnclave message routes toward.
	// In the flat deployment nsRoot == (NS != nil); under sharding, shard
	// replicas host NS instances without being the root.
	nsRoot bool

	links        []xproto.Link
	peers        []*Module // the modules at the far end of links, in order
	order        int       // creation index among the world's modules
	kernel       *sim.Actor
	ready        bool
	stopped      bool
	crashed      bool
	pendingPings []pendingPing
	// held is the message the kernel actor has dequeued and not yet
	// finished handling. A world that ends mid-handling leaves it there,
	// and the world-end audit counts it with the inbox's queue.
	held *xproto.Message
	// bootIDReq is the outstanding enclave-ID request during bootstrap (0
	// otherwise).
	bootIDReq uint64

	segs         map[xproto.Segid]*Segment
	attachments  map[*proc.Region]*Attachment
	remoteGrants map[grantKey]*remoteGrant
	pending      map[uint64]*pendingReq
	freeReqs     []*pendingReq // finished pendingReqs, reused by rpcOnce
	nextReq      uint64
	nextApid     xproto.Apid

	// dead records enclaves this module has been told crashed; operations
	// toward them short-circuit instead of messaging a corpse.
	dead map[xproto.EnclaveID]bool
	// poisoned counts attachments invalidated by owner crashes — the
	// CheckAccess fast-path guard.
	poisoned int

	// nic, when non-nil, bridges this enclave to a multi-machine
	// interconnect: attachments whose owner lives on another machine
	// mirror the frames over the fabric instead of mapping them.
	nic NIC
	// shards, when non-nil, switches name resolution to the sharded
	// protocol: segids and names resolve at their home shard replicas and
	// resolved owners are cached under virtual-time leases.
	shards *ShardMap
	// leases is the attacher-side lookup cache: segid → (owner, expiry).
	// Entries drop on expiry, on local Remove, and on owner-crash fanout.
	leases map[xproto.Segid]lease

	Stats Stats
	// ShardStats counts sharded name-service activity; always zero in
	// flat worlds.
	ShardStats ShardStats

	// Trace, when non-nil, observes every message this module sends
	// (after routing, before the link copies it). Tests use it to assert
	// protocol sequences; it costs nothing when nil.
	Trace func(msg *xproto.Message)
}

type pendingPing struct {
	via   xproto.Link
	reqID uint64
}

// New creates a module for one enclave. hostNS selects the enclave that
// hosts the centralized name server (normally the management enclave).
func New(name string, w *sim.World, os OS, hostNS bool) *Module {
	m := &Module{
		name:         name,
		w:            w,
		c:            w.Costs(),
		os:           os,
		R:            router.New(),
		In:           xproto.NewInbox(name),
		segs:         make(map[xproto.Segid]*Segment),
		attachments:  make(map[*proc.Region]*Attachment),
		remoteGrants: make(map[grantKey]*remoteGrant),
		pending:      make(map[uint64]*pendingReq),
		dead:         make(map[xproto.EnclaveID]bool),
		nextReq:      w.NewRNG().Uint64(), // per-module base avoids cross-enclave ReqID collisions
	}
	if hostNS {
		m.NS = nameserver.New()
		m.nsRoot = true
		m.R.SetSelf(xproto.NameServerID)
	}
	m.join()
	return m
}

// Name reports the module's diagnostic name.
func (m *Module) Name() string { return m.name }

// FrameCacheStats returns zero counters: every serve walks the exporter's
// page tables (DESIGN.md §6.3), so there is no frame-list cache to count.
// It stays for the repository benchmark's layer report, which reads it.
func (m *Module) FrameCacheStats() sim.CacheStats { return sim.CacheStats{} }

// World exposes the simulation world.
func (m *Module) World() *sim.World { return m.w }

// EnclaveID reports this enclave's assigned ID (NoEnclave until the
// bootstrap completes).
func (m *Module) EnclaveID() xproto.EnclaveID { return m.R.Self() }

// Connect wires a channel between modules a and b: ab carries a's
// messages to b's inbox, ba b's to a's. Call it before either module
// starts. The modules become peers, which is how the world-end audit
// tells the enclaves of one name-service domain from another's.
func Connect(a, b *Module, ab, ba xproto.Link) {
	a.links = append(a.links, ab)
	b.links = append(b.links, ba)
	a.peers = append(a.peers, b)
	b.peers = append(b.peers, a)
}

// WaitReady polls until the module's kernel finishes bootstrapping — or
// until the enclave crashes, so callers do not poll a corpse forever
// (the subsequent operation then fails with ErrEnclaveDown). A ready
// module returns at once, without building the poll condition that
// every public call would otherwise allocate.
func (m *Module) WaitReady(a *sim.Actor) {
	if m.ready || m.crashed {
		return
	}
	a.PollDeadline(10*sim.Microsecond, sim.Forever, func() bool { return m.ready || m.crashed })
}

// Start spawns the enclave's kernel actor: it bootstraps onto the name
// server (unless this enclave hosts it) and then serves the message loop
// forever.
func (m *Module) Start() {
	if m.kernel != nil {
		panic("core: module started twice")
	}
	m.kernel = m.w.Spawn(m.name+"/kernel", func(a *sim.Actor) {
		a.SetDaemon()
		if m.NS == nil {
			m.bootstrap(a)
		}
		if m.crashed {
			return // bootstrap exhausted its retries or the enclave died booting
		}
		m.ready = true
		m.flushPendingPings(a)
		m.loop(a)
	})
}

// loop serves deliveries until a shutdown poison arrives.
func (m *Module) loop(a *sim.Actor) {
	for {
		msg, via, ok := m.receive(a)
		if !ok {
			if m.stopped {
				return
			}
			continue
		}
		m.handle(a, msg, via)
		m.held = nil
	}
}

// Stop tears the module down (dynamic enclave destruction, §3.2). It
// refuses while any locally owned segment still has live remote
// attachments — their frames are pinned by other enclaves. Routes other
// enclaves hold toward this one go stale; messages they send are dropped,
// as on a real node whose partition was reclaimed.
func (m *Module) Stop(a *sim.Actor) error {
	if m.stopped {
		return fmt.Errorf("core: %s already stopped", m.name)
	}
	for segid, seg := range m.segs {
		if seg.attaches > 0 {
			return fmt.Errorf("core: segment %d still has %d live attachment(s)", segid, seg.attaches)
		}
	}
	if len(m.attachments) > 0 {
		return fmt.Errorf("core: %d local attachment(s) to remote memory still mapped", len(m.attachments))
	}
	m.stopped = true
	m.In.PutShutdown(a)
	return nil
}

// Stopped reports whether the module has been torn down.
func (m *Module) Stopped() bool { return m.stopped }

// Crash kills the module's enclave mid-protocol — the co-kernel dying
// under its processes, not an orderly Stop. Unlike Stop it never refuses:
// live attachments, pinned frames, and in-flight requests are simply
// abandoned, exactly as a kernel panic would leave them. The kernel
// actor drains its shutdown poison and exits; local requesters still
// waiting on responses are woken with StatusEnclaveDown. a is the actor
// performing the crash (normally the fault injector's daemon).
func (m *Module) Crash(a *sim.Actor) {
	if m.stopped {
		return
	}
	m.stopped = true
	m.crashed = true
	m.In.PutShutdown(a)
	m.failPending(a, func(*pendingReq) bool { return true })
}

// OnEnclaveDown is the crash fanout a surviving module receives when
// enclave dead crashes: forget routes through it, invalidate its segids
// at the name server (when this module hosts it), fail pending requests
// addressed to it, and poison attachments whose frames it was serving.
func (m *Module) OnEnclaveDown(a *sim.Actor, dead xproto.EnclaveID) {
	if m.stopped || dead == xproto.NoEnclave {
		return
	}
	m.dead[dead] = true
	m.R.Forget(dead)
	if m.NS != nil {
		m.NS.MarkEnclaveDown(dead)
	}
	if m.shards != nil {
		for segid, l := range m.leases {
			if l.owner == dead {
				delete(m.leases, segid)
			}
		}
	}
	m.failPending(a, func(p *pendingReq) bool { return p.dst == dead })
	for _, att := range m.attachments {
		if !att.Local && att.Owner == dead && !att.Poisoned {
			att.Poisoned = true
			m.poisoned++
		}
	}
	for _, seg := range m.segs {
		for apid, permit := range seg.permits {
			if permit.Holder == dead {
				delete(seg.permits, apid)
			}
		}
	}
}

// AnnounceDown fans m's death out to every other module of its world,
// in creation order: each runs OnEnclaveDown for m's enclave. A crash
// sends it, and so does an orderly teardown, so requests toward a
// destroyed enclave fail with ErrEnclaveDown instead of waiting on it.
func (m *Module) AnnounceDown(a *sim.Actor) {
	for _, o := range registryOf(m.w).mods {
		if o != m {
			o.OnEnclaveDown(a, m.EnclaveID())
		}
	}
}

// failPending completes every pending request matching the predicate
// with StatusEnclaveDown, in ReqID order so wakeup order is independent
// of map iteration.
func (m *Module) failPending(a *sim.Actor, match func(*pendingReq) bool) {
	var ids []uint64
	for id, p := range m.pending {
		if p.resp == nil && match(p) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := m.pending[id]
		p.resp = &xproto.Message{Status: xproto.StatusEnclaveDown}
		a.Unblock(p.waiter) // no-op for polling waiters; they see resp next poll
	}
}

func (m *Module) newReqID() uint64 {
	m.nextReq++
	return m.nextReq
}

// receive blocks for the next delivery, charges receive-side handling
// (IPI handler plus copying the message out of the channel) on the kernel
// core, and returns the delivered message.
func (m *Module) receive(a *sim.Actor) (*xproto.Message, xproto.Link, bool) {
	d := m.In.Get(a)
	if d.Msg == nil {
		return nil, nil, false // shutdown poison
	}
	m.held = d.Msg
	m.Stats.MsgsReceived++
	m.os.KernelCore().Exec(a, m.c.IPIHandler+sim.CopyTime(d.Msg.WireSize(), m.c.ChanBW), "xemem-msg")
	return d.Msg, d.Via, true
}

// sendOn transmits msg on the given link, charging the acting actor the
// fixed per-message kernel cost; the link charges its own transfer costs.
func (m *Module) sendOn(a *sim.Actor, l xproto.Link, msg *xproto.Message) {
	m.Stats.MsgsSent++
	m.Stats.BytesSent += msg.WireSize()
	if m.Trace != nil {
		m.Trace(msg)
	}
	a.Charge("msg-send", m.c.MsgFixed)
	l.Send(a, msg)
}

// route resolves the outgoing link for dst, erroring when undeliverable.
func (m *Module) route(dst xproto.EnclaveID) (xproto.Link, error) {
	l, ok := m.R.Route(dst)
	if !ok {
		return nil, fmt.Errorf("core: %s cannot route to enclave %d", m.name, dst)
	}
	return l, nil
}
