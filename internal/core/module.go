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
	// OSName identifies the kernel ("kitten0", "linux", "vm1-guest").
	OSName() string

	// KernelCore is the core on which kernel-level XEMEM work (message
	// handling, serve-side walks) executes. For the Linux management
	// enclave under Pisces this is core 0 (§5.3).
	KernelCore() *sim.Core

	// WalkForExport generates the frame list (in the kernel's physical
	// domain) backing pages [va, va+pages) of the address space,
	// pinning/populating as required.
	WalkForExport(a *sim.Actor, as *proc.AddressSpace, va pagetable.VA, pages uint64) (extent.List, error)

	// ExportWalkCost charges exactly what a repeat WalkForExport over
	// pages already-populated pages would charge, without doing the
	// host-side walk. The module's frame-list cache calls it on a hit so
	// cached serves keep simulated time bit-identical to re-walking.
	ExportWalkCost(a *sim.Actor, pages uint64)

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
	// pinned tracks host-frame pins taken per remote serve so detach can
	// release them.
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
	// offset is the byte offset within the segment a remote attachment
	// covers; the detach notification carries it so the owner can release
	// the matching pins.
	offset uint64
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
	DecodeErrors    int
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
	// FrameCache counts serve-side frame-list cache traffic.
	FrameCache sim.CacheStats
}

// frameKey identifies one attach window of a segment in the serve-side
// frame-list cache.
type frameKey struct {
	offPages uint64
	pages    uint64
}

// frameEntry is a memoized serve: the exported frame list and its host
// translation, exactly as the walk produced them.
type frameEntry struct {
	list extent.List
	host extent.List
}

type pendingReq struct {
	waiter *sim.Actor
	resp   *xproto.Message
	// dst is the enclave the request was addressed to (NoEnclave when it
	// was deferred to the name server for resolution); crash fanout uses
	// it to fail requests whose target died.
	dst xproto.EnclaveID
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

	links        []xproto.Link //xemem:nosnap -- topology wiring installed by AddLink at build time
	kernel       *sim.Actor    //xemem:nosnap -- host-side actor handle, not serializable state
	workers      int           //xemem:nosnap -- build-time configuration (SetKernelWorkers)
	ready        bool
	stopped      bool
	crashed      bool
	pendingPings []pendingPing //xemem:nosnap -- bootstrap-transient: drained the moment the kernel turns ready, before the world can quiesce for a snapshot
	// bootIDReq is the outstanding enclave-ID request during bootstrap (0
	// otherwise).
	bootIDReq uint64 //xemem:nosnap -- bootstrap-transient: zeroed when the enclave ID arrives, before the world can quiesce for a snapshot

	segs         map[xproto.Segid]*Segment
	attachments  map[*proc.Region]*Attachment
	remoteGrants map[grantKey]*remoteGrant
	pending      map[uint64]*pendingReq
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
	nic NIC //xemem:nosnap -- fabric wiring installed by SetNIC at build time
	// shards, when non-nil, switches name resolution to the sharded
	// protocol: segids and names resolve at their home shard replicas and
	// resolved owners are cached under virtual-time leases.
	shards *ShardMap
	// leases is the attacher-side lookup cache: segid → (owner, expiry).
	// Entries drop on expiry, on local Remove, and on owner-crash fanout.
	leases map[xproto.Segid]lease

	// frameCache memoizes serve-side walks per segment: repeat attaches of
	// the same window reuse the frame list instead of re-walking the
	// exporter's page tables. Entries are dropped when a remote attachment
	// detaches or the segment is removed — the two events after which the
	// exporter's pins or the segment itself may change.
	frameCache map[xproto.Segid]map[frameKey]frameEntry

	Stats Stats
	// ShardStats counts sharded name-service activity; always zero (and
	// absent from snapshots) in flat worlds.
	ShardStats ShardStats

	// Trace, when non-nil, observes every message this module sends
	// (after routing, before encoding). Tests use it to assert protocol
	// sequences; it costs nothing when nil.
	Trace func(msg *xproto.Message)
}

type pendingPing struct {
	via   xproto.Link
	reqID uint64
}

// New creates a module for one enclave. hostNS selects the enclave that
// hosts the centralized name server (normally the management enclave).
func New(name string, w *sim.World, costs *sim.Costs, os OS, hostNS bool) *Module {
	m := &Module{
		name:         name,
		w:            w,
		c:            costs,
		os:           os,
		R:            router.New(),
		In:           xproto.NewInbox(name),
		segs:         make(map[xproto.Segid]*Segment),
		attachments:  make(map[*proc.Region]*Attachment),
		remoteGrants: make(map[grantKey]*remoteGrant),
		pending:      make(map[uint64]*pendingReq),
		dead:         make(map[xproto.EnclaveID]bool),
		frameCache:   make(map[xproto.Segid]map[frameKey]frameEntry),
		nextReq:      w.NewRNG().Uint64(), // per-module base avoids cross-enclave ReqID collisions
	}
	if hostNS {
		m.NS = nameserver.New()
		m.nsRoot = true
		m.R.SetSelf(xproto.NameServerID)
	}
	w.AddSnapshotComponent("mod/"+name, m.EncodeSnapshot)
	return m
}

// Name reports the module's diagnostic name.
func (m *Module) Name() string { return m.name }

// FrameCacheStats reports the serve-side frame-list cache counters.
func (m *Module) FrameCacheStats() sim.CacheStats { return m.Stats.FrameCache }

// invalidateFrameCache drops every cached frame list of segid.
func (m *Module) invalidateFrameCache(segid xproto.Segid) {
	if ents, ok := m.frameCache[segid]; ok {
		if len(ents) > 0 {
			m.Stats.FrameCache.Invalidations++
		}
		delete(m.frameCache, segid)
	}
}

// Costs exposes the cost model (used by channel implementations).
func (m *Module) Costs() *sim.Costs { return m.c }

// World exposes the simulation world.
func (m *Module) World() *sim.World { return m.w }

// OS exposes the owning kernel's hook set.
func (m *Module) OS() OS { return m.os }

// EnclaveID reports this enclave's assigned ID (NoEnclave until the
// bootstrap completes).
func (m *Module) EnclaveID() xproto.EnclaveID { return m.R.Self() }

// AddLink wires a communication channel endpoint into the module. Links
// must be added before Start.
func (m *Module) AddLink(l xproto.Link) { m.links = append(m.links, l) }

// Links reports the module's channel endpoints.
func (m *Module) Links() []xproto.Link { return m.links }

// Ready reports whether the bootstrap has completed.
func (m *Module) Ready() bool { return m.ready }

// WaitReady polls until the module's kernel finishes bootstrapping — or
// until the enclave crashes, so callers do not poll a corpse forever
// (the subsequent operation then fails with ErrEnclaveDown).
func (m *Module) WaitReady(a *sim.Actor) {
	a.Poll(10*sim.Microsecond, func() bool { return m.ready || m.crashed })
}

// SetKernelWorkers configures how many kernel actors serve the message
// loop — the paper's §5.3 future work ("more intelligent mechanisms for
// interrupt handling"): with 1 (the default, and the Pisces behaviour the
// paper measures), every cross-enclave message is handled on the kernel
// core; with n > 1, handling spreads over the OS's kernel cores. Must be
// called before Start.
func (m *Module) SetKernelWorkers(n int) {
	if m.kernel != nil {
		panic("core: SetKernelWorkers after Start")
	}
	if n < 1 {
		n = 1
	}
	m.workers = n
}

// kernelCores resolves the cores the workers handle messages on: the
// OS's kernel core for worker 0, spreading over KernelCores when the OS
// exposes more.
func (m *Module) kernelCores() []*sim.Core {
	type multi interface{ KernelCores() []*sim.Core }
	if mc, ok := m.os.(multi); ok {
		if cores := mc.KernelCores(); len(cores) > 0 {
			return cores
		}
	}
	return []*sim.Core{m.os.KernelCore()}
}

// Start spawns the enclave's kernel actor(s): worker 0 bootstraps onto
// the name server (unless this enclave hosts it) and then all workers
// serve the message loop forever.
func (m *Module) Start() {
	if m.kernel != nil {
		panic("core: module started twice")
	}
	if m.workers == 0 {
		m.workers = 1
	}
	cores := m.kernelCores()
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
		m.loop(a, cores[0])
	})
	for i := 1; i < m.workers; i++ {
		core := cores[i%len(cores)]
		m.w.Spawn(fmt.Sprintf("%s/kernel%d", m.name, i), func(a *sim.Actor) {
			a.SetDaemon()
			m.WaitReady(a)
			m.loop(a, core)
		})
	}
}

// loop serves deliveries until a shutdown poison arrives, charging
// receive handling on core.
func (m *Module) loop(a *sim.Actor, core *sim.Core) {
	for {
		msg, via, ok := m.receiveOn(a, core)
		if !ok {
			if m.stopped {
				return
			}
			continue
		}
		m.handle(a, msg, via)
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
	for i := 0; i < m.workers; i++ {
		m.In.PutShutdown(a)
	}
	return nil
}

// Stopped reports whether the module has been torn down.
func (m *Module) Stopped() bool { return m.stopped }

// Crashed reports whether the module's enclave died by fault injection
// (or a failed bootstrap) rather than an orderly Stop.
func (m *Module) Crashed() bool { return m.crashed }

// Crash kills the module's enclave mid-protocol — the co-kernel dying
// under its processes, not an orderly Stop. Unlike Stop it never refuses:
// live attachments, pinned frames, and in-flight requests are simply
// abandoned, exactly as a kernel panic would leave them. The kernel
// workers drain their shutdown poisons and exit; local requesters still
// waiting on responses are woken with StatusEnclaveDown. a is the actor
// performing the crash (normally the fault injector's daemon).
func (m *Module) Crash(a *sim.Actor) {
	if m.stopped {
		return
	}
	m.stopped = true
	m.crashed = true
	for i := 0; i < m.workers; i++ {
		m.In.PutShutdown(a)
	}
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

// receive blocks for the next delivery, charges receive-side handling on
// the kernel core, and decodes it.
func (m *Module) receive(a *sim.Actor) (*xproto.Message, xproto.Link, bool) {
	return m.receiveOn(a, m.os.KernelCore())
}

// receiveOn is receive with an explicit handling core (distributed
// interrupt handling runs workers on several cores).
func (m *Module) receiveOn(a *sim.Actor, core *sim.Core) (*xproto.Message, xproto.Link, bool) {
	d := m.In.Get(a)
	if d.Buf == nil {
		return nil, nil, false // shutdown poison
	}
	m.Stats.MsgsReceived++
	core.Exec(a, m.c.IPIHandler+sim.CopyTime(len(d.Buf), m.c.ChanBW), "xemem-msg")
	msg, err := xproto.Decode(d.Buf)
	// Decode copies every variable-length field, so the wire buffer is
	// dead either way — hand it back to this inbox's senders.
	m.In.Recycle(d.Buf)
	if err != nil {
		m.Stats.DecodeErrors++
		return nil, nil, false
	}
	return msg, d.Via, true
}

// sendOn encodes and transmits msg on the given link, charging the acting
// actor the fixed per-message kernel cost; the link charges its own
// transfer costs.
func (m *Module) sendOn(a *sim.Actor, l xproto.Link, msg *xproto.Message) {
	m.Stats.MsgsSent++
	m.Stats.BytesSent += msg.EncodedSize()
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
