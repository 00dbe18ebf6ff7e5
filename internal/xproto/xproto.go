// Package xproto defines the XEMEM kernel-to-kernel protocol: enclave and
// segment identifiers, the command messages of Fig. 3 and §4.5, their
// modelled wire size, and the Link/Inbox primitives cross-enclave
// channels plug into.
//
// Messages cross enclaves as values, not bytes. A real channel copies
// each message into a shared region (§4.4–4.5); the model keeps what that
// costs and what it isolates. Every channel charges copy time for
// Message.WireSize (a command header is tens of bytes; an attachment
// response carrying a page-frame list is 16 bytes per extent), and
// Inbox.Put stores a copy of the message, so sender and receiver never
// see each other's later writes.
package xproto

import (
	"fmt"

	"xemem/internal/extent"
	"xemem/internal/sim"
)

// EnclaveID identifies one enclave OS/R instance. IDs are allocated by the
// name server via the §3.2 bootstrap protocol; 0 means "not yet assigned".
type EnclaveID uint32

// NoEnclave is the unassigned enclave ID.
const NoEnclave EnclaveID = 0

// NameServerID is the enclave ID the name server assigns itself.
const NameServerID EnclaveID = 1

// Segid names an exported shared-memory segment. Segids are allocated by
// the name server and globally unique across every enclave (§3.1).
type Segid uint64

// NoSegid is the invalid segment ID.
const NoSegid Segid = 0

// Apid is an access permit ID returned by xpmem_get, scoped to the
// segment's owner.
type Apid uint64

// NoApid is the invalid access permit.
const NoApid Apid = 0

// Perm is the permission mask carried by get/attach requests.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
)

// MsgType enumerates the protocol commands.
type MsgType uint8

// Protocol commands. PingNS/PongNS and the enclave-ID pair implement the
// §3.2 bootstrap; the rest carry the Table 1 operations and name-service
// queries between enclaves.
const (
	MsgInvalid       MsgType = iota
	MsgPingNS                // broadcast: "do you have a path to the name server?"
	MsgPongNS                // reply: "yes, via me"
	MsgEnclaveIDReq          // hop-routed request for a new enclave ID
	MsgEnclaveIDResp         // hop-routed response carrying the new ID
	MsgSegidAllocReq         // xpmem_make: allocate a globally unique segid
	MsgSegidAllocResp
	MsgSegidRemove // xpmem_remove: retire a segid at the name server
	MsgNamePublish // bind a human-readable name to a segid (discoverability)
	MsgNamePublishResp
	MsgNameLookupReq
	MsgNameLookupResp
	MsgGetReq // xpmem_get at a remote owner
	MsgGetResp
	MsgReleaseNotify // xpmem_release at a remote owner
	MsgAttachReq     // xpmem_attach: request the owner's page-frame list
	MsgAttachResp    // carries the frame list back to the attacher
	MsgDetachNotify  // xpmem_detach: drop the owner-side attachment record

	// Sharded name service (cluster tier). Shard-lookup resolves a segid
	// or name to its owning enclave at the responsible shard replica;
	// shard-sync is the primary→backup replication stream for the three
	// mutating operations.
	MsgShardLookupReq
	MsgShardLookupResp
	MsgShardSyncAlloc   // replicate a segid registration (owner in Value)
	MsgShardSyncPublish // replicate a name binding (name → Segid)
	MsgShardSyncRemove  // replicate a segid retirement
)

var msgNames = map[MsgType]string{
	MsgPingNS: "ping-ns", MsgPongNS: "pong-ns",
	MsgEnclaveIDReq: "eid-req", MsgEnclaveIDResp: "eid-resp",
	MsgSegidAllocReq: "segid-alloc-req", MsgSegidAllocResp: "segid-alloc-resp",
	MsgSegidRemove: "segid-remove", MsgNamePublish: "name-publish",
	MsgNamePublishResp: "name-publish-resp",
	MsgNameLookupReq:   "name-lookup-req", MsgNameLookupResp: "name-lookup-resp",
	MsgGetReq: "get-req", MsgGetResp: "get-resp", MsgReleaseNotify: "release",
	MsgAttachReq: "attach-req", MsgAttachResp: "attach-resp", MsgDetachNotify: "detach",
	MsgShardLookupReq: "shard-lookup-req", MsgShardLookupResp: "shard-lookup-resp",
	MsgShardSyncAlloc: "shard-sync-alloc", MsgShardSyncPublish: "shard-sync-publish",
	MsgShardSyncRemove: "shard-sync-remove",
}

func (t MsgType) String() string {
	if s, ok := msgNames[t]; ok {
		return s
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// IsResponse reports whether the type is a response to a tracked request.
func (t MsgType) IsResponse() bool {
	switch t {
	case MsgPongNS, MsgEnclaveIDResp, MsgSegidAllocResp, MsgNamePublishResp, MsgNameLookupResp, MsgGetResp, MsgAttachResp, MsgShardLookupResp:
		return true
	}
	return false
}

// Status is the outcome carried by responses.
type Status uint8

// Response statuses.
const (
	StatusOK Status = iota
	StatusNotFound
	StatusDenied
	StatusError
	// StatusEnclaveDown reports that the segment's owner enclave (or the
	// enclave the request had to transit) has crashed or been torn down.
	StatusEnclaveDown
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNotFound:
		return "not-found"
	case StatusDenied:
		return "denied"
	case StatusEnclaveDown:
		return "enclave-down"
	default:
		return "error"
	}
}

// Message is one protocol command. Fields beyond the header are used per
// type; unused fields stay zero.
type Message struct {
	Type   MsgType
	Status Status
	Src    EnclaveID // requester (0 during enclave-ID bootstrap)
	Dst    EnclaveID // destination enclave (0 = the name server)
	ReqID  uint64    // request/response correlation, allocated by requester
	Segid  Segid
	Apid   Apid
	Offset uint64 // byte offset within the segment (attach)
	Pages  uint64 // page count (attach)
	Perm   Perm
	Value  uint64      // generic payload (allocated IDs, region sizes)
	Name   string      // name-service payloads
	List   extent.List // page-frame list (attach responses)
}

// WireSize reports the modelled wire size in bytes: a 61-byte fixed
// header, the name, and the frame list. Channels charge copy time against
// it, so it is the only part of a message's layout the model depends on.
func (m *Message) WireSize() int {
	return 1 + 1 + 4 + 4 + 8 + 8 + 8 + 8 + 8 + 1 + 8 + 2 + len(m.Name) + m.List.WireSize()
}

// Link is one direction-agnostic endpoint pair between two enclave
// kernels. Send copies a message to the peer, charging the sending actor
// the channel's costs and waking the peer's kernel.
type Link interface {
	// Send delivers m to the peer kernel's inbox.
	Send(a *sim.Actor, m *Message)
	// String names the link for diagnostics ("pisces:linux<->kitten0").
	String() string
}

// Delivery is a received message together with the link it arrived on —
// hop-by-hop routing state is keyed by arrival link (§3.2). Msg is the
// receiver's own copy (see Inbox.Put); nil is a shutdown request.
type Delivery struct {
	Msg *Message
	Via Link
	// At is the virtual time the delivery entered the inbox; the dequeue
	// reports the enqueue→dequeue delay to the world's observer. This is
	// the §5.3 funnel made measurable: with a single kernel worker, every
	// cross-enclave message serializes behind the core-0 handler, and
	// that serialization shows up as inbox residency, not resource wait.
	At sim.Time
}

// Inbox is a kernel's receive queue. Channel implementations Put into it;
// the kernel's message loop (one actor) Gets from it, blocking while
// empty.
type Inbox struct {
	name string
	// reason and queue are the block reason a waiting Get reports and
	// the queue name it gives the observer, built once.
	reason, queue string
	// q[head:] holds the pending deliveries. Dequeue advances head instead
	// of re-slicing q away from its array, so the backing array (and its
	// Delivery slots) is reused once the queue drains — the steady state of
	// a kernel worker that keeps up with its senders.
	q    []Delivery
	head int
	// waiters holds the blocked Gets in arrival order; Put takes the
	// first by shifting the rest down, so the backing array is reused.
	waiters []*sim.Actor
}

// NewInbox returns an empty inbox with a diagnostic name.
func NewInbox(name string) *Inbox {
	return &Inbox{name: name, reason: "inbox " + name, queue: "inbox:" + name}
}

// Put enqueues a copy of m and wakes one waiting kernel actor, if any.
// The caller is the sending/forwarding actor.
//
// The copy is what the channel's shared region holds: later writes to
// either side's Message never reach the other, which matters because
// senders keep and rewrite theirs (a retried request gets a new ReqID, a
// forwarded one a new Dst). The frame list's extents are shared between
// the two copies; that is safe because no holder appends to a list after
// sending it: the owner drops its list after the attach reply, the
// Palacios link sends a freshly translated list, and forwarders never
// touch List.
//
// When the world has a fault injector, Put is the wire-fault point: the
// injector may delay the delivery (the sender absorbs the extra wire
// time, as a stalled IPI would make it) or drop it outright — a
// fault-drop counter lands in the trace, and the sender learns nothing,
// exactly like a lost cross-enclave interrupt. Shutdown poisons (nil m)
// are local teardown control flow, never faulted.
func (in *Inbox) Put(a *sim.Actor, m *Message, via Link) {
	if m != nil {
		if inj := a.World().Injector(); inj != nil {
			drop, delay := inj.DeliveryFault()
			if delay > 0 {
				a.Charge("fault-delay", delay)
			}
			if drop {
				if obs := a.Observer(); obs != nil {
					obs.Count("fault-drop:"+in.name, a, 0)
				}
				return
			}
		}
		cp := *m
		m = &cp
	}
	if in.head > 0 && in.head == len(in.q) {
		in.q = in.q[:0]
		in.head = 0
	}
	in.q = append(in.q, Delivery{Msg: m, Via: via, At: a.Now()})
	if n := len(in.waiters); n > 0 {
		w := in.waiters[0]
		copy(in.waiters, in.waiters[1:])
		in.waiters = in.waiters[:n-1]
		a.Unblock(w)
	}
}

// PutShutdown enqueues a poison delivery (nil Msg): the receiving kernel
// worker exits its loop. Enclave teardown sends one per worker.
func (in *Inbox) PutShutdown(a *sim.Actor) { in.Put(a, nil, nil) }

// Get dequeues the next delivery, blocking the calling actor while the
// inbox is empty. Multiple actors may wait concurrently; each delivery
// goes to exactly one. A Delivery with nil Msg is a shutdown request.
func (in *Inbox) Get(a *sim.Actor) Delivery {
	for in.Len() == 0 {
		in.waiters = append(in.waiters, a)
		a.Block(in.reason)
		// Remove ourselves if a spurious wakeup left us queued twice.
		for i, w := range in.waiters {
			if w == a {
				in.waiters = append(in.waiters[:i], in.waiters[i+1:]...)
				break
			}
		}
	}
	d := in.q[in.head]
	in.q[in.head] = Delivery{} // drop the message reference at the consumed slot
	in.head++
	if in.head == len(in.q) {
		in.q = in.q[:0]
		in.head = 0
	}
	if d.Msg != nil {
		if obs := a.Observer(); obs != nil {
			obs.QueueWait(in.queue, a, d.At, a.Now(), in.Len())
		}
	}
	return d
}

// Queued returns the deliveries not yet dequeued, oldest first. The
// slice aliases the queue: read it, do not keep it.
func (in *Inbox) Queued() []Delivery { return in.q[in.head:] }

// Len reports the number of queued deliveries.
func (in *Inbox) Len() int { return len(in.q) - in.head }
