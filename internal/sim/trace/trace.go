// Package trace is the simulator's observability layer: a sim.Observer
// that turns the engine's event stream — cost-charge spans, resource
// acquisitions with queueing delays, receive-queue waits, attribution
// counters, scheduler dispatches — into per-operation and per-resource
// metrics, Chrome trace_event JSON for chrome://tracing / Perfetto, and
// compact digests that double as golden regression artifacts.
//
// Everything the tracer records is derived from virtual time and the
// deterministic schedule, never from the host clock, so for a fixed seed
// the full event stream — and therefore every exported artifact — is
// bit-for-bit reproducible. The golden-trace tests in
// internal/experiments rely on exactly that.
package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/bits"
	"sort"
	"strings"

	"xemem/internal/sim"
)

// EventKind discriminates trace events.
type EventKind uint8

// Event kinds.
const (
	EvSpan      EventKind = iota // a Charge cost span
	EvAcquire                    // a Resource/Core acquisition (service span + wait)
	EvQueueWait                  // a receive-queue residency interval
	EvCount                      // a named time attribution with no span
)

// Event is one recorded observation. Field use varies by kind:
//
//	EvSpan:      Op, Start, Dur
//	EvAcquire:   Op (tag), Res, Start (service start), Dur (service), Wait, Depth
//	EvQueueWait: Op (queue name), Start (enqueue), Wait (residency), Depth
//	EvCount:     Op (counter name), Dur (attributed time)
type Event struct {
	Kind  EventKind
	Actor int
	Op    string
	Res   string
	Start sim.Time
	Dur   sim.Time
	Wait  sim.Time
	Depth int
}

// OpStat accumulates count and total virtual time for one label.
type OpStat struct {
	Count uint64   `json:"count"`
	Time  sim.Time `json:"time_ns"`
}

// Hist is a base-2 logarithmic histogram of durations: bucket i counts
// durations d with bits.Len64(d) == i, i.e. d in [2^(i-1), 2^i) ns
// (bucket 0 holds zero durations).
type Hist struct {
	buckets [65]uint64
}

// Add records one duration.
func (h *Hist) Add(d sim.Time) {
	if d < 0 {
		d = 0
	}
	h.buckets[bits.Len64(uint64(d))]++
}

// HistBucket is one non-empty histogram bucket for JSON export: Count
// durations in [LoNs, HiNs).
type HistBucket struct {
	LoNs  int64  `json:"lo_ns"`
	HiNs  int64  `json:"hi_ns"`
	Count uint64 `json:"count"`
}

// Buckets returns the non-empty buckets in ascending duration order.
func (h *Hist) Buckets() []HistBucket {
	var out []HistBucket
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		lo, hi := int64(0), int64(1)
		if i > 0 {
			lo = int64(1) << (i - 1)
			hi = int64(1) << i
		}
		out = append(out, HistBucket{LoNs: lo, HiNs: hi, Count: n})
	}
	return out
}

// ResourceMetrics is the contention profile of one Resource/Core: how
// long it was occupied and by what, how long acquirers queued, and how
// deep the queue got. Utilization is Busy over the final virtual time.
type ResourceMetrics struct {
	Busy      sim.Time `json:"busy_ns"`
	Wait      sim.Time `json:"wait_ns"`
	Acquires  uint64   `json:"acquires"`
	Contended uint64   `json:"contended"`
	MaxDepth  int      `json:"max_queue_depth"`
	WaitHist  Hist     `json:"-"`
	// ByOp splits service time by operation tag.
	ByOp map[string]*OpStat `json:"-"`
}

// QueueMetrics is the residency profile of one receive queue (inbox):
// how long deliveries sat before a worker dequeued them. For a module
// with a single kernel worker this is the §5.3 core-0 funnel: every
// message's serialization delay behind the IPI handler lands here.
type QueueMetrics struct {
	Waits    uint64   `json:"waits"`
	WaitTime sim.Time `json:"wait_ns"`
	MaxDepth int      `json:"max_depth"`
	WaitHist Hist     `json:"-"`
}

// Tracer implements sim.Observer. Create one per world with NewTracer
// and install it with World.SetObserver. All accumulation is pure
// host-side bookkeeping; the simulated schedule is untouched.
type Tracer struct {
	label string
	keep  bool

	events []Event
	digest hash.Hash
	buf    []byte

	nSpans      uint64
	nAcquires   uint64
	nQueueWaits uint64
	nCounts     uint64
	dispatches  uint64

	spanTime sim.Time // total charged time observed (spans + acquire service)
	waitTime sim.Time // total queueing delay (resource waits + queue residency)
	final    sim.Time // latest virtual timestamp observed

	actors   map[int]string
	ops      map[string]*OpStat
	res      map[string]*ResourceMetrics
	queues   map[string]*QueueMetrics
	counters map[string]*OpStat
}

// NewTracer returns an empty tracer labelled label (the experiment
// configuration it observes, e.g. "fig6/enclaves=2/size=1024MB"). Event
// retention is on by default; SetKeepEvents(false) drops raw events and
// keeps only metrics and the running digest (Chrome export then becomes
// unavailable).
func NewTracer(label string) *Tracer {
	return &Tracer{
		label:    label,
		keep:     true,
		digest:   sha256.New(),
		actors:   make(map[int]string),
		ops:      make(map[string]*OpStat),
		res:      make(map[string]*ResourceMetrics),
		queues:   make(map[string]*QueueMetrics),
		counters: make(map[string]*OpStat),
	}
}

// SetKeepEvents toggles raw event retention. Metrics and the digest are
// unaffected; only WriteChromeTrace needs retained events.
func (t *Tracer) SetKeepEvents(on bool) { t.keep = on }

// Events returns the retained raw events (nil when retention is off).
func (t *Tracer) Events() []Event { return t.events }

// hashEvent folds an event into the running digest. The encoding is
// fixed-width little-endian with length-prefixed strings, so the digest
// depends only on the deterministic event stream — no map iteration, no
// wall clock, no pointers.
func (t *Tracer) hashEvent(e *Event) {
	b := t.buf[:0]
	b = append(b, byte(e.Kind))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Actor))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(e.Op)))
	b = append(b, e.Op...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(e.Res)))
	b = append(b, e.Res...)
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Start))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Dur))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Wait))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Depth))
	t.buf = b
	t.digest.Write(b)
}

func (t *Tracer) record(e Event) {
	t.hashEvent(&e)
	if t.keep {
		t.events = append(t.events, e)
	}
	if end := e.Start + e.Dur; end > t.final {
		t.final = end
	}
}

func (t *Tracer) noteActor(a *sim.Actor) int {
	if a == nil {
		return -1
	}
	id := a.ID()
	if _, ok := t.actors[id]; !ok {
		t.actors[id] = a.Name()
	}
	return id
}

func addOp(m map[string]*OpStat, key string, d sim.Time) {
	s := m[key]
	if s == nil {
		s = &OpStat{}
		m[key] = s
	}
	s.Count++
	s.Time += d
}

// Span implements sim.Observer.
func (t *Tracer) Span(a *sim.Actor, op string, start, dur sim.Time) {
	t.nSpans++
	t.spanTime += dur
	addOp(t.ops, op, dur)
	t.record(Event{Kind: EvSpan, Actor: t.noteActor(a), Op: op, Start: start, Dur: dur})
}

// AcquireRes implements sim.Observer.
func (t *Tracer) AcquireRes(r *sim.Resource, a *sim.Actor, op string, arrival, start, dur sim.Time, depth int) {
	t.nAcquires++
	t.spanTime += dur
	wait := start - arrival
	t.waitTime += wait
	m := t.res[r.Name()]
	if m == nil {
		m = &ResourceMetrics{ByOp: make(map[string]*OpStat)}
		t.res[r.Name()] = m
	}
	m.Busy += dur
	m.Wait += wait
	m.Acquires++
	if wait > 0 {
		m.Contended++
		m.WaitHist.Add(wait)
	}
	if depth > m.MaxDepth {
		m.MaxDepth = depth
	}
	tag := op
	if tag == "" {
		tag = "untagged"
	}
	addOp(m.ByOp, tag, dur)
	t.record(Event{Kind: EvAcquire, Actor: t.noteActor(a), Op: op, Res: r.Name(),
		Start: start, Dur: dur, Wait: wait, Depth: depth})
}

// QueueWait implements sim.Observer.
func (t *Tracer) QueueWait(queue string, a *sim.Actor, enqueued, dequeued sim.Time, depth int) {
	t.nQueueWaits++
	wait := dequeued - enqueued
	t.waitTime += wait
	m := t.queues[queue]
	if m == nil {
		m = &QueueMetrics{}
		t.queues[queue] = m
	}
	m.Waits++
	m.WaitTime += wait
	m.WaitHist.Add(wait)
	if depth > m.MaxDepth {
		m.MaxDepth = depth
	}
	t.record(Event{Kind: EvQueueWait, Actor: t.noteActor(a), Op: queue,
		Start: enqueued, Wait: wait, Depth: depth})
}

// Count implements sim.Observer.
func (t *Tracer) Count(name string, a *sim.Actor, d sim.Time) {
	t.nCounts++
	addOp(t.counters, name, d)
	t.record(Event{Kind: EvCount, Actor: t.noteActor(a), Op: name, Dur: d})
}

// Dispatch implements sim.Observer. Dispatches are counted (a schedule
// fingerprint the digest includes) but not recorded as events — they
// would dwarf every other kind.
func (t *Tracer) Dispatch(a *sim.Actor, now sim.Time) {
	t.dispatches++
	if now > t.final {
		t.final = now
	}
}

var _ sim.Observer = (*Tracer)(nil)

// Op reports the accumulated stat for one Charge label (zero if absent).
func (t *Tracer) Op(name string) OpStat {
	if s, ok := t.ops[name]; ok {
		return *s
	}
	return OpStat{}
}

// Resource reports the contention metrics of one resource by name.
func (t *Tracer) Resource(name string) ResourceMetrics {
	if m, ok := t.res[name]; ok {
		return *m
	}
	return ResourceMetrics{}
}

// Queue reports the residency metrics of one receive queue by name.
func (t *Tracer) Queue(name string) QueueMetrics {
	if m, ok := t.queues[name]; ok {
		return *m
	}
	return QueueMetrics{}
}

// Counter reports the total time attributed to one Count label.
func (t *Tracer) Counter(name string) sim.Time {
	if s, ok := t.counters[name]; ok {
		return s.Time
	}
	return 0
}

// FaultStat is one fault-injection counter: a "fault-" prefixed Count
// label (drops, crashes, name-server outage drops) with its event count
// and any attributed virtual time.
type FaultStat struct {
	Name  string   `json:"name"`
	Count uint64   `json:"count"`
	Time  sim.Time `json:"time_ns"`
}

// Faults reports the fault-injection counters in lexical order (empty in
// a zero-fault run). Fault events flow through Count, so they are part
// of the event stream the digest covers: a changed fault schedule
// changes the digest.
func (t *Tracer) Faults() []FaultStat {
	var out []FaultStat
	for _, k := range sorted(t.counters) {
		if strings.HasPrefix(k, "fault-") {
			s := t.counters[k]
			out = append(out, FaultStat{Name: k, Count: s.Count, Time: s.Time})
		}
	}
	return out
}

// FinalTime reports the latest virtual timestamp the tracer observed.
func (t *Tracer) FinalTime() sim.Time { return t.final }

// Dispatches reports the number of scheduler dispatches observed.
func (t *Tracer) Dispatches() uint64 { return t.dispatches }

// sorted returns m's keys in lexical order (deterministic export order).
func sorted[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Digest is a compact, fully deterministic summary of one tracer's event
// stream: counts, virtual-time totals, and a SHA-256 over the raw
// events. Any behavioural drift in an experiment — a changed cost, a
// reordered schedule, one extra message — changes the digest, which is
// what makes it a golden regression artifact.
type Digest struct {
	Label      string `json:"label"`
	Spans      uint64 `json:"spans"`
	Acquires   uint64 `json:"acquires"`
	QueueWaits uint64 `json:"queue_waits"`
	Counts     uint64 `json:"counts"`
	Dispatches uint64 `json:"dispatches"`
	SpanTimeNs int64  `json:"span_time_ns"`
	WaitTimeNs int64  `json:"wait_time_ns"`
	FinalNs    int64  `json:"final_ns"`
	SHA256     string `json:"sha256"`
}

// Digest summarizes the stream observed so far.
func (t *Tracer) Digest() Digest {
	return Digest{
		Label:      t.label,
		Spans:      t.nSpans,
		Acquires:   t.nAcquires,
		QueueWaits: t.nQueueWaits,
		Counts:     t.nCounts,
		Dispatches: t.dispatches,
		SpanTimeNs: int64(t.spanTime),
		WaitTimeNs: int64(t.waitTime),
		FinalNs:    int64(t.final),
		SHA256:     fmt.Sprintf("%x", t.digest.Sum(nil)),
	}
}
