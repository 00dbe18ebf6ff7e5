package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"xemem/internal/sim"
)

// scenario runs a small contended workload: three actors charging
// labelled work and sharing one core, one feeding a queue-wait. It
// returns the final times of every actor.
func scenario(seed uint64, obs sim.Observer) []sim.Time {
	w := sim.NewWorld(seed)
	if obs != nil {
		w.SetObserver(obs)
	}
	core := sim.NewCore("core0")
	finals := make([]sim.Time, 3)
	for i := 0; i < 3; i++ {
		i := i
		w.Spawn(fmt.Sprintf("worker%d", i), func(a *sim.Actor) {
			r := a.RNG()
			for step := 0; step < 50; step++ {
				a.Charge("compute", sim.Time(r.Intn(500))*sim.Nanosecond)
				core.Exec(a, 200*sim.Nanosecond, "shared")
				a.Charge("per-page", 10*sim.Nanosecond*8)
			}
			finals[i] = a.Now()
		})
	}
	if err := w.Run(); err != nil {
		panic(err)
	}
	return finals
}

func TestObserverDoesNotPerturbSchedule(t *testing.T) {
	base := scenario(7, nil)
	traced := scenario(7, NewTracer("test"))
	for i := range base {
		if base[i] != traced[i] {
			t.Fatalf("actor %d final time changed under tracing: %v vs %v", i, base[i], traced[i])
		}
	}
}

func TestDigestDeterministic(t *testing.T) {
	t1 := NewTracer("run")
	scenario(7, t1)
	t2 := NewTracer("run")
	scenario(7, t2)
	if d1, d2 := t1.Digest(), t2.Digest(); d1 != d2 {
		t.Fatalf("same seed produced different digests:\n%+v\n%+v", d1, d2)
	}
	t3 := NewTracer("run")
	scenario(8, t3)
	if t1.Digest().SHA256 == t3.Digest().SHA256 {
		t.Fatal("different seeds produced identical event-stream hashes")
	}
}

func TestDigestInsensitiveToRetention(t *testing.T) {
	keep := NewTracer("run")
	scenario(7, keep)
	drop := NewTracer("run")
	drop.SetKeepEvents(false)
	scenario(7, drop)
	if keep.Digest() != drop.Digest() {
		t.Fatal("event retention changed the digest")
	}
	if drop.Events() != nil {
		t.Fatal("retention-off tracer kept events")
	}
}

func TestResourceMetricsAccounting(t *testing.T) {
	w := sim.NewWorld(1)
	tr := NewTracer("acct")
	w.SetObserver(tr)
	core := sim.NewCore("c")
	// Two actors collide on the core at t=0: the loser waits 100ns.
	for i := 0; i < 2; i++ {
		w.Spawn(fmt.Sprintf("a%d", i), func(a *sim.Actor) {
			core.Exec(a, 100*sim.Nanosecond, "work")
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	m := tr.Resource("c")
	if m.Busy != 200*sim.Nanosecond {
		t.Fatalf("busy = %v, want 200ns", m.Busy)
	}
	if m.Wait != 100*sim.Nanosecond {
		t.Fatalf("wait = %v, want 100ns", m.Wait)
	}
	if m.Acquires != 2 || m.Contended != 1 || m.MaxDepth != 1 {
		t.Fatalf("acquires/contended/depth = %d/%d/%d", m.Acquires, m.Contended, m.MaxDepth)
	}
	if m.Busy != core.BusyTime() {
		t.Fatal("tracer disagrees with the resource's own busy time")
	}
	if st := m.ByOp["work"]; st == nil || st.Count != 2 || st.Time != 200*sim.Nanosecond {
		t.Fatalf("by-op work = %+v", m.ByOp["work"])
	}
}

func TestSpanAndCounterAccounting(t *testing.T) {
	w := sim.NewWorld(1)
	tr := NewTracer("ops")
	w.SetObserver(tr)
	w.Spawn("a", func(a *sim.Actor) {
		a.Charge("syscall", 300*sim.Nanosecond)
		a.Charge("map", 10*sim.Nanosecond*100)
		tr.Count("coherence", a, 35*sim.Nanosecond)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if op := tr.Op("syscall"); op.Count != 1 || op.Time != 300*sim.Nanosecond {
		t.Fatalf("syscall stat = %+v", op)
	}
	if op := tr.Op("map"); op.Count != 1 || op.Time != 1000*sim.Nanosecond {
		t.Fatalf("batched map stat = %+v", op)
	}
	if c := tr.Counter("coherence"); c != 35*sim.Nanosecond {
		t.Fatalf("counter = %v", c)
	}
}

func TestHistBuckets(t *testing.T) {
	var h Hist
	h.Add(0)
	h.Add(1)
	h.Add(1500)
	h.Add(2048)
	bs := h.Buckets()
	var total uint64
	for _, b := range bs {
		total += b.Count
		if b.Count == 0 {
			t.Fatal("empty bucket exported")
		}
		if b.LoNs >= b.HiNs && b.HiNs != 1 {
			t.Fatalf("bad bucket bounds %+v", b)
		}
	}
	if total != 4 {
		t.Fatalf("bucket counts sum to %d, want 4", total)
	}
}

func TestChromeTraceExport(t *testing.T) {
	s := NewSet()
	scenario(7, s.Get("phase-a"))
	scenario(9, s.Get("phase-b"))
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}
	var sawProcess, sawSpan bool
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			if ev["name"] == "process_name" {
				sawProcess = true
			}
		case "X":
			sawSpan = true
		}
	}
	if !sawProcess || !sawSpan {
		t.Fatalf("missing metadata or span events (process=%v span=%v)", sawProcess, sawSpan)
	}
}

func TestMetricsJSONExport(t *testing.T) {
	s := NewSet()
	scenario(7, s.Get("only"))
	var buf bytes.Buffer
	if err := s.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var records []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &records); err != nil {
		t.Fatalf("metrics JSON invalid: %v", err)
	}
	if len(records) != 1 || records[0]["label"] != "only" {
		t.Fatalf("unexpected records: %v", records)
	}
	if !strings.Contains(buf.String(), "core0") {
		t.Fatal("resource metrics missing from export")
	}
	// Export twice: byte-identical (sorted keys, no host state).
	var buf2 bytes.Buffer
	if err := s.WriteMetricsJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("metrics export is not deterministic")
	}
}

func TestQueueWaitMetrics(t *testing.T) {
	w := sim.NewWorld(3)
	tr := NewTracer("queue")
	w.SetObserver(tr)
	// Emulate a queue: producer stamps enqueue times, consumer reports
	// the waits through the observer, as xproto.Inbox does.
	tr.QueueWait("inbox:test", nil, 0, 0, 0)
	_ = w // the direct call above exercises the nil-actor tolerance path
	m := tr.Queue("inbox:test")
	if m.Waits != 1 || m.WaitTime != 0 {
		t.Fatalf("queue metrics = %+v", m)
	}
}

// faultScenario runs one actor that emits fault-prefixed and plain
// counters through the observer, the way the fault injector and the
// sharded name service attribute events into the digest.
func faultScenario(obs sim.Observer) {
	w := sim.NewWorld(1)
	if obs != nil {
		w.SetObserver(obs)
	}
	w.Spawn("victim", func(a *sim.Actor) {
		a.Charge("work", 100*sim.Nanosecond)
		if o := a.Observer(); o != nil {
			o.Count("fault-drop:msg", a, 50*sim.Nanosecond)
			o.Count("fault-drop:msg", a, 0)
			o.Count("fault-crash", a, 0)
			o.Count("shard-lease-hit", a, 0)
		}
	})
	if err := w.Run(); err != nil {
		panic(err)
	}
}

func TestFaultCountersSortedAndPrefixed(t *testing.T) {
	tr := NewTracer("faults")
	faultScenario(tr)
	fs := tr.Faults()
	if len(fs) != 2 {
		t.Fatalf("Faults() = %v, want the two fault- labels", fs)
	}
	if fs[0].Name != "fault-crash" || fs[1].Name != "fault-drop:msg" {
		t.Fatalf("fault counters out of lexical order: %v", fs)
	}
	if fs[1].Count != 2 || fs[1].Time != 50*sim.Nanosecond {
		t.Fatalf("fault-drop stat = %+v", fs[1])
	}
	if tr.Counter("shard-lease-hit") != 0 || tr.Digest().Counts != 4 {
		t.Fatalf("non-fault counter mishandled: digest %+v", tr.Digest())
	}
	if clean := NewTracer("clean"); clean.Faults() != nil {
		t.Fatal("fault counters on a clean tracer")
	}
}

func TestFinalTimeAndDispatches(t *testing.T) {
	tr := NewTracer("run")
	scenario(7, tr)
	if tr.FinalTime() == 0 || int64(tr.FinalTime()) != tr.Digest().FinalNs {
		t.Fatalf("FinalTime = %v, digest %+v", tr.FinalTime(), tr.Digest())
	}
	if tr.Dispatches() == 0 || tr.Dispatches() != tr.Digest().Dispatches {
		t.Fatalf("Dispatches = %d, digest %+v", tr.Dispatches(), tr.Digest())
	}
}

// Set-level plumbing the experiment runners use: Observe and Get
// install tracers per labelled world, Digests lists them in first-Get
// order, a repeated label returns the same tracer, and SetKeepEvents
// governs retention for tracers created afterwards.
func TestSetHooksAndDigests(t *testing.T) {
	s := NewSet()
	s.SetKeepEvents(false)
	w0, w1, w2 := sim.NewWorld(3), sim.NewWorld(3), sim.NewWorld(3)
	s.Observe("second", w1)
	s.Observe("first", w0)
	w2.SetObserver(s.Get("get"))
	if s.Get("first") != w0.Observer() || s.Get("second") != w1.Observer() {
		t.Fatal("a repeated label returned a new tracer")
	}
	for _, w := range []*sim.World{w0, w1, w2} {
		w.Spawn("a", func(a *sim.Actor) { a.Charge("op", 10*sim.Nanosecond) })
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
	}
	var ds []Digest
	for _, tr := range s.Tracers() {
		ds = append(ds, tr.Digest())
	}
	if len(ds) != 3 || ds[0].Label != "second" || ds[1].Label != "first" || ds[2].Label != "get" {
		t.Fatalf("digests = %+v", ds)
	}
	if ds[0].SHA256 != ds[1].SHA256 || ds[1].SHA256 != ds[2].SHA256 {
		t.Fatal("identical worlds hashed differently across tracers")
	}
	if s.Get("first").Events() != nil {
		t.Fatal("SetKeepEvents(false) did not propagate to Observe-created tracers")
	}
}

func TestTracerMetricsJSONAndSummary(t *testing.T) {
	tr := NewTracer("prof")
	scenario(7, tr)
	buf, err := json.Marshal(tr.metrics())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatalf("tracer metrics JSON invalid: %v", err)
	}
	if m["label"] != "prof" {
		t.Fatalf("metrics label = %v", m["label"])
	}
	sum := tr.Summary()
	for _, want := range []string{"prof:", "compute", "core0", "dispatches"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
}
