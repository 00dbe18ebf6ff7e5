package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"xemem/internal/sim"
)

// Set collects the tracers of a multi-world run (experiments build one
// world per configuration point) and exports them together: one Chrome
// trace process per tracer, one metrics record per tracer, digests in
// deterministic order. Export order is first-Get order, which is run
// order because one goroutine builds every world of a run.
type Set struct {
	tracers []*Tracer
	m       map[string]*Tracer
	keep    bool
}

// NewSet returns an empty set with event retention on.
func NewSet() *Set {
	return &Set{m: make(map[string]*Tracer), keep: true}
}

// SetKeepEvents toggles event retention for tracers the set creates
// later (metrics-only runs keep memory flat; Chrome export needs events).
func (s *Set) SetKeepEvents(on bool) { s.keep = on }

// Get returns the tracer for label, creating it on first use.
func (s *Set) Get(label string) *Tracer {
	if t, ok := s.m[label]; ok {
		return t
	}
	t := NewTracer(label)
	t.SetKeepEvents(s.keep)
	s.m[label] = t
	s.tracers = append(s.tracers, t)
	return t
}

// Observe installs the tracer for label on w; it has the shape of the
// experiments' Observe hook.
func (s *Set) Observe(label string, w *sim.World) { w.SetObserver(s.Get(label)) }

// Tracers returns the set's tracers in export order.
func (s *Set) Tracers() []*Tracer { return s.tracers }

// --- Chrome trace_event export ------------------------------------------

// chromeEvent is one trace_event record. Timestamps and durations are in
// microseconds per the format; virtual nanoseconds divide by 1e3.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid,omitempty"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func us(t sim.Time) float64 { return float64(t) / 1e3 }

// WriteChromeTrace writes the set as Chrome trace_event JSON
// ({"traceEvents": [...]}), loadable in chrome://tracing or Perfetto.
// Each tracer becomes a process (pid = creation index, named by label);
// each actor becomes a thread. Spans and resource occupancy render as
// complete ("X") events; queue residency renders as "X" events in a
// "queue" category so funnel serialization is visible as stacked waits.
// Tracers with event retention off are skipped.
func (s *Set) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(e chromeEvent) error {
		buf, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(buf)
		return err
	}
	for pid, t := range s.Tracers() {
		if err := emit(chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": t.label}}); err != nil {
			return err
		}
		ids := make([]int, 0, len(t.actors))
		for id := range t.actors {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: id + 1,
				Args: map[string]any{"name": t.actors[id]}}); err != nil {
				return err
			}
		}
		for i := range t.events {
			e := &t.events[i]
			var ce chromeEvent
			switch e.Kind {
			case EvSpan:
				ce = chromeEvent{Name: e.Op, Ph: "X", Cat: "span", Pid: pid, Tid: e.Actor + 1,
					Ts: us(e.Start), Dur: us(e.Dur)}
			case EvAcquire:
				name := e.Op
				if name == "" {
					name = e.Res
				}
				args := map[string]any{"resource": e.Res}
				if e.Wait > 0 {
					args["wait_us"] = us(e.Wait)
					args["queue_depth"] = e.Depth
				}
				ce = chromeEvent{Name: name, Ph: "X", Cat: "resource", Pid: pid, Tid: e.Actor + 1,
					Ts: us(e.Start), Dur: us(e.Dur), Args: args}
			case EvQueueWait:
				if e.Wait == 0 {
					continue // idle-worker dequeues are noise in the timeline
				}
				ce = chromeEvent{Name: e.Op, Ph: "X", Cat: "queue", Pid: pid, Tid: e.Actor + 1,
					Ts: us(e.Start), Dur: us(e.Wait),
					Args: map[string]any{"depth_after": e.Depth}}
			case EvCount:
				ce = chromeEvent{Name: e.Op, Ph: "C", Pid: pid, Ts: us(e.Start),
					Args: map[string]any{"ns": int64(e.Dur)}}
			}
			if err := emit(ce); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// --- flat metrics JSON ---------------------------------------------------

// resourceJSON is the exported form of ResourceMetrics.
type resourceJSON struct {
	ResourceMetrics
	Utilization float64            `json:"utilization"`
	WaitHist    []HistBucket       `json:"wait_hist,omitempty"`
	ByOp        map[string]*OpStat `json:"by_op,omitempty"`
}

// queueJSON is the exported form of QueueMetrics.
type queueJSON struct {
	QueueMetrics
	WaitHist []HistBucket `json:"wait_hist,omitempty"`
}

// metricsJSON is one tracer's flat metrics record.
type metricsJSON struct {
	Label      string                  `json:"label"`
	FinalNs    int64                   `json:"final_ns"`
	Dispatches uint64                  `json:"dispatches"`
	Ops        map[string]*OpStat      `json:"ops,omitempty"`
	Resources  map[string]resourceJSON `json:"resources,omitempty"`
	Queues     map[string]queueJSON    `json:"queues,omitempty"`
	Counters   map[string]*OpStat      `json:"counters,omitempty"`
}

func (t *Tracer) metrics() metricsJSON {
	m := metricsJSON{
		Label:      t.label,
		FinalNs:    int64(t.final),
		Dispatches: t.dispatches,
		Ops:        t.ops,
		Counters:   t.counters,
	}
	if len(t.res) > 0 {
		m.Resources = make(map[string]resourceJSON, len(t.res))
		//xemem:allow maporder -- map-to-map transform; encoding/json serializes the result key-sorted
		for name, r := range t.res {
			util := 0.0
			if t.final > 0 {
				util = float64(r.Busy) / float64(t.final)
			}
			m.Resources[name] = resourceJSON{
				ResourceMetrics: *r, Utilization: util,
				WaitHist: r.WaitHist.Buckets(), ByOp: r.ByOp,
			}
		}
	}
	if len(t.queues) > 0 {
		m.Queues = make(map[string]queueJSON, len(t.queues))
		//xemem:allow maporder -- map-to-map transform; encoding/json serializes the result key-sorted
		for name, q := range t.queues {
			m.Queues[name] = queueJSON{QueueMetrics: *q, WaitHist: q.WaitHist.Buckets()}
		}
	}
	return m
}

// WriteMetricsJSON writes every tracer's per-op, per-resource, and
// per-queue metrics as an indented JSON array in creation order. Map
// keys serialize sorted (encoding/json), so output is deterministic.
func (s *Set) WriteMetricsJSON(w io.Writer) error {
	ts := s.Tracers()
	records := make([]metricsJSON, 0, len(ts))
	for _, t := range ts {
		records = append(records, t.metrics())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}

// WriteFiles exports the set to files: a Chrome trace to tracePath and
// the metrics JSON to metricsPath, skipping whichever path is empty.
func (s *Set) WriteFiles(tracePath, metricsPath string) error {
	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{{tracePath, s.WriteChromeTrace}, {metricsPath, s.WriteMetricsJSON}} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			return err
		}
		err = out.write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing %s: %w", out.path, err)
		}
	}
	return nil
}

// Summary renders a short human-readable profile: top operations by
// charged time and the most-contended resources and queues.
func (t *Tracer) Summary() string {
	out := fmt.Sprintf("%s: %s simulated, %d dispatches\n", t.label, t.final, t.dispatches)
	type kv struct {
		k string
		v *OpStat
	}
	var tops []kv
	for k, v := range t.ops {
		tops = append(tops, kv{k, v})
	}
	sort.Slice(tops, func(i, j int) bool {
		if tops[i].v.Time != tops[j].v.Time {
			return tops[i].v.Time > tops[j].v.Time
		}
		return tops[i].k < tops[j].k
	})
	for i, e := range tops {
		if i >= 8 {
			break
		}
		out += fmt.Sprintf("  op %-16s %12v  x%d\n", e.k, e.v.Time, e.v.Count)
	}
	for _, name := range sorted(t.res) {
		r := t.res[name]
		out += fmt.Sprintf("  res %-28s busy %12v  wait %12v  (%d/%d contended, depth<=%d)\n",
			name, r.Busy, r.Wait, r.Contended, r.Acquires, r.MaxDepth)
	}
	for _, name := range sorted(t.queues) {
		q := t.queues[name]
		out += fmt.Sprintf("  queue %-26s wait %12v  over %d msgs, depth<=%d\n",
			name, q.WaitTime, q.Waits, q.MaxDepth)
	}
	return out
}
