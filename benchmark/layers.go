package benchmark

import (
	"fmt"
	"strings"

	"xemem/internal/core"
	"xemem/internal/sim"
	"xemem/internal/sim/trace"
	"xemem/internal/xpmem"
)

// layerObserver is the traced pass's sim.Observer: the repository's
// trace.Tracer, which totals virtual time per charge label, plus the sums
// the tracer keeps only per resource or queue name, folded here by the
// layer each name belongs to.
type layerObserver struct {
	*trace.Tracer
	totals   map[string]float64
	core0    map[string]bool // management-enclave core 0 of each node
	simCores map[string]bool // cores running composed's HPC iterations
}

func newLayerObserver() *layerObserver {
	tr := trace.NewTracer("benchmark")
	tr.SetKeepEvents(false)
	return &layerObserver{
		Tracer:   tr,
		totals:   make(map[string]float64),
		core0:    make(map[string]bool),
		simCores: make(map[string]bool),
	}
}

// AcquireRes implements sim.Observer.
func (o *layerObserver) AcquireRes(r *sim.Resource, a *sim.Actor, op string, arrival, start, dur sim.Time, depth int) {
	o.Tracer.AcquireRes(r, a, op, arrival, start, dur, depth)
	name, wait := r.Name(), float64(start-arrival)
	switch {
	case strings.HasPrefix(name, "pisces-wire:"):
		o.totals["chan-wait"] += wait
	case strings.HasSuffix(name, "/linux/core0"):
		// Pisces delivers every cross-enclave IPI here (§5.3).
		o.core0[name] = true
		o.totals["core0-busy"] += float64(dur)
		o.totals["core0-wait"] += wait
	}
	switch op {
	case "xemem-serve":
		if strings.HasSuffix(name, "/core") { // a Kitten co-kernel's only core
			o.totals["kitten-serve"] += float64(dur)
		}
	case "fault", "analytics":
		o.totals[op] += float64(dur)
	case "sim":
		o.simCores[name] = true
		o.totals["sim-busy"] += float64(dur)
	}
}

// QueueWait implements sim.Observer.
func (o *layerObserver) QueueWait(queue string, a *sim.Actor, enqueued, dequeued sim.Time, depth int) {
	o.Tracer.QueueWait(queue, a, enqueued, dequeued, depth)
	o.totals["inbox-wait"] += float64(dequeued - enqueued)
}

// collLevels are the trace label suffixes of the default three-level
// collective hierarchy.
var collLevels = []string{"L0-numa", "L1-socket", "L2-flat"}

// finish returns the raw layer totals observed over a phase of virtual
// length span. Busy fractions divide by the cap entries.
func (o *layerObserver) finish(span sim.Time) map[string]float64 {
	t := o.totals
	t["dispatches"] = float64(o.Dispatches())
	for _, op := range []string{"msg-send", "ns-op", "syscall", "route-lookup", "ipi",
		"mmap-setup", "map-insert", "map-remove", "gpa-xlate", "reg-cache-probe"} {
		t[op] = float64(o.Op(op).Time)
	}
	t["hypercalls"] = float64(o.Op("hypercall").Count)
	t["mm-coherence"] = float64(o.Counter("mm-coherence"))
	for _, lvl := range collLevels {
		for _, kind := range []string{"coll-copy", "coll-cico-in", "coll-cico-out", "coll-reduce", "coll-sync"} {
			t["coll."+lvl] += float64(o.Op(kind + ":" + lvl).Time)
		}
		t["coll-syncs"] += float64(o.Op("coll-sync:" + lvl).Count)
	}
	t["core0-cap"] = float64(len(o.core0)) * float64(span)
	t["sim-cap"] = float64(len(o.simCores)) * float64(span)
	return t
}

// counters is a snapshot of the layers' own counters: the enclave
// modules' protocol and frame-list cache statistics and the sessions'
// attacher-side registration caches.
type counters map[string]float64

func readCounters(mods []*core.Module, sessions []*xpmem.Session) counters {
	c := make(counters)
	for _, m := range mods {
		c["msgs"] += float64(m.Stats.MsgsSent)
		c["forwards"] += float64(m.Stats.MsgsForwarded)
		fc := m.FrameCacheStats()
		c["framecache-hits"] += float64(fc.Hits)
		c["framecache-misses"] += float64(fc.Misses)
	}
	for _, s := range sessions {
		rc := s.RegCacheStats()
		c["regcache-hits"] += float64(rc.Hits)
		c["regcache-misses"] += float64(rc.Misses)
	}
	return c
}

// addCounters folds the counter deltas of a measured phase into a traced
// rep's layer totals.
func addCounters(t map[string]float64, before, after counters) {
	for k, v := range after {
		t[k] += v - before[k]
	}
}

// layerValues computes the per-layer metrics: virtual totals of the
// traced reps per operation, host readings of the untraced reps, and the
// traced pass's CPU profile by package.
func layerValues(plain, traced []*Rep, prof []stackSample) []Value {
	t := make(map[string]float64)
	ops := 0
	for _, rep := range traced {
		ops += rep.Ops
		for k, v := range rep.Layer {
			t[k] += v
		}
	}
	perOp := fmt.Sprintf("per op, %d ops over %d traced reps", ops, len(traced))
	var out []Value
	add := func(name string, v float64, base string) {
		val := value(name, v)
		val.N, val.Base = len(traced), base
		out = append(out, val)
	}
	count := func(name, key string) { add(name, t[key]/float64(ops), perOp) }
	us := func(name, key string) { add(name, t[key]/1e3/float64(ops), perOp) }
	ratio := func(name, num, den string) {
		v := 0.0
		if t[den] > 0 {
			v = t[num] / t[den]
		}
		add(name, v, fmt.Sprintf("%.6g / %.6g", t[num], t[den]))
	}
	hitRatio := func(name, prefix string) {
		t[prefix+"-lookups"] = t[prefix+"-hits"] + t[prefix+"-misses"]
		ratio(name, prefix+"-hits", prefix+"-lookups")
	}

	count("sim.dispatches_per_op", "dispatches")
	count("core.msgs_per_op", "msgs")
	count("core.forwards_per_op", "forwards")
	us("core.msg_send_us_per_op", "msg-send")
	us("core.ns_op_us_per_op", "ns-op")
	us("core.syscall_us_per_op", "syscall")
	us("core.route_lookup_us_per_op", "route-lookup")
	us("core.inbox_wait_us_per_op", "inbox-wait")
	us("pisces.ipi_us_per_op", "ipi")
	us("pisces.chan_wait_us_per_op", "chan-wait")
	ratio("linuxos.core0_busy_frac", "core0-busy", "core0-cap")
	us("linuxos.core0_wait_us_per_op", "core0-wait")
	us("linuxos.mmap_setup_us_per_op", "mmap-setup")
	us("linuxos.mm_coherence_us_per_op", "mm-coherence")
	us("linuxos.fault_us_per_op", "fault")
	us("kitten.serve_us_per_op", "kitten-serve")
	us("palacios.map_insert_us_per_op", "map-insert")
	us("palacios.map_remove_us_per_op", "map-remove")
	count("palacios.hypercall_per_op", "hypercalls")
	us("palacios.gpa_xlate_us_per_op", "gpa-xlate")
	hitRatio("xpmem.regcache_hit_ratio", "regcache")
	us("xpmem.reg_probe_us_per_op", "reg-cache-probe")
	hitRatio("xpmem.framecache_hit_ratio", "framecache")
	for _, lvl := range collLevels {
		us("coll.level_us_per_op."+lvl, "coll."+lvl)
	}
	count("coll.sync_per_op", "coll-syncs")
	ratio("insitu.sim_core_busy_frac", "sim-busy", "sim-cap")
	perRun := fmt.Sprintf("per application run, %d runs", ops)
	add("insitu.analytics_s_per_run", t["analytics"]/1e9/float64(ops), perRun)
	add("insitu.fault_s_per_run", t["fault"]/1e9/float64(ops), perRun)

	out = append(out, hostLayerValues(plain, traced)...)
	return append(out, profileValues(prof)...)
}

// hostLayerValues computes the host-clock per-layer metrics: public call
// times and heap activity of the untraced reps (medians over reps), and
// the cost of tracing.
func hostLayerValues(plain, traced []*Rep) []Value {
	var out []Value
	perRep := func(name string, f func(*Rep) float64, base string) {
		var xs []float64
		for _, rep := range plain {
			xs = append(xs, f(rep))
		}
		v := hostValue(name, xs, quantile(xs, 0.5))
		v.Base = base
		out = append(out, v)
	}
	for _, kind := range []string{"attach", "detach", "get"} {
		perRep("host.call."+kind+"_us", func(rep *Rep) float64 {
			c := rep.Calls[kind]
			if c == nil || c.n == 0 {
				return 0
			}
			return float64(c.total.Microseconds()) / float64(c.n)
		}, "mean per call within a rep, median over untraced reps")
	}
	perOp := "per op of the measured phase, median over untraced reps"
	perRep("host.alloc_bytes_per_op", func(rep *Rep) float64 { return float64(rep.AllocBytes) / float64(rep.Ops) }, perOp)
	perRep("host.mallocs_per_op", func(rep *Rep) float64 { return float64(rep.Mallocs) / float64(rep.Ops) }, perOp)
	perRep("host.gc_per_kop", func(rep *Rep) float64 { return 1000 * float64(rep.GCs) / float64(rep.Ops) }, perOp)

	var tp, tt []float64
	for _, rep := range plain {
		tp = append(tp, rep.Measure.Seconds())
	}
	for _, rep := range traced {
		tt = append(tt, rep.Measure.Seconds())
	}
	mt, mp := mean(tt), mean(tp)
	over := hostValue("host.trace_overhead", tt, mt/mp)
	over.Median = quantile(tt, 0.5) / quantile(tp, 0.5)
	over.IQR = 0
	over.Base = fmt.Sprintf("mean traced rep time %.4g s / mean untraced rep time %.4g s", mt, mp)
	return append(out, over)
}

// profileValues reports the share of CPU profile samples per package
// category, one host.pkg.<category>_pct metric each.
func profileValues(prof []stackSample) []Value {
	byCat := make(map[string]int64)
	var total int64
	for _, s := range prof {
		byCat[attribute(s.frames)] += s.n
		total += s.n
	}
	var out []Value
	for _, m := range PerLayer {
		cat, ok := strings.CutPrefix(m.Name, "host.pkg.")
		if !ok {
			continue
		}
		cat = strings.TrimSuffix(cat, "_pct")
		v := 0.0
		if total > 0 {
			v = 100 * float64(byCat[cat]) / float64(total)
		}
		val := value(m.Name, v)
		val.N = int(total)
		val.Base = fmt.Sprintf("of %d CPU profile samples of the traced pass", total)
		out = append(out, val)
	}
	return out
}
