// Package benchmark measures the XEMEM simulator end to end and layer by
// layer, on its two clocks: virtual time, the model's answer (attach
// latency, collective bandwidth, application completion time), and host
// time, what the simulator costs to run. It drives four closed-loop
// workloads through the simulator's public layer functions and measures
// them from outside: host timers around the calls, the layers' own
// counters, the trace.Tracer installed as each world's observer, and a
// CPU profile aggregated by package. See README.md for the metric
// glossary and the workloads.
package benchmark

import (
	"math"
	"sort"
)

// Clock names the clock a metric is read from.
type Clock string

const (
	// Host metrics are wall-clock or memory readings of the benchmark
	// process; they are subject to the machine's noise.
	Host Clock = "host"
	// Virtual metrics are simulated time; for a fixed seed they repeat
	// exactly.
	Virtual Clock = "virtual"
)

// Metric declares one reported quantity. BENCHMARK.json at the repository
// root repeats the name, unit and direction and adds the regression
// bound; the tests hold the two in agreement.
type Metric struct {
	Name   string
	Unit   string
	Clock  Clock
	Better string // "lower" or "higher"
}

// EndToEnd are the metrics an untraced run reports for every workload.
var EndToEnd = []Metric{
	{"setup_s", "s", Host, "lower"},
	{"host_ops_per_s", "ops/s", Host, "higher"},
	{"peak_rss_mb", "MB", Host, "lower"},
	{"virt_p50_us", "us", Virtual, "lower"},
	{"virt_p99_us", "us", Virtual, "lower"},
	{"virt_gbps", "GB/s", Virtual, "higher"},
	{"virt_makespan_s", "s", Virtual, "lower"},
}

// PerLayer are the metrics a traced run reports for every workload. A
// metric whose layer a workload does not exercise reads 0 there.
var PerLayer = []Metric{
	{"sim.dispatches_per_op", "count", Virtual, "lower"},
	{"core.msgs_per_op", "count", Virtual, "lower"},
	{"core.forwards_per_op", "count", Virtual, "lower"},
	{"core.msg_send_us_per_op", "us", Virtual, "lower"},
	{"core.ns_op_us_per_op", "us", Virtual, "lower"},
	{"core.syscall_us_per_op", "us", Virtual, "lower"},
	{"core.route_lookup_us_per_op", "us", Virtual, "lower"},
	{"core.inbox_wait_us_per_op", "us", Virtual, "lower"},
	{"pisces.ipi_us_per_op", "us", Virtual, "lower"},
	{"pisces.chan_wait_us_per_op", "us", Virtual, "lower"},
	{"linuxos.core0_busy_frac", "ratio", Virtual, "lower"},
	{"linuxos.core0_wait_us_per_op", "us", Virtual, "lower"},
	{"linuxos.mmap_setup_us_per_op", "us", Virtual, "lower"},
	{"linuxos.mm_coherence_us_per_op", "us", Virtual, "lower"},
	{"linuxos.fault_us_per_op", "us", Virtual, "lower"},
	{"kitten.serve_us_per_op", "us", Virtual, "lower"},
	{"palacios.map_insert_us_per_op", "us", Virtual, "lower"},
	{"palacios.map_remove_us_per_op", "us", Virtual, "lower"},
	{"palacios.hypercall_per_op", "count", Virtual, "lower"},
	{"palacios.gpa_xlate_us_per_op", "us", Virtual, "lower"},
	{"xpmem.regcache_hit_ratio", "ratio", Virtual, "higher"},
	{"xpmem.reg_probe_us_per_op", "us", Virtual, "lower"},
	{"xpmem.framecache_hit_ratio", "ratio", Virtual, "higher"},
	{"coll.level_us_per_op.L0-numa", "us", Virtual, "lower"},
	{"coll.level_us_per_op.L1-socket", "us", Virtual, "lower"},
	{"coll.level_us_per_op.L2-flat", "us", Virtual, "lower"},
	{"coll.sync_per_op", "count", Virtual, "lower"},
	{"insitu.sim_core_busy_frac", "ratio", Virtual, "higher"},
	{"insitu.analytics_s_per_run", "s", Virtual, "lower"},
	{"insitu.fault_s_per_run", "s", Virtual, "lower"},
	{"host.call.attach_us", "us", Host, "lower"},
	{"host.call.detach_us", "us", Host, "lower"},
	{"host.call.get_us", "us", Host, "lower"},
	{"host.alloc_bytes_per_op", "B", Host, "lower"},
	{"host.mallocs_per_op", "count", Host, "lower"},
	{"host.gc_per_kop", "count", Host, "lower"},
	{"host.trace_overhead", "ratio", Host, "lower"},
	{"host.pkg.sim_pct", "%", Host, "lower"},
	{"host.pkg.runtime_sched_pct", "%", Host, "lower"},
	{"host.pkg.runtime_gc_pct", "%", Host, "lower"},
	{"host.pkg.core_pct", "%", Host, "lower"},
	{"host.pkg.xproto_pct", "%", Host, "lower"},
	{"host.pkg.router_pct", "%", Host, "lower"},
	{"host.pkg.nameserver_pct", "%", Host, "lower"},
	{"host.pkg.palacios_pct", "%", Host, "lower"},
	{"host.pkg.rbtree_pct", "%", Host, "lower"},
	{"host.pkg.pagetable_pct", "%", Host, "lower"},
	{"host.pkg.proc_pct", "%", Host, "lower"},
	{"host.pkg.mem_pct", "%", Host, "lower"},
	{"host.pkg.coll_pct", "%", Host, "lower"},
	{"host.pkg.insitu_pct", "%", Host, "lower"},
	{"host.pkg.trace_pct", "%", Host, "lower"},
	{"host.pkg.bench_pct", "%", Host, "lower"},
	{"host.pkg.other_pct", "%", Host, "lower"},
}

// Lookup finds a declared metric by name in either list.
func Lookup(name string) (Metric, bool) {
	for _, list := range [][]Metric{EndToEnd, PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}

// quantile reports the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// rank reports the nearest-rank p-quantile (0 < p <= 1) of xs, which
// must be sorted: the smallest value with at least a share p of the
// sample at or below it.
func rank(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// iqr reports the distance between the first and third quartiles.
func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }
