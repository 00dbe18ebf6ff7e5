package benchmark

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"xemem/internal/sim"
)

// Workload is one benchmark input: a closed-loop program the simulator
// runs. Every input derives from the seed; a rep builds a fresh world and
// repeats identical work.
type Workload struct {
	Name string
	Why  string
	// rep builds a fresh world from r.Seed, runs one repetition scaled by
	// r.Scale, and reports what it measured. traced asks for the
	// per-layer totals: the rep installs a layerObserver on its measured
	// phase.
	rep func(r *Runner, traced bool) (*Rep, error)
}

// Workloads lists the benchmark's workloads in run order.
var Workloads = []*Workload{attachBulk, ctlStorm, collWorkload, composed}

// FindWorkload resolves a workload by name.
func FindWorkload(name string) (*Workload, error) {
	var names []string
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// Rep is what one repetition measured.
type Rep struct {
	// Setup holds one host set-up time per world the rep built: from the
	// start of world construction to the first timed operation.
	Setup []time.Duration
	// Measure is the host time of the measured phase.
	Measure time.Duration
	// PeakRSS is the process's resident-set high-water mark over the rep,
	// in MB.
	PeakRSS float64
	// Ops counts the operations the measured phase attempted, Failed
	// those that returned an error.
	Ops, Failed int
	// Lat holds one virtual latency per latency sample (per op, except on
	// composed, where it is per HPC iteration).
	Lat []sim.Time
	// Bytes made accessible or delivered, over OpTime of virtual op time.
	Bytes  float64
	OpTime sim.Time
	// Makespan is the virtual length of the measured phase.
	Makespan sim.Time
	// Problems lists failed output checks.
	Problems []string
	// Calls accumulates host time per public call kind (attach-bulk).
	Calls map[string]*callTime
	// Heap activity of the measured phase.
	AllocBytes, Mallocs, GCs uint64
	// Layer holds the per-layer raw totals of a traced rep (times in
	// virtual ns, counts as counts), summed over the rep's worlds.
	Layer map[string]float64
}

type callTime struct {
	n     int
	total time.Duration
}

// call adds one host-timed public call to the rep.
func (rep *Rep) call(kind string, d time.Duration) {
	if rep.Calls == nil {
		rep.Calls = make(map[string]*callTime)
	}
	c := rep.Calls[kind]
	if c == nil {
		c = &callTime{}
		rep.Calls[kind] = c
	}
	c.n++
	c.total += d
}

// problem records a failed output check.
func (rep *Rep) problem(format string, args ...any) {
	rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
}

// fingerprint digests everything virtual a rep reports, so identical
// work can be checked to give identical results.
func (rep *Rep) fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %v %d %d|", rep.Ops, rep.Failed, rep.Bytes, rep.OpTime, rep.Makespan)
	for _, l := range rep.Lat {
		h.Write(strconv.AppendInt(nil, int64(l), 10))
	}
	return h.Sum64()
}

// measured wraps a rep's measured phase: it reads the heap counters
// around fn and records its host time.
func (rep *Rep) measured(fn func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now() //xemem:wallclock -- host time of the measured phase
	err := fn()
	rep.Measure = time.Since(start) //xemem:wallclock -- host time of the measured phase
	runtime.ReadMemStats(&after)
	rep.AllocBytes = after.TotalAlloc - before.TotalAlloc
	rep.Mallocs = after.Mallocs - before.Mallocs
	rep.GCs = uint64(after.NumGC - before.NumGC)
	return err
}

// Runner measures one workload in the current process.
type Runner struct {
	Seed uint64
	// Scale shrinks each rep's operation count (1 = full size).
	Scale float64
	// Reps > 0 runs exactly that many untraced reps (and, traced, at
	// least that many traced reps); Reps == 0 measures for about Seconds.
	Reps    int
	Seconds float64
	// Trace adds a traced pass that yields the per-layer metrics.
	Trace bool
	// Profile, when non-nil, receives the traced pass's CPU profile.
	Profile io.Writer

	// announce, while composed runs Fig9Run, installs the rep's observer
	// on each world the experiment builds (see Announce).
	announce func(w *sim.World)
}

// Announce hands a world an experiment built to the running rep. Package
// main installs it as experiments.Observe; composed needs it to observe
// the worlds experiments.Fig9Run builds internally.
func (r *Runner) Announce(label string, w *sim.World) {
	if r.announce != nil {
		r.announce(w)
	}
}

// minTracedProfile is how long the traced pass runs, at least, when the
// rep count fixes the untraced pass: enough for about 1000 CPU profile
// samples at the profiler's 100 Hz.
const minTracedProfile = 10 * time.Second

// Run measures workload w and returns its record. Untraced reps give the
// end-to-end metrics; with Trace, a traced pass follows and the record
// carries the per-layer metrics instead.
func (r *Runner) Run(w *Workload) (*Record, error) {
	untracedBudget, tracedBudget := time.Duration(r.Seconds*float64(time.Second)), time.Duration(0)
	minReps := r.Reps
	if r.Reps == 0 {
		minReps = 3
		if r.Trace {
			untracedBudget /= 4
			tracedBudget = 3 * untracedBudget
		}
	} else if r.Trace && r.Scale == 1 {
		tracedBudget = minTracedProfile
	}
	plain, err := r.reps(w, false, minReps, untracedBudget)
	if err != nil {
		return nil, err
	}
	rec := &Record{Workload: w.Name, Seed: r.Seed, Traced: r.Trace, OpsPerRep: plain[0].Ops}
	var traced []*Rep
	var prof bytes.Buffer
	if r.Trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		traced, err = r.reps(w, true, minReps, tracedBudget)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		if r.Profile != nil {
			if _, err := r.Profile.Write(prof.Bytes()); err != nil {
				return nil, err
			}
		}
	}
	rec.Reps = len(plain)
	first := plain[0].fingerprint()
	for i, rep := range append(append([]*Rep(nil), plain...), traced...) {
		rec.Attempted += rep.Ops
		rec.Failed += rep.Failed
		for _, p := range rep.Problems {
			rec.Problems = append(rec.Problems, fmt.Sprintf("rep %d: %s", i, p))
		}
		if rep.fingerprint() != first {
			what := "untraced"
			if i >= len(plain) {
				what = "traced"
			}
			rec.Problems = append(rec.Problems, fmt.Sprintf("rep %d (%s): virtual results differ from rep 0", i, what))
		}
	}
	if r.Trace {
		samples, err := cpuProfileSamples(prof.Bytes())
		if err != nil {
			return nil, err
		}
		rec.Metrics = layerValues(plain, traced, samples)
	} else {
		rec.Metrics = endToEndValues(plain)
	}
	rec.Correct = len(rec.Problems) == 0
	return rec, nil
}

// reps runs reps of w until at least minReps ran and budget elapsed.
func (r *Runner) reps(w *Workload, traced bool, minReps int, budget time.Duration) ([]*Rep, error) {
	var out []*Rep
	start := time.Now()                                    //xemem:wallclock -- bounds how long the benchmark measures
	for len(out) < minReps || time.Since(start) < budget { //xemem:wallclock -- bounds how long the benchmark measures
		// Each rep starts from a collected heap whose free memory went back
		// to the OS, with the RSS high-water mark reset, so neither its
		// host time nor its peak RSS depends on the reps before it.
		debug.FreeOSMemory()
		resetPeakRSS()
		rep, err := w.rep(r, traced)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		rep.PeakRSS = peakRSSMB()
		out = append(out, rep)
	}
	return out, nil
}

// scaled shrinks a full-size operation count by the runner's scale,
// keeping at least one.
func (r *Runner) scaled(n int) int {
	m := int(math.Round(float64(n) * r.Scale))
	if m < 1 {
		m = 1
	}
	return m
}

// Value is one reported metric: Value is what the regression gate
// compares; N, Median and IQR describe the sample it came from.
type Value struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Clock  Clock   `json:"clock"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	IQR    float64 `json:"iqr"`
	// Base names what a per-op value or a ratio divides by.
	Base string `json:"base,omitempty"`
	// Samples are the per-rep readings of a host metric.
	Samples []float64 `json:"samples,omitempty"`
}

// Record is one workload's result in one process.
type Record struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Traced    bool     `json:"traced"`
	Reps      int      `json:"reps"`
	OpsPerRep int      `json:"ops_per_rep"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Metrics   []Value  `json:"metrics"`
}

// Metric returns the record's value for name.
func (rec *Record) Metric(name string) (Value, bool) {
	for _, v := range rec.Metrics {
		if v.Name == name {
			return v, true
		}
	}
	return Value{}, false
}

// value fills a Value's declared unit and clock.
func value(name string, v float64) Value {
	m, ok := Lookup(name)
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	return Value{Name: name, Unit: m.Unit, Clock: m.Clock, Value: v, Median: v}
}

// hostValue reports v, a statistic of per-rep host readings, with the
// readings' median and IQR.
func hostValue(name string, samples []float64, v float64) Value {
	out := value(name, v)
	out.N = len(samples)
	out.Median = quantile(samples, 0.5)
	out.IQR = iqr(samples)
	out.Samples = samples
	return out
}

// endToEndValues computes the end-to-end metrics from untraced reps.
// Host throughput is the run's total ops over its total measured time:
// on a shared machine whose speed drifts continuously, that aggregate
// varied least from run to run (README.md, Measured spread).
func endToEndValues(reps []*Rep) []Value {
	rep := reps[0]
	var setup, rates, peaks []float64
	var ops int
	var busy time.Duration
	for _, r := range reps {
		for _, s := range r.Setup {
			setup = append(setup, s.Seconds())
		}
		ops += r.Ops
		busy += r.Measure
		rates = append(rates, float64(r.Ops)/r.Measure.Seconds())
		peaks = append(peaks, r.PeakRSS)
	}
	tput := hostValue("host_ops_per_s", rates, float64(ops)/busy.Seconds())
	tput.Base = fmt.Sprintf("%d ops over %d reps / %.4g s measured", ops, len(reps), busy.Seconds())

	lat := make([]float64, len(rep.Lat))
	for i, l := range rep.Lat {
		lat[i] = sim.Time(l).Micros()
	}
	sort.Float64s(lat)
	p50, p99 := value("virt_p50_us", rank(lat, 0.5)), value("virt_p99_us", rank(lat, 0.99))
	for _, v := range []*Value{&p50, &p99} {
		v.N, v.Median, v.IQR = len(lat), quantile(lat, 0.5), iqr(lat)
	}
	gbps := value("virt_gbps", rep.Bytes/1e9/rep.OpTime.Seconds())
	gbps.N = len(reps)
	gbps.Base = fmt.Sprintf("%.4g bytes / %.6g s of virtual op time", rep.Bytes, rep.OpTime.Seconds())
	span := value("virt_makespan_s", rep.Makespan.Seconds())
	span.N = len(reps)
	rss := hostValue("peak_rss_mb", peaks, quantile(peaks, 0.5))
	rss.Base = "median over reps of the rep's VmHWM"
	return []Value{
		hostValue("setup_s", setup, quantile(setup, 0.5)),
		tput, rss, p50, p99, gbps, span,
	}
}

// resetPeakRSS resets the process's resident-set high-water mark to its
// current RSS (Linux 4.0 and later). Where that is unavailable the mark
// keeps counting from the process start.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// MB; 0 where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}
