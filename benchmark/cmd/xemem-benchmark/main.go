// Command xemem-benchmark is the repository's benchmark: it runs the
// simulator's four workloads and reports their end-to-end metrics on both
// clocks, or, traced, their per-layer metrics. Run it from the benchmark
// module (cd benchmark) or through benchmark/run.sh from the repository
// root.
//
//	xemem-benchmark -seed 42                      # all workloads, untraced, 12 reps each
//	xemem-benchmark -seed 42 -json out.json       # ... and append the run to a report
//	xemem-benchmark -seed 42 -trace DIR           # traced run: per-layer metrics, DIR/<workload>.{json,cpu.pprof}
//	xemem-benchmark -compare OLD.json NEW.json    # regression gate over two reports
//	xemem-benchmark -workload coll -seed 7 -seconds 10 -trace 0
//
// With -workload it measures one workload in this process and prints, as
// the last two lines of standard output, the full record and then
// {"correct", "attempted", "failed", "metrics"} with every end-to-end
// metric (-trace 0) or every per-layer metric (-trace 1). Without it, it
// runs each workload in a child process of its own, one at a time, so a
// workload's peak RSS is its own. It exits 1 when a correctness check
// fails or the comparison finds a regression.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"

	"xemem/benchmark"
	"xemem/internal/experiments"
)

func main() {
	var (
		workload = flag.String("workload", "", "measure one workload in this process")
		seed     = flag.Uint64("seed", 42, "seed every workload input derives from")
		reps     = flag.Int("reps", 12, "untraced reps per workload (a traced suite runs 3)")
		seconds  = flag.Float64("seconds", 0, "measure for about this many seconds instead of a fixed rep count")
		traceArg = flag.String("trace", "0", "0: untraced; 1 (with -workload): traced, per-layer metrics; DIR: traced suite writing DIR/<workload>.json and .cpu.pprof")
		short    = flag.Bool("short", false, "smoke test: 1 rep at 1/50 of the ops")
		jsonOut  = flag.String("json", "", "append this suite run to the report file at this path")
		profile  = flag.String("profile", "", "with -workload -trace 1: write the traced pass's CPU profile to this file")
		compare  = flag.Bool("compare", false, "compare two reports: -compare OLD.json NEW.json")
		specPath = flag.String("spec", "", "BENCHMARK.json holding the regression bounds (default: ./ or ../BENCHMARK.json)")
	)
	flag.Parse()
	// Load comes from this one process, on at most two cores.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	var err error
	switch {
	case *compare:
		err = runCompare(*specPath, flag.Args())
	case *workload != "":
		err = runWorkload(*workload, runner(*seed, *reps, *seconds, *short), *traceArg, *profile)
	default:
		err = runSuite(*seed, *reps, *short, *traceArg, *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xemem-benchmark:", err)
		os.Exit(1)
	}
}

// errFailed reports a run whose correctness checks or regression gate
// failed after its results were printed.
var errFailed = errors.New("failed")

func runner(seed uint64, reps int, seconds float64, short bool) *benchmark.Runner {
	r := &benchmark.Runner{Seed: seed, Scale: 1, Reps: reps}
	switch {
	case short:
		r.Scale, r.Reps = 1.0/50, 1
	case seconds > 0:
		r.Reps, r.Seconds = 0, seconds
	}
	return r
}

// runWorkload measures one workload in this process.
func runWorkload(name string, r *benchmark.Runner, traceArg, profilePath string) error {
	w, err := benchmark.FindWorkload(name)
	if err != nil {
		return err
	}
	switch traceArg {
	case "0":
	case "1":
		r.Trace = true
	default:
		return fmt.Errorf("-trace %q: with -workload, use 0 or 1", traceArg)
	}
	if profilePath != "" {
		f, err := os.Create(profilePath)
		if err != nil {
			return err
		}
		defer f.Close()
		r.Profile = f
	}
	// composed observes the worlds experiments.Fig9Run builds through
	// this hook.
	experiments.Observe = r.Announce
	rec, err := r.Run(w)
	if err != nil {
		return err
	}
	benchmark.WriteRecord(os.Stderr, rec)
	detail, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	metrics := make(map[string]any, len(rec.Metrics))
	for _, v := range rec.Metrics {
		metrics[v.Name] = map[string]any{"value": v.Value, "unit": v.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", detail, line)
	if !rec.Correct {
		return errFailed
	}
	return nil
}

// runSuite runs every workload in a child process of its own, one after
// another, and prints their records.
func runSuite(seed uint64, reps int, short bool, traceArg, jsonOut string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	traced := traceArg != "0"
	if traced {
		if err := os.MkdirAll(traceArg, 0o755); err != nil {
			return err
		}
	}
	run := benchmark.Run{Traced: traced}
	if traced {
		// Three untraced reps are the base of the tracing overhead; the
		// traced reps then run for long enough to fill the CPU profile.
		reps = 3
	}
	ok := true
	for _, w := range benchmark.Workloads {
		args := []string{"-workload", w.Name, "-seed", strconv.FormatUint(seed, 10), "-reps", strconv.Itoa(reps)}
		if short {
			args = append(args, "-short")
		}
		if traced {
			args = append(args, "-trace", "1", "-profile", filepath.Join(traceArg, w.Name+".cpu.pprof"))
		}
		rec, err := child(self, args)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		benchmark.WriteRecord(os.Stdout, rec)
		fmt.Println()
		ok = ok && rec.Correct
		run.Records = append(run.Records, rec)
		if traced {
			data, err := json.MarshalIndent(rec, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(traceArg, w.Name+".json"), append(data, '\n'), 0o644); err != nil {
				return err
			}
		}
	}
	if jsonOut != "" {
		if err := benchmark.AppendReport(jsonOut, seed, run); err != nil {
			return err
		}
	}
	if !ok {
		return errFailed
	}
	return nil
}

// child runs one workload process and decodes the record it prints on
// the next-to-last line of its output. A child whose checks failed still
// prints its record; any other failure shows its standard error.
func child(self string, args []string) (*benchmark.Record, error) {
	cmd := exec.Command(self, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	var lines []string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<26)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < 2 {
		return nil, fmt.Errorf("%v: %s", runErr, stderr.Bytes())
	}
	var rec benchmark.Record
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rec); err != nil {
		return nil, fmt.Errorf("decoding the record: %w", err)
	}
	return &rec, nil
}

// runCompare applies BENCHMARK.json's bounds to two reports.
func runCompare(specPath string, args []string) error {
	if len(args) != 2 {
		return errors.New("-compare needs OLD.json NEW.json")
	}
	if specPath == "" {
		specPath = "BENCHMARK.json"
		if _, err := os.Stat(specPath); err != nil {
			specPath = filepath.Join("..", "BENCHMARK.json")
		}
	}
	spec, err := benchmark.ReadSpec(specPath)
	if err != nil {
		return err
	}
	old, err := benchmark.ReadReport(args[0])
	if err != nil {
		return err
	}
	cur, err := benchmark.ReadReport(args[1])
	if err != nil {
		return err
	}
	rows, err := benchmark.Compare(spec, old, cur)
	if err != nil {
		return err
	}
	benchmark.WriteRows(os.Stdout, rows)
	for _, r := range rows {
		if r.Fails {
			return errFailed
		}
	}
	return nil
}
