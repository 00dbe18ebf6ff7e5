// Command xemem-bench regenerates the paper's evaluation (§5–§7): every
// table and figure, printed as the rows/series the paper reports.
//
// Usage:
//
//	xemem-bench -experiment fig5|fig6|fig7|fig8|fig9|table2|all [flags]
//
// The simulator is deterministic: rerunning with the same -seed reproduces
// identical numbers. -fast trades repetition count for wall time (the
// shapes are unchanged; the simulator has no measurement noise to average
// away).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"xemem/internal/experiments"
	"xemem/internal/sim"
	"xemem/internal/sim/trace"
)

func main() {
	exp := flag.String("experiment", "all", "which experiment to run: fig5, fig6, fig7, fig8, fig9, table2, all")
	seed := flag.Uint64("seed", 42, "simulation seed")
	fast := flag.Bool("fast", false, "reduced repetition counts for quick runs")
	jsonOut := flag.Bool("json", false, "run the engine benchmark and write BENCH_engine.json (host wall-clock of scheduler dispatch, a 1 GB attach, and the fig9 sweep)")
	sweepJSON := flag.Bool("sweep-json", false, "run the sweep benchmark and write BENCH_sweep.json (serial vs parallel wall-clock, allocs/op of dispatch and a 1 GB attach)")
	faultJSON := flag.Bool("fault-json", false, "run the fault-injection sweep and write BENCH_fault.json (protocol degradation, failure attribution, and per-cell trace digests across drop rates and enclave crashes)")
	clusterJSON := flag.Bool("cluster-json", false, "run the cluster-scale name-service sweep and write BENCH_cluster.json (flat vs sharded lookup latency across node counts, lease-cache counters, churn cells, and per-cell trace digests)")
	collJSON := flag.Bool("coll-json", false, "run the hierarchical-collective sweep and write BENCH_coll.json (bcast/allreduce latency across hierarchy depth, enclave mix, and message size; zero-copy vs CICO switchover; registration-cache counters and per-level time attribution)")
	snapshotJSON := flag.Bool("snapshot-json", false, "run the snapshot-fork benchmark and write BENCH_snapshot.json (snapshot-forked vs re-bootstrapped fig9 sweep cells, digest identity)")
	replayPath := flag.String("replay", "", "re-run the repro bundle at this path and verify its snapshot hash and trace digest")
	reproPath := flag.String("repro", "", "capture a repro bundle to this path (see -recipe, -recipe-params, -cut-frac)")
	recipeName := flag.String("recipe", "fig9", "recipe for -repro: one of "+experiments.RecipeNames())
	recipeParams := flag.String("recipe-params", "", "JSON parameter blob for -repro (recipe defaults when empty)")
	cutFrac := flag.Float64("cut-frac", 0.5, "where -repro places the snapshot cut, as a fraction of the run's virtual duration")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for the figure sweeps (1 = serial runner; results are byte-identical at any value)")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of every simulated world to this file (open in chrome://tracing or Perfetto; combine with -fast)")
	metricsOut := flag.String("metrics", "", "write per-world contention metrics JSON to this file and print the per-figure breakdown tables")
	flag.Parse()

	var set *trace.Set
	if *traceOut != "" || *metricsOut != "" {
		set = trace.NewSet()
		set.SetKeepEvents(*traceOut != "") // metrics-only runs keep memory flat
		// The cell-aware hook keeps trace export order independent of the
		// worker count.
		experiments.ObserveCell = set.CellHook()
	}
	exportTraces := func() {
		if set == nil {
			return
		}
		if *metricsOut != "" {
			fmt.Println(experiments.Breakdown(set))
		}
		write := func(path string, fn func(*os.File) error) {
			f, err := os.Create(path)
			if err == nil {
				err = fn(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", path)
		}
		if *traceOut != "" {
			write(*traceOut, func(f *os.File) error { return set.WriteChromeTrace(f) })
		}
		if *metricsOut != "" {
			write(*metricsOut, func(f *os.File) error { return set.WriteMetricsJSON(f) })
		}
	}

	if *jsonOut {
		res, err := experiments.EngineBench(*seed, "BENCH_engine.json")
		if err != nil {
			fmt.Fprintf(os.Stderr, "engine bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(res.String())
		fmt.Println("wrote BENCH_engine.json")
		return
	}

	if *sweepJSON {
		res, err := experiments.SweepBench(*seed, "BENCH_sweep.json")
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(res.String())
		fmt.Println("wrote BENCH_sweep.json")
		return
	}

	if *snapshotJSON {
		res, err := experiments.SnapshotBench(*seed, "BENCH_snapshot.json")
		if err != nil {
			fmt.Fprintf(os.Stderr, "snapshot bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(res.String())
		fmt.Println("wrote BENCH_snapshot.json")
		return
	}

	if *replayPath != "" {
		buf, err := os.ReadFile(*replayPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "replay: %v\n", err)
			os.Exit(1)
		}
		var b experiments.Bundle
		if err := json.Unmarshal(buf, &b); err != nil {
			fmt.Fprintf(os.Stderr, "replay: %s: %v\n", *replayPath, err)
			os.Exit(1)
		}
		if err := experiments.RunBundle(&b); err != nil {
			fmt.Fprintf(os.Stderr, "replay: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("replay ok: recipe %s seed %d reproduced snapshot %s… at cut %v and digest %s…\n",
			b.Recipe, b.Seed, b.SnapshotSHA256[:16], sim.Time(b.CutNs), b.Digest.SHA256[:16])
		return
	}

	if *reproPath != "" {
		var params json.RawMessage
		if *recipeParams != "" {
			params = json.RawMessage(*recipeParams)
		}
		b, err := experiments.CaptureBundle(*recipeName, params, *seed, *cutFrac)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			os.Exit(1)
		}
		buf, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*reproPath, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: recipe %s seed %d, snapshot %s… at cut %v\n",
			*reproPath, b.Recipe, b.Seed, b.SnapshotSHA256[:16], sim.Time(b.CutNs))
		return
	}

	if *clusterJSON {
		res, err := experiments.ClusterSweep(*seed, 0, *parallel, "BENCH_cluster.json")
		if err != nil {
			fmt.Fprintf(os.Stderr, "cluster sweep: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(res.String())
		fmt.Println("wrote BENCH_cluster.json")
		return
	}

	if *collJSON {
		res, err := experiments.CollSweep(*seed, *parallel, "BENCH_coll.json")
		if err != nil {
			fmt.Fprintf(os.Stderr, "coll sweep: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(res.String())
		fmt.Println("wrote BENCH_coll.json")
		return
	}

	if *faultJSON {
		res, err := experiments.FaultSweep(*seed, 0, *parallel, "BENCH_fault.json")
		if err != nil {
			fmt.Fprintf(os.Stderr, "fault sweep: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(res.String())
		fmt.Println("wrote BENCH_fault.json")
		return
	}

	reps5, reps6, t2reps, runs8, runs9 := 500, 500, 20, 10, 5
	if *fast {
		reps5, reps6, t2reps, runs8, runs9 = 50, 50, 5, 3, 3
	}

	run := func(name string, fn func() (fmt.Stringer, error)) {
		start := time.Now() //xemem:wallclock -- reports wall time of figure regeneration to the operator
		res, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(res.String())
		fmt.Printf("[%s regenerated in %.1fs wall time]\n\n", name, time.Since(start).Seconds()) //xemem:wallclock -- reports wall time of figure regeneration to the operator
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("fig5") {
		run("fig5", func() (fmt.Stringer, error) { return experiments.Fig5(*seed, reps5, *parallel) })
	}
	if want("fig6") {
		run("fig6", func() (fmt.Stringer, error) { return experiments.Fig6(*seed, reps6, *parallel) })
	}
	if want("table2") {
		run("table2", func() (fmt.Stringer, error) { return experiments.Table2(*seed, t2reps, *parallel) })
	}
	if want("fig7") {
		run("fig7", func() (fmt.Stringer, error) { return experiments.Fig7(*seed, *parallel) })
	}
	if want("fig8") {
		run("fig8", func() (fmt.Stringer, error) { return experiments.Fig8(*seed, runs8, *parallel) })
	}
	if want("fig9") {
		run("fig9", func() (fmt.Stringer, error) { return experiments.Fig9(*seed, runs9, *parallel) })
	}
	switch *exp {
	case "all", "fig5", "fig6", "fig7", "fig8", "fig9", "table2":
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	exportTraces()
}
