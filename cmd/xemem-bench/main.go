// Command xemem-bench regenerates the paper's evaluation (§5–§7): every
// table and figure, printed as the rows/series the paper reports.
//
// Usage:
//
//	xemem-bench -experiment fig5|fig6|fig7|fig8|fig9|table2|all [flags]
//	xemem-bench -bench engine|fault|cluster|coll|all [flags]
//
// -bench regenerates the named BENCH_<name>.json files in the current
// directory and takes precedence over -experiment.
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
	benchName := flag.String("bench", "", "regenerate BENCH_<name>.json for one benchmark, or all of them: "+benchNames()+", all")
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
		if err := set.WriteFiles(*traceOut, *metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *benchName != "" {
		sel, err := selectBenches(*benchName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for _, b := range sel {
			res, err := b.run(*seed, *parallel)
			if err == nil {
				fmt.Println(res.String())
				err = writeJSON(b.file(), res)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s bench: %v\n", b.name, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", b.file())
		}
		exportTraces()
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
		if err := writeJSON(*reproPath, b); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: recipe %s seed %d, snapshot %s… at cut %v\n",
			*reproPath, b.Recipe, b.Seed, b.SnapshotSHA256[:16], sim.Time(b.CutNs))
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
