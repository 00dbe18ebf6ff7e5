// Command xemem-bench regenerates the paper's evaluation (§5–§7): every
// table and figure, printed as the rows/series the paper reports.
//
// Usage:
//
//	xemem-bench -experiment fig5|fig6|table2|fig7|fig8|fig9|all [flags]
//	xemem-bench -bench engine|fault|cluster|coll|all [flags]
//
// Both select from one table, experiments.Artifacts, which holds each
// artifact's name, repetition counts and run function. -bench
// regenerates the named BENCH_<name>.json files in the current
// directory at full counts and takes precedence over -experiment.
//
// The simulator is deterministic: rerunning with the same -seed reproduces
// identical numbers. -experiment -fast trades repetition count for wall
// time (the shapes are unchanged; the simulator has no measurement noise
// to average away).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"xemem/internal/experiments"
	"xemem/internal/sim"
	"xemem/internal/sim/trace"
)

func main() {
	exp := flag.String("experiment", "all", "which experiment to run: "+names(false)+", all")
	seed := flag.Uint64("seed", 42, "simulation seed")
	fast := flag.Bool("fast", false, "reduced repetition counts for quick runs")
	benchName := flag.String("bench", "", "regenerate BENCH_<name>.json for one benchmark, or all of them: "+names(true)+", all")
	replayPath := flag.String("replay", "", "re-run the repro bundle at this path, verify its window and final trace digests, and audit the ended world")
	reproPath := flag.String("repro", "", "capture a repro bundle to this path: the trace digest at the end of each of 16 equal windows of the run (see -recipe, -recipe-params)")
	recipeName := flag.String("recipe", "fig9", "recipe for -repro: one of "+experiments.RecipeNames())
	recipeParams := flag.String("recipe-params", "", "JSON parameter blob for -repro (recipe defaults when empty)")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of every simulated world to this file (open in chrome://tracing or Perfetto; combine with -fast)")
	metricsOut := flag.String("metrics", "", "write per-world contention metrics JSON to this file and print the per-figure breakdown tables")
	flag.Parse()

	var set *trace.Set
	if *traceOut != "" || *metricsOut != "" {
		set = trace.NewSet()
		set.SetKeepEvents(*traceOut != "") // metrics-only runs keep memory flat
		experiments.Observe = set.Observe
	}

	if *replayPath != "" {
		b, err := experiments.LoadBundle(*replayPath)
		if err == nil {
			err = experiments.RunBundle(b)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "replay: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("replay ok: recipe %s seed %d reproduced %d windows of %v and digest %s…, audit passed\n",
			b.Recipe, b.Seed, len(b.Windows), sim.Time(b.WindowNs), b.Digest.SHA256[:16])
		return
	}

	if *reproPath != "" {
		var params json.RawMessage
		if *recipeParams != "" {
			params = json.RawMessage(*recipeParams)
		}
		b, err := experiments.CaptureBundle(*recipeName, params, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			os.Exit(1)
		}
		if err := writeJSON(*reproPath, b); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: recipe %s seed %d, %d windows of %v, digest %s…\n",
			*reproPath, b.Recipe, b.Seed, len(b.Windows), sim.Time(b.WindowNs), b.Digest.SHA256[:16])
		return
	}

	bench, want := *benchName != "", *exp
	if bench {
		want = *benchName
	}
	sel, err := selectNamed(want, bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, a := range sel {
		n, file := a.Full, "BENCH_"+a.Name+".json"
		if *fast && !bench {
			n = a.Fast
		}
		start := time.Now() //xemem:wallclock -- reports wall time of figure regeneration to the operator
		res, err := a.Run(*seed, n)
		if err == nil {
			fmt.Println(res.String())
			if bench {
				err = writeJSON(file, res)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", a.Name, err)
			os.Exit(1)
		}
		if bench {
			fmt.Printf("wrote %s\n", file)
		} else {
			fmt.Printf("[%s regenerated in %.1fs wall time]\n\n", a.Name, time.Since(start).Seconds()) //xemem:wallclock -- reports wall time of figure regeneration to the operator
		}
	}

	if set != nil {
		if *metricsOut != "" {
			fmt.Println(experiments.Breakdown(set))
		}
		if err := set.WriteFiles(*traceOut, *metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
