// Command xemem-bench regenerates the paper's evaluation (§5–§7: every
// table and figure, printed as the rows/series the paper reports) and
// the sweeps beyond it (fault, cluster, coll).
//
// Usage:
//
//	xemem-bench -experiment fig5|fig6|table2|fig7|fig8|fig9|fault|cluster|coll|all [flags]
//	xemem-bench -bench fig5|...|coll|all [flags]
//
// Both select from one table, experiments.Artifacts, which holds each
// artifact's name, repetition counts and run function. -experiment
// prints the named artifacts; -bench prints them at full counts, writes
// each one's BENCH_<name>.json into the current directory and takes
// precedence over -experiment. Every BENCH file is a pure function of
// the seed: it regenerates byte-for-byte on any machine. Host time is
// measured by the go test benchmarks and the benchmark/ module, never
// here.
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
	exp := flag.String("experiment", "all", "which artifact to print: "+names()+", all")
	seed := flag.Uint64("seed", 42, "simulation seed")
	fast := flag.Bool("fast", false, "reduced repetition counts for quick runs")
	benchName := flag.String("bench", "", "print an artifact and write its BENCH_<name>.json at full counts, or all of them: "+names()+", all")
	replayPath := flag.String("replay", "", "re-run the repro bundle at this path, verify its window and final trace digests, and audit the ended world")
	reproPath := flag.String("repro", "", "capture a repro bundle to this path: the trace digest at the end of each of 16 equal windows of the run (see -recipe, -recipe-params)")
	recipeName := flag.String("recipe", "fig9", "recipe for -repro: one of "+experiments.RecipeNames())
	recipeParams := flag.String("recipe-params", "", "JSON parameter blob for -repro (recipe defaults when empty)")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of every simulated world to this file (open in chrome://tracing or Perfetto; combine with -fast)")
	metricsOut := flag.String("metrics", "", "write per-world contention metrics JSON to this file and print the per-figure breakdown tables")
	flag.Parse()

	// A bundle's windowed digest probe takes the place of the trace set's
	// observer, so -replay and -repro cannot also export a trace.
	if (*replayPath != "" || *reproPath != "") && (*traceOut != "" || *metricsOut != "") {
		fmt.Fprintln(os.Stderr, "-trace and -metrics do not apply to -replay or -repro")
		os.Exit(2)
	}

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
	sel, err := selectNamed(want)
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
