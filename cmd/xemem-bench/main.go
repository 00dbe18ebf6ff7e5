// Command xemem-bench regenerates the paper's evaluation (§5–§7: every
// table and figure, printed as the rows/series the paper reports) and
// the sweeps beyond it (fault, cluster, coll).
//
// Usage:
//
//	xemem-bench -experiment fig5|fig6|table2|fig7|fig8|fig9|fault|cluster|coll|all [-seed n] [-fast] [-trace f] [-metrics f]
//	xemem-bench -bench fig5|...|coll|all [-seed n] [-trace f] [-metrics f]
//	xemem-bench -repro bundle.json -cell <label> [-fast] [-seed n]
//	xemem-bench -replay bundle.json
//
// -experiment and -bench select from one table, experiments.Artifacts,
// which holds each artifact's name, repetition counts and grid of cells
// (one cell per simulated world). -experiment prints the named
// artifacts; -bench prints them at full counts and writes each one's
// BENCH_<name>.json into the current directory. Every BENCH file is a
// pure function of the seed: it regenerates byte-for-byte on any
// machine. Host time is measured by the go test benchmarks and the
// benchmark/ module, never here.
//
// -repro captures one world, named by its cell label (the label it has
// in -trace and -metrics), as a repro bundle; -replay re-runs a bundle
// and verifies its digests. The mode is the first of -replay, -repro,
// -bench set, else -experiment; a flag the mode does not read (see
// Usage) exits 2 instead of being ignored.
//
// The simulator is deterministic: rerunning with the same -seed reproduces
// identical numbers. -experiment -fast trades repetition count for wall
// time (the shapes are unchanged; the simulator has no measurement noise
// to average away).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
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
	reproPath := flag.String("repro", "", "capture a repro bundle of the -cell world to this path: the trace digest at the end of each of 16 equal windows of the run")
	cellLabel := flag.String("cell", "", "the world -repro captures, by its label in -trace and -metrics (e.g. fig6/enclaves=2/size=128MB), at its artifact's full count or, with -fast, its fast count")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of every simulated world to this file (open in chrome://tracing or Perfetto; combine with -fast)")
	metricsOut := flag.String("metrics", "", "write per-world contention metrics JSON to this file and print the per-figure breakdown tables")
	flag.Parse()

	var given []string
	flag.Visit(func(f *flag.Flag) { given = append(given, f.Name) })
	if m, stray := strayFlag(given); stray != "" {
		fmt.Fprintf(os.Stderr, "-%s does not apply to -%s, which reads -%s\n", stray, m.name, strings.Join(m.reads, " -"))
		os.Exit(2)
	}

	var set *trace.Set
	var obs func(label string, w *sim.World)
	if *traceOut != "" || *metricsOut != "" {
		set = trace.NewSet()
		set.SetKeepEvents(*traceOut != "") // metrics-only runs keep memory flat
		obs = set.Observe
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
		fmt.Printf("replay ok: %s count %d seed %d reproduced %d windows of %v and digest %s…, audit passed\n",
			b.Cell, b.Count, b.Seed, len(b.Windows), sim.Time(b.WindowNs), b.Digest.SHA256[:16])
		return
	}

	if *reproPath != "" {
		name, _, _ := strings.Cut(*cellLabel, "/")
		sel, err := selectNamed(name)
		if err != nil || len(sel) != 1 {
			fmt.Fprintf(os.Stderr, "-repro needs -cell <label> of one artifact's world (%s), got %q\n", names(), *cellLabel)
			os.Exit(2)
		}
		n := sel[0].Full
		if *fast {
			n = sel[0].Fast
		}
		b, err := experiments.CaptureBundle(*cellLabel, n, *seed)
		if err == nil {
			err = writeJSON(*reproPath, b)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			if errors.Is(err, experiments.ErrNoCell) {
				os.Exit(2)
			}
			os.Exit(1)
		}
		fmt.Printf("wrote %s: %s count %d seed %d, %d windows of %v, digest %s…\n",
			*reproPath, b.Cell, b.Count, b.Seed, len(b.Windows), sim.Time(b.WindowNs), b.Digest.SHA256[:16])
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
		res, err := a.Grid(*seed, n).Run(obs)
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
