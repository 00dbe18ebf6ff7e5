// Command xemem-insitu runs one composed in situ workload (§6) in a
// chosen Table 3 enclave configuration and workflow, printing the
// component completion times and attachment statistics — a single cell of
// Figure 8, with knobs.
//
// Usage:
//
//	xemem-insitu -config kitten-linux -sync -recurring -iters 600
//
// Configurations: linux-linux, kitten-linux, kitten-vm-linuxhost,
// kitten-vm-kittenhost.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"xemem/internal/experiments"
	"xemem/internal/sim/trace"
)

func main() {
	config := flag.String("config", "kitten-linux", "enclave configuration: linux-linux, kitten-linux, kitten-vm-linuxhost, kitten-vm-kittenhost")
	sync := flag.Bool("sync", false, "synchronous execution model (default asynchronous)")
	recurring := flag.Bool("recurring", false, "recurring attachment model (default one-time)")
	runs := flag.Int("runs", 3, "repetitions (mean ± stddev reported)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for the repetitions (1 = serial runner; results are byte-identical at any value)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of every run to this file (open in chrome://tracing or Perfetto)")
	metricsOut := flag.String("metrics", "", "write per-run contention metrics JSON to this file and print the breakdown tables")
	flag.Parse()

	var set *trace.Set
	if *traceOut != "" || *metricsOut != "" {
		set = trace.NewSet()
		set.SetKeepEvents(*traceOut != "")
		// The cell-aware hook keeps trace export order independent of the
		// worker count.
		experiments.ObserveCell = set.CellHook()
	}

	names := map[string]experiments.Fig8Config{
		"linux-linux":          experiments.LinuxLinux,
		"kitten-linux":         experiments.KittenLinux,
		"kitten-vm-linuxhost":  experiments.KittenVMOnLx,
		"kitten-vm-kittenhost": experiments.KittenVMOnKt,
	}
	cfg, ok := names[*config]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown config %q\n", *config)
		os.Exit(2)
	}

	res, err := experiments.Fig8Single(*seed, cfg, *sync, *recurring, *runs, *parallel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	model := "asynchronous"
	if *sync {
		model = "synchronous"
	}
	attach := "one-time"
	if *recurring {
		attach = "recurring"
	}
	fmt.Printf("Configuration : %s\n", cfg)
	fmt.Printf("Workflow      : %s execution, %s attachments\n", model, attach)
	fmt.Printf("Runs          : %d\n", *runs)
	fmt.Printf("HPC simulation: %.2f ± %.2f s\n", res.MeanS, res.StdS)

	if set != nil {
		if *metricsOut != "" {
			fmt.Println()
			fmt.Println(experiments.Breakdown(set))
		}
		if err := set.WriteFiles(*traceOut, *metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
