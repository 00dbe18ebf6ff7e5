// Command xemem-vet runs the repo's domain-specific static analyzers
// over the module: determinism (no host clocks or global rand in
// simulation code), chargecheck (every sim.Costs constant flows into a
// charge — tracked through helpers via interprocedural summaries; no
// Actor clock writes bypass Advance/AdvanceN), paircheck (XPMEM
// Get/Attach handles are releasable, including via the module's own
// helpers), maporder (no unsorted map iteration on exporter paths),
// hookstate (package-level hook variables are written only by driver
// binaries), partition (actor state stays inside its own actor's
// dispatch, closures included), and snapshotcheck (every mutable field
// of a registered snapshot component is encoded).
//
// Usage:
//
//	go run ./cmd/xemem-vet ./...
//	go run ./cmd/xemem-vet -list
//	go run ./cmd/xemem-vet -json ./...
//	go run ./cmd/xemem-vet -timing ./...
//
// Package patterns are accepted for familiarity with go vet but the
// whole module is always loaded and analyzed: the invariants are
// module-wide (a cost constant is "dead" only if nothing anywhere
// charges it). Exit status is 1 when any diagnostic survives the
// //xemem:allow, //xemem:wallclock, and //xemem:nosnap suppression
// directives, which require a " -- <reason>" string; malformed
// directives are themselves diagnostics. Exit status is 2 when the
// module cannot be loaded or a package does not type-check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"xemem/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit diagnostics and stats as JSON")
	timing := flag.Bool("timing", false, "print the load and per-analyzer wall-clock timing")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: xemem-vet [-list] [-json] [-timing] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs xemem's invariant analyzers over the enclosing module.\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "xemem-vet:", err)
		os.Exit(2)
	}
	diags, stats, err := analysis.Check(root, analysis.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "xemem-vet:", err)
		os.Exit(2)
	}

	if *jsonOut {
		out := struct {
			Diagnostics []analysis.Diagnostic `json:"diagnostics"`
			Stats       *analysis.Stats       `json:"stats"`
		}{Diagnostics: diags, Stats: stats}
		if out.Diagnostics == nil {
			out.Diagnostics = []analysis.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "xemem-vet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s\n", d)
		}
	}

	if *timing {
		printTiming(stats)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "xemem-vet: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}

// printTiming renders the stats block to stderr so it never pollutes
// parseable stdout diagnostics.
func printTiming(stats *analysis.Stats) {
	fmt.Fprintf(os.Stderr, "xemem-vet: %d packages; load %s, total %s\n",
		stats.Packages, fmtNs(stats.LoadNs), fmtNs(stats.TotalNs))
	names := make([]string, 0, len(stats.AnalyzerNs))
	for name := range stats.AnalyzerNs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "xemem-vet:   %-14s %s\n", name, fmtNs(stats.AnalyzerNs[name]))
	}
}

func fmtNs(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.0fµs", float64(ns)/1e3)
	}
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
