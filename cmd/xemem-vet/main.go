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
//	go run ./cmd/xemem-vet -timing -assert-warm ./...
//
// Package patterns are accepted for familiarity with go vet but the
// whole module is always loaded and analyzed: the invariants are
// module-wide (a cost constant is "dead" only if nothing anywhere
// charges it). Per-package results are cached under the module's
// .vetcache/ directory, keyed by content hash and invalidated
// transitively through the import graph; -no-cache bypasses it and
// -assert-warm fails unless every package was served from it. Exit
// status is 1 when any diagnostic survives the //xemem:allow,
// //xemem:wallclock, and //xemem:nosnap suppression directives, which
// require a " -- <reason>" string; malformed directives are themselves
// diagnostics.
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
	timing := flag.Bool("timing", false, "print per-analyzer wall-clock timing and the cache hit rate")
	noCache := flag.Bool("no-cache", false, "bypass the .vetcache result cache")
	cacheDir := flag.String("cache-dir", "", "override the cache directory (default <module>/.vetcache)")
	assertWarm := flag.Bool("assert-warm", false, "fail unless every package was served from the cache (CI warm-run check)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: xemem-vet [-list] [-json] [-timing] [-no-cache] [-cache-dir dir] [-assert-warm] [packages]\n\n")
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
	diags, stats, err := analysis.RunCached(root, analysis.All(), analysis.Options{
		CacheDir: *cacheDir,
		NoCache:  *noCache,
	})
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
	if *assertWarm && (stats.CacheHits != stats.Packages || len(stats.Analyzed) != 0) {
		fmt.Fprintf(os.Stderr, "xemem-vet: -assert-warm: only %d/%d packages served from cache (re-analyzed: %v)\n",
			stats.CacheHits, stats.Packages, stats.Analyzed)
		os.Exit(3)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "xemem-vet: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}

// printTiming renders the stats block to stderr so it never pollutes
// parseable stdout diagnostics.
func printTiming(stats *analysis.Stats) {
	fmt.Fprintf(os.Stderr, "xemem-vet: %d packages, %d cache hits (%.0f%%), %d re-analyzed; load %s, total %s\n",
		stats.Packages, stats.CacheHits, hitRate(stats), len(stats.Analyzed),
		fmtNs(stats.LoadNs), fmtNs(stats.TotalNs))
	names := make([]string, 0, len(stats.AnalyzerNs))
	for name := range stats.AnalyzerNs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "xemem-vet:   %-14s %s\n", name, fmtNs(stats.AnalyzerNs[name]))
	}
}

func hitRate(stats *analysis.Stats) float64 {
	if stats.Packages == 0 {
		return 0
	}
	return 100 * float64(stats.CacheHits) / float64(stats.Packages)
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
