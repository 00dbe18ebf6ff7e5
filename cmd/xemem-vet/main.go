// Command xemem-vet runs the repo's domain-specific static analyzers
// over the module: determinism (no host clocks or global rand in
// simulation code), chargecheck (every sim.Costs constant flows into a
// charge — tracked through helpers via interprocedural summaries; no
// Actor clock writes bypass Advance), paircheck (XPMEM
// Get/Attach handles are releasable, including via the module's own
// helpers), maporder (no unsorted map iteration on exporter paths),
// hookstate (package-level hook variables are written only by driver
// binaries), and partition (actor state stays inside its own actor's
// dispatch, closures included). maporder also covers world-end audits,
// so an audit names the same first violation on every run.
//
// Usage:
//
//	go run ./cmd/xemem-vet ./...
//	go run ./cmd/xemem-vet -list
//
// Package patterns are accepted for familiarity with go vet but the
// whole module is always loaded and analyzed: the invariants are
// module-wide (a cost constant is "dead" only if nothing anywhere
// charges it). Exit status is 1 when any diagnostic survives the
// //xemem:allow and //xemem:wallclock suppression directives, which
// require a " -- <reason>" string; malformed
// directives are themselves diagnostics. Exit status is 2 when the
// module cannot be loaded, a package that does not type-check included.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"xemem/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: xemem-vet [-list] [packages]\n\n")
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
	m, err := analysis.Load(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xemem-vet:", err)
		os.Exit(2)
	}
	diags := analysis.Run(m, analysis.All())
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "xemem-vet: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
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
