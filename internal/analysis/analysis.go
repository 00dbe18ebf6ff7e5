// Package analysis is xemem's in-tree static-analysis framework: a
// stdlib-only (go/parser + go/ast + go/types, no x/tools) driver core
// plus the domain analyzers that mechanically enforce the simulator's
// correctness invariants — determinism of virtual time, cost-model
// charging, resource pairing, exporter map ordering, hook-variable
// discipline, and per-dispatch actor isolation. The cmd/xemem-vet driver loads the module,
// type-checks every package against compiler export data for its
// external imports (a package that does not type-check fails the load),
// builds interprocedural function summaries, runs the analyzers over
// one package at a time, applies //xemem: suppression directives, and
// reports what survives.
//
// Analyzers run per package; an analyzer that draws whole-module
// conclusions (a cost constant charged nowhere) accumulates what each package contributes and reports from
// its Finish hook once every package has been seen.
//
// Invariants are enforced conservatively: an analyzer may miss an
// exotic violation, but every diagnostic it does emit is intended to be
// actionable, and every intentional exception must carry an explicit,
// reasoned suppression directive in the source.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one finding: an invariant violation (or directive
// misuse) at a source position. Positions are module-root-relative so
// diagnostics are stable across checkouts.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string

	hostClock bool // a determinism finding //xemem:wallclock excuses
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one package plus the whole-module
// context interprocedural analyzers need.
type Pass struct {
	Analyzer *Analyzer
	Module   *Module
	Pkg      *Package

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos (stored root-relative).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Module.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// FinishPass is an analyzer's whole-module reporter.
type FinishPass struct {
	Analyzer *Analyzer

	report func(Diagnostic)
}

// Reportf records a module-level diagnostic at a (root-relative)
// position the analyzer kept from its per-package passes.
func (f *FinishPass) Reportf(pos token.Position, format string, args ...any) {
	f.report(Diagnostic{Pos: pos, Analyzer: f.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Analyzer is one invariant checker. An analyzer value serves one Run:
// what Run accumulates across packages for Finish lives in the analyzer
// its constructor builds, and All builds fresh ones.
type Analyzer struct {
	Name string
	Doc  string
	// Run analyzes one package. Packages are visited one at a time, in
	// import-path order.
	Run func(*Pass)
	// Finish, when non-nil, runs once after every package and draws
	// whole-module conclusions from what Run accumulated (e.g. "this
	// cost constant is charged nowhere").
	Finish func(*FinishPass)
}

// All returns the full analyzer suite in fixed order.
func All() []*Analyzer {
	return []*Analyzer{
		newDeterminism(),
		newChargecheck(),
		newPaircheck(),
		newMaporder(),
		newHookstate(),
		newPartition(),
	}
}

// Run executes the given analyzers over a loaded module, applies the
// suppression directives found in the module's sources, and returns the
// surviving diagnostics sorted by position. Directive misuse (missing
// reason, unknown analyzer name, misplaced wallclock) is reported under
// the "directive" pseudo-analyzer and is never suppressible.
func Run(m *Module, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool)
	for _, a := range analyzers {
		known[a.Name] = true
	}
	sup := &suppressions{byLine: make(map[lineKey]map[string]bool)}
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, pkg := range m.Pkgs {
		sup.collect(m, pkg, known)
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Module: m, Pkg: pkg, report: report})
		}
	}
	for _, a := range analyzers {
		if a.Finish != nil {
			a.Finish(&FinishPass{Analyzer: a, report: report})
		}
	}

	kept := sup.errors // directive misuse is itself diagnosed, unsuppressibly
	for _, d := range diags {
		if !sup.suppressed(d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return kept
}
