// Package analysis is xemem's in-tree static-analysis framework: a
// stdlib-only (go/parser + go/ast + go/types, no x/tools) driver core
// plus the domain analyzers that mechanically enforce the simulator's
// correctness invariants — determinism of virtual time, cost-model
// charging, resource pairing, exporter map ordering, hook-variable
// discipline, per-dispatch actor isolation, and
// snapshot completeness. The cmd/xemem-vet driver loads the module,
// type-checks every package against compiler export data for its
// external imports, builds interprocedural function summaries, runs the
// analyzers (concurrently, one worker per package), applies //xemem:
// suppression directives, and reports what survives.
//
// Analyzers run per package and return *facts*; a Finish hook draws
// whole-module conclusions (a cost constant charged nowhere, a field no
// encoder writes) from the union of every package's facts.
//
// Invariants are enforced conservatively: an analyzer may miss an
// exotic violation, but every diagnostic it does emit is intended to be
// actionable, and every intentional exception must carry an explicit,
// reasoned suppression directive in the source.
package analysis

import (
	"fmt"
	"go/token"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Diagnostic is one finding: an invariant violation (or directive
// misuse) at a source position. Positions are module-root-relative so
// diagnostics are stable across checkouts.
type Diagnostic struct {
	Pos      token.Position `json:"pos"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
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

// FinishPass is an analyzer's whole-module view: the per-package facts
// its Run calls returned, and a reporter for module-level diagnostics.
type FinishPass struct {
	Analyzer *Analyzer
	// Facts maps package path → the value Run returned for that package
	// (absent when Run returned nil).
	Facts map[string]any

	report func(Diagnostic)
}

// Paths lists the packages that contributed facts, sorted.
func (f *FinishPass) Paths() []string {
	paths := make([]string, 0, len(f.Facts))
	for p := range f.Facts {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// Reportf records a module-level diagnostic at a (root-relative)
// position carried in facts.
func (f *FinishPass) Reportf(pos token.Position, format string, args ...any) {
	f.report(Diagnostic{Pos: pos, Analyzer: f.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Analyzer is one invariant checker.
type Analyzer struct {
	Name string
	Doc  string
	// Run analyzes one package and returns the analyzer's package facts
	// (nil when the package contributes none). Run is invoked
	// concurrently for different packages and must not share mutable
	// state across calls.
	Run func(*Pass) any
	// Finish, when non-nil, draws whole-module conclusions from the
	// union of per-package facts (e.g. "this cost constant is charged
	// nowhere").
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
		newSnapshotcheck(),
	}
}

// Names reports the analyzer names in suite order (the vocabulary the
// //xemem:allow directive accepts).
func Names() []string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return names
}

// Stats describes one driver run: its size and where the wall-clock
// went.
type Stats struct {
	Packages   int              `json:"packages"`
	LoadNs     int64            `json:"loadNs"` // parse + type-check + summaries
	AnalyzerNs map[string]int64 `json:"analyzerNs,omitempty"`
	TotalNs    int64            `json:"totalNs"`
}

// pkgResult is one package's complete analysis product: post-suppression
// diagnostics, per-analyzer facts, and the suppression records
// module-level diagnostics must honor.
type pkgResult struct {
	Path  string
	Diags []Diagnostic
	Facts map[string]any
	Sup   []supRecord
}

// Check is the driver's entry point: it loads the module at root, runs
// the analyzers over it, and times both. Unlike Load, which degrades
// softly, Check fails when a package has type errors: degraded type
// information would blunt every analyzer for that package while the
// run still reported clean.
func Check(root string, analyzers []*Analyzer) ([]Diagnostic, *Stats, error) {
	start := time.Now() //xemem:wallclock -- driver self-timing for `make vet`, never simulation state
	m, err := Load(root)
	if err != nil {
		return nil, nil, err
	}
	for _, pkg := range m.Pkgs {
		if len(pkg.TypeErrors) > 0 {
			return nil, nil, fmt.Errorf("analysis: %s does not type-check: %v", pkg.Path, pkg.TypeErrors[0])
		}
	}
	m.Summaries()
	stats := &Stats{Packages: len(m.Pkgs)}
	stats.LoadNs = int64(time.Since(start)) //xemem:wallclock -- driver self-timing
	diags := assemble(analyzers, runPackages(m, analyzers, stats))
	stats.TotalNs = int64(time.Since(start)) //xemem:wallclock -- driver self-timing
	return diags, stats, nil
}

// Run executes the given analyzers over a loaded module, applies the
// suppression directives found in the module's sources, and returns the
// surviving diagnostics sorted by position. Directive misuse (missing
// reason, unknown analyzer name, misplaced wallclock) is reported under
// the "directive" pseudo-analyzer and is never suppressible.
func Run(m *Module, analyzers []*Analyzer) []Diagnostic {
	return assemble(analyzers, runPackages(m, analyzers, nil))
}

// runPackages analyzes m's packages concurrently, returning results
// aligned with m.Pkgs. stats, when non-nil, accumulates per-analyzer
// timing.
func runPackages(m *Module, analyzers []*Analyzer, stats *Stats) []*pkgResult {
	m.Summaries() // built once, up front: read-only for the workers

	results := make([]*pkgResult, len(m.Pkgs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	timing := newTimingTable(analyzers)
	for i, pkg := range m.Pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = analyzePackage(m, analyzers, pkg, timing)
		}(i, pkg)
	}
	wg.Wait()

	if stats != nil {
		timing.addTo(stats)
	}
	return results
}

// analyzePackage runs every analyzer over one package, applies the
// package's own suppression directives, and bundles the result.
func analyzePackage(m *Module, analyzers []*Analyzer, pkg *Package, timing *timingTable) *pkgResult {
	sup := collectPackageDirectives(m, pkg, knownNames(analyzers))

	res := &pkgResult{Path: pkg.Path, Facts: make(map[string]any), Sup: sup.records}
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		start := time.Now() //xemem:wallclock -- analyzer self-timing for `make vet`, never simulation state
		facts := a.Run(&Pass{Analyzer: a, Module: m, Pkg: pkg, report: report})
		timing.add(a.Name, time.Since(start)) //xemem:wallclock -- analyzer self-timing
		if facts != nil {
			res.Facts[a.Name] = facts
		}
	}

	res.Diags = sup.errors // directive misuse is itself diagnosed, unsuppressibly
	for _, d := range diags {
		if !sup.suppressed(d) {
			res.Diags = append(res.Diags, d)
		}
	}
	sortDiags(res.Diags)
	return res
}

// assemble merges per-package results with the module-level Finish
// diagnostics (which honor suppression directives from any package) and
// sorts.
func assemble(analyzers []*Analyzer, results []*pkgResult) []Diagnostic {
	var kept []Diagnostic
	sup := &suppressions{byLine: make(map[lineKey]map[string]bool)}
	facts := make(map[string]map[string]any) // analyzer → pkg path → facts
	for _, r := range results {
		kept = append(kept, r.Diags...)
		for _, s := range r.Sup {
			sup.add(s.File, s.Line, s.Analyzer)
		}
		for name, fact := range r.Facts {
			if facts[name] == nil {
				facts[name] = make(map[string]any)
			}
			facts[name][r.Path] = fact
		}
	}

	var moduleDiags []Diagnostic
	report := func(d Diagnostic) { moduleDiags = append(moduleDiags, d) }
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		f := facts[a.Name]
		if f == nil {
			f = make(map[string]any)
		}
		a.Finish(&FinishPass{Analyzer: a, Facts: f, report: report})
	}
	for _, d := range moduleDiags {
		if !sup.suppressed(d) {
			kept = append(kept, d)
		}
	}
	sortDiags(kept)
	return kept
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
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
}

func knownNames(analyzers []*Analyzer) map[string]bool {
	known := make(map[string]bool)
	for _, a := range analyzers {
		known[a.Name] = true
	}
	return known
}

// timingTable accumulates per-analyzer wall-clock across concurrent
// package workers.
type timingTable struct {
	ns map[string]*atomic.Int64
}

func newTimingTable(analyzers []*Analyzer) *timingTable {
	t := &timingTable{ns: make(map[string]*atomic.Int64)}
	for _, a := range analyzers {
		t.ns[a.Name] = new(atomic.Int64)
	}
	return t
}

func (t *timingTable) add(name string, d time.Duration) {
	if c := t.ns[name]; c != nil {
		c.Add(int64(d))
	}
}

func (t *timingTable) addTo(stats *Stats) {
	if stats.AnalyzerNs == nil {
		stats.AnalyzerNs = make(map[string]int64)
	}
	for name, c := range t.ns {
		stats.AnalyzerNs[name] += c.Load()
	}
}
