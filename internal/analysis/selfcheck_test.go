package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xemem/internal/analysis"
)

// TestRealModuleClean is the merge gate behind the merge gate: it runs
// the full analyzer suite over the real xemem module and asserts zero
// diagnostics, so a PR that introduces a violation (or a malformed
// suppression directive) fails `go test ./...` even if it skips
// `make check`.
func TestRealModuleClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	m, err := analysis.Load(root)
	if err != nil {
		t.Fatalf("Load(%s): %v", root, err)
	}
	if m.Path != "xemem" {
		t.Fatalf("loaded module %q from %s, want xemem (test run from an unexpected directory?)", m.Path, root)
	}

	// A healthy tree type-checks without soft errors; degraded type info
	// would silently blunt the analyzers, so it is a failure here.
	for _, pkg := range m.Pkgs {
		for _, err := range pkg.TypeErrors {
			t.Errorf("type error in %s: %v", pkg.Path, err)
		}
	}

	for _, d := range analysis.Run(m, analysis.All()) {
		t.Errorf("xemem-vet finding: %s", d)
	}
}

// TestCheckRejectsTypeErrors: an import with no export data degrades to
// an empty stub, so Load and Run carry on with blunted type information
// — but the driver entry point must refuse to call such a module clean.
func TestCheckRejectsTypeErrors(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":         "module tmpmod\n\ngo 1.22\n",
		"lib/lib.go":     "package lib\n\nimport \"tmpmod/missing\"\n\nvar X = missing.Value\n",
		"clean/clean.go": "package clean\n\nimport \"sort\"\n\nvar Y = sort.Ints\n",
	}
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	m, err := analysis.Load(root)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if pkg := m.Lookup("tmpmod/lib"); pkg == nil || len(pkg.TypeErrors) == 0 {
		t.Fatalf("Load recorded no type errors for tmpmod/lib")
	}
	if pkg := m.Lookup("tmpmod/clean"); pkg == nil || len(pkg.TypeErrors) != 0 {
		t.Fatalf("tmpmod/clean should type-check against export data")
	}

	_, _, err = analysis.Check(root, analysis.All())
	if err == nil || !strings.Contains(err.Error(), "tmpmod/lib") {
		t.Fatalf("Check error = %v, want one naming tmpmod/lib", err)
	}
}

// TestCheckMatchesRun: on a module that type-checks, Check reports what
// Load+Run report, plus the stats the -timing and -json output print.
func TestCheckMatchesRun(t *testing.T) {
	root := filepath.Join("testdata", "determinism")
	m, err := analysis.Load(root)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	want := analysis.Run(m, analysis.All())

	got, stats, err := analysis.Check(root, analysis.All())
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("Check reported %d diagnostics, Run %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d: Check %s, Run %s", i, got[i], want[i])
		}
	}
	if stats.Packages != len(m.Pkgs) || len(stats.AnalyzerNs) != len(analysis.All()) || stats.TotalNs < stats.LoadNs {
		t.Errorf("stats = %+v, want %d packages and a timing per analyzer", stats, len(m.Pkgs))
	}
}
