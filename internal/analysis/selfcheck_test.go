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

	for _, d := range analysis.Run(m, analysis.All()) {
		t.Errorf("xemem-vet finding: %s", d)
	}
}

// TestLoadRejectsTypeErrors: a package that does not type-check (here
// an import of a module path with no package behind it) fails the load,
// naming the package, instead of reaching the analyzers with partial
// type information.
func TestLoadRejectsTypeErrors(t *testing.T) {
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

	_, err := analysis.Load(root)
	if err == nil || !strings.Contains(err.Error(), "tmpmod/lib") || !strings.Contains(err.Error(), "lib.go:3:") {
		t.Fatalf("Load error = %v, want one naming tmpmod/lib and its position", err)
	}
}
