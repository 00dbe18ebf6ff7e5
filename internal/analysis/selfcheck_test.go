package analysis_test

import (
	"go/types"
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

// keptExports names the exported identifiers in the root package and
// internal/ that no program code calls but that stay exported, each
// with the reason. A name is "pkg.Func", "pkg.Type.Method" or
// "pkg.Const", pkg being the last element of the import path.
var keptExports = map[string]string{
	"coll.ModeAuto":             "the documented zero Mode",
	"core.OpError.Unwrap":       "errors.Is and errors.As reach it through an unnamed interface in package errors",
	"experiments.Fig6Explain":   "the per-layer breakdown of Fig. 6, to be generalized into a tool",
	"experiments.Table2":        "the benchmark module's tests call it",
	"mem.PhysMem.Pinned":        "cross-package test oracle: pins released by a detach",
	"mem.Zone.FreePages":        "cross-package test oracle: a co-kernel's block leaves and returns whole",
	"pagetable.Table.Map":       "reference oracle: the per-page mapper the batched paths are checked against",
	"pagetable.Table.Mapped":    "cross-package test oracle: PTE counts in proc's populate tests",
	"pagetable.Table.Tables":    "cross-package test oracle: table counts in proc's populate tests",
	"palacios.VM.MapEntries":    "cross-package test oracle: guest memory map entries",
	"pisces.CoKernel.Destroy":   "the dynamic co-kernel teardown of §3.2; no artifact runs it",
	"proc.AddressSpace.Regions": "cross-package test oracle: kitten's static process layout",
	"rbtree.Map.Height":         "reference oracle: the balance invariant checks",
	"rbtree.Map.Validate":       "reference oracle: the red-black invariant checks",
	"sim.Sample.N":              "cross-package test oracle: insitu's attachment counts",
	"xpmem.AttachAll":           "part of the Table 1 XPMEM API",
}

// TestNoTestOnlyExports fails for any exported function, method or
// constant of the root package or internal/ that no non-test package
// of the loaded tree (benchmark/ included) uses, unless keptExports
// names it. A method that implements an interface is exempt: the
// interface call site names the interface method, not it. An export
// only tests reach moves to the package's export_test.go, or goes
// with the test that alone checks it.
func TestNoTestOnlyExports(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	m, err := analysis.Load(root)
	if err != nil {
		t.Fatalf("Load(%s): %v", root, err)
	}
	// Interfaces: every interface type the tree's code mentions (named
	// or literal, as in a type assertion), those its imports declare,
	// and error.
	used := make(map[types.Object]bool)
	ifaces := map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	for _, pkg := range m.Pkgs {
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			used[obj] = true
		}
		for _, tv := range pkg.Info.Types {
			addIface(tv.Type)
		}
		for _, imp := range pkg.Types.Imports() {
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
		}
	}
	implements := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		for it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() &&
					(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
					return true
				}
			}
		}
		return false
	}
	seen := make(map[string]bool)
	check := func(name string, obj types.Object) {
		seen[name] = true
		if _, kept := keptExports[name]; !kept && !used[obj] {
			t.Errorf("%s: exported but no non-test code uses it; delete it, move it to export_test.go, or add it to keptExports with a reason", name)
		}
	}
	for _, pkg := range m.Pkgs {
		if pkg.Path != m.Path && !strings.HasPrefix(pkg.Path, m.Path+"/internal/") {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			qual := pkg.Types.Name() + "." + name
			switch obj := obj.(type) {
			case *types.Func, *types.Const:
				if obj.Exported() {
					check(qual, obj)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if fn := named.Method(i); fn.Exported() && !implements(fn) {
						check(qual+"."+fn.Name(), fn)
					}
				}
			}
		}
	}
	for name := range keptExports {
		if !seen[name] {
			t.Errorf("keptExports names %s, which is not an exported function, method or constant", name)
		}
	}
}
