package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module under
// analysis.
type Package struct {
	Path  string // import path, e.g. "xemem/internal/sim"
	Dir   string
	Files []*ast.File // non-test files, in filename order

	Types *types.Package
	Info  *types.Info
}

// Module is a fully loaded Go module: every non-test package parsed and
// type-checked, plus the raw source lines the directive scanner needs.
type Module struct {
	Root string // filesystem root (directory containing go.mod)
	Path string // module path from go.mod
	Fset *token.FileSet
	Pkgs []*Package // import-path order

	byPath map[string]*Package
	lines  map[string][]string // filename -> source lines (1-based via index+1)
	order  []*Package          // dependency (topological) order

	// summaries is the lazily built interprocedural summary index shared
	// by every analyzer pass over this module.
	summaries *Summaries
}

// Position resolves pos to a token.Position whose filename is relative
// to the module root — the canonical form every diagnostic, directive,
// and fact uses, so output is stable across checkouts.
func (m *Module) Position(pos token.Pos) token.Position {
	p := m.Fset.Position(pos)
	if rel, err := filepath.Rel(m.Root, p.Filename); err == nil {
		p.Filename = filepath.ToSlash(rel)
	}
	return p
}

// Lookup returns the module package with the given import path, nil if
// absent.
func (m *Module) Lookup(path string) *Package { return m.byPath[path] }

// Line returns the text of line n (1-based) of a loaded file, "" when
// unknown.
func (m *Module) Line(filename string, n int) string {
	lines := m.lines[filename]
	if n < 1 || n > len(lines) {
		return ""
	}
	return lines[n-1]
}

// Load parses and type-checks every non-test package under root, which
// must contain a go.mod naming the module. Module-external imports are
// read from compiler export data located by one `go list -export`. Load
// fails on the first type error, naming its package and position: the
// analyzers read full type information and never guess around a gap.
func Load(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root:   root,
		Path:   modPath,
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*Package),
		lines:  make(map[string][]string),
	}

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		pkg, err := m.parseDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			m.Pkgs = append(m.Pkgs, pkg)
			m.byPath[pkg.Path] = pkg
		}
	}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].Path < m.Pkgs[j].Path })

	order, err := m.topoOrder()
	if err != nil {
		return nil, err
	}
	m.order = order
	exports, err := m.exportFiles()
	if err != nil {
		return nil, err
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %s", path)
		}
		return os.Open(file)
	}
	imp := &moduleImporter{m: m, std: importer.ForCompiler(m.Fset, "gc", lookup)}
	for _, pkg := range order {
		if err := m.check(pkg, imp); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// exportFiles maps every module-external import path to its compiler
// export data file, as reported by one `go list -export` in the module
// root; a path go list cannot resolve fails the load. A path under the
// module's own that names no loaded package gets no file, so the
// importing package's type check reports it.
func (m *Module) exportFiles() (map[string]string, error) {
	var paths []string
	seen := make(map[string]bool)
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, spec := range f.Imports {
				path := strings.Trim(spec.Path.Value, `"`)
				if m.byPath[path] == nil && !strings.HasPrefix(path, m.Path+"/") && !seen[path] {
					seen[path] = true
					paths = append(paths, path)
				}
			}
		}
	}
	exports := make(map[string]string)
	if len(paths) == 0 {
		return exports, nil
	}
	cmd := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}, paths...)...)
	cmd.Dir = m.Root
	out, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			err = fmt.Errorf("%w: %s", err, strings.TrimSpace(string(ee.Stderr)))
		}
		return nil, fmt.Errorf("analysis: go list -export: %w", err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok && file != "" {
			exports[path] = file
		}
	}
	return exports, nil
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			if path := strings.TrimSpace(rest); path != "" {
				return strings.Trim(path, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// packageDirs lists every directory under root that may hold a package,
// skipping testdata, vendor, hidden, and underscore-prefixed trees.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// parseDir parses the non-test Go files of one directory, returning nil
// when the directory holds none.
func (m *Module) parseDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		filename := filepath.Join(dir, name)
		src, err := os.ReadFile(filename)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(m.Fset, filename, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %w", filename, err)
		}
		// Keyed root-relative: directive and diagnostic positions use the
		// relative form throughout.
		if rel, err := filepath.Rel(m.Root, filename); err == nil {
			m.lines[filepath.ToSlash(rel)] = strings.Split(string(src), "\n")
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil {
		return nil, err
	}
	path := m.Path
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}
	return &Package{Path: path, Dir: dir, Files: files}, nil
}

// topoOrder returns the module's packages in dependency order so each
// package's internal imports are type-checked before it is.
func (m *Module) topoOrder() ([]*Package, error) {
	const (
		white = iota // unvisited
		gray         // on stack
		black        // done
	)
	state := make(map[*Package]int)
	var order []*Package
	var visit func(p *Package) error
	visit = func(p *Package) error {
		switch state[p] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("analysis: import cycle through %s", p.Path)
		}
		state[p] = gray
		for _, f := range p.Files {
			for _, spec := range f.Imports {
				path := strings.Trim(spec.Path.Value, `"`)
				if dep := m.byPath[path]; dep != nil {
					if err := visit(dep); err != nil {
						return err
					}
				}
			}
		}
		state[p] = black
		order = append(order, p)
		return nil
	}
	for _, p := range m.Pkgs {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// check type-checks one package, failing on its first type error.
func (m *Module) check(pkg *Package, imp types.Importer) error {
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkg.Path, m.Fset, pkg.Files, pkg.Info)
	if err != nil {
		return fmt.Errorf("analysis: %s does not type-check: %w", pkg.Path, err)
	}
	pkg.Types = tpkg
	return nil
}

// moduleImporter resolves module-internal imports from the loader's own
// packages (already type-checked, thanks to topo order) and everything
// else from compiler export data.
type moduleImporter struct {
	m   *Module
	std types.Importer
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg := mi.m.byPath[path]; pkg != nil {
		return pkg.Types, nil
	}
	return mi.std.Import(path)
}
