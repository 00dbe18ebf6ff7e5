package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The snapshotcheck analyzer guards snapshot fidelity (DESIGN.md §12):
// a snapshot hash fingerprints a world only if every piece of mutable
// simulation state reaches it. For every type whose EncodeSnapshot is
// registered as a snapshot component via World.AddSnapshotComponent —
// plus every type those encoders delegate to, transitively (a module
// encoder calls its nameserver's, an OS encoder its address spaces' and
// cores') — the analyzer verifies that every mutable field (written
// anywhere in the module outside New* constructors) is read by the
// encoder.
//
// Adding a field to a snapshotted struct therefore fails vet until the
// encoder handles it — or until the field is annotated, with a reason,
// as deliberately outside the snapshot:
//
//	links map[string]*Link //xemem:nosnap -- topology config, fixed at build
//
// Coverage is computed over the encoder's same-package call closure
// (helpers like encodeStats count), and a write through a field path
// (m.Stats.MsgsSent++) marks every field on the path mutable.

// snapEncoder is the snapshot encoder's method name: a call to it on
// another type makes that type part of the snapshot graph.
const snapEncoder = "EncodeSnapshot"

// snapshotcheck accumulates, over the per-package passes, the snapshot
// graph (its registered roots and every encoder-declaring type) and the
// field writes each package makes to other packages' snapshotted types.
type snapshotcheck struct {
	// roots lists the type keys registered via AddSnapshotComponent.
	roots []string
	// types maps type key → coverage fact for every type declaring an
	// EncodeSnapshot method.
	types map[string]snapTypeFact
	// extMutable records mutations of snapshotted types' fields from
	// outside their own package (the owning package's pass cannot see
	// them).
	extMutable map[extWrite]bool
}

type snapTypeFact struct {
	// Display is the short pkg.Type name for diagnostics.
	Display string
	// Calls lists the type keys whose encoders this type's encoder
	// closure invokes: the delegation edges of the snapshot graph.
	Calls []string
	// Fields covers every field of the type's struct, in declaration
	// order.
	Fields []snapField
}

type snapField struct {
	Name    string
	Pos     token.Position
	Mutable bool
	Encoded bool
}

type extWrite struct {
	Type  string
	Field string
}

func newSnapshotcheck() *Analyzer {
	sc := &snapshotcheck{types: make(map[string]snapTypeFact), extMutable: make(map[extWrite]bool)}
	return &Analyzer{
		Name:   "snapshotcheck",
		Doc:    "verifies every mutable field of a registered snapshot component (and its delegates) is written by EncodeSnapshot; excuse derived or build-time fields with //xemem:nosnap -- <reason>",
		Run:    sc.run,
		Finish: sc.finish,
	}
}

// typeKey names a type unambiguously across packages.
func typeKey(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "#" + obj.Name()
}

// displayName is the short pkg.Type form for diagnostics.
func displayName(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	path := obj.Pkg().Path()
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return path + "." + obj.Name()
}

// namedType unwraps pointers/aliases down to a *types.Named, nil
// otherwise.
func namedType(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(t)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// recvNamed resolves the named receiver type of a method, nil for plain
// functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedType(sig.Recv().Type())
}

func (sc *snapshotcheck) run(pass *Pass) {
	info := pass.Pkg.Info
	sums := pass.Module.Summaries()

	// Pass 1: the package's EncodeSnapshot declarations, by receiver
	// type.
	type codecDecl struct {
		named *types.Named
		enc   *ast.FuncDecl
	}
	codecs := make(map[string]*codecDecl)
	var codecOrder []string
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || fd.Name.Name != snapEncoder {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			named := recvNamed(fn)
			if named == nil {
				continue
			}
			key := typeKey(named)
			codecs[key] = &codecDecl{named: named, enc: fd}
			codecOrder = append(codecOrder, key)
		}
	}

	// Pass 2: mutability — every field written anywhere in this package
	// outside New* constructors, including writes through field paths.
	// Writes to other packages' snapshotted types are recorded for their
	// owners.
	localMutable := make(map[string]map[string]bool) // type key → field name
	hasEncoder := func(named *types.Named) bool {
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), snapEncoder)
		_, ok := obj.(*types.Func)
		return ok
	}
	markWrite := func(lhs ast.Expr) {
		ast.Inspect(lhs, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s, ok := info.Selections[sel]
			if !ok || s.Kind() != types.FieldVal {
				return true
			}
			owner := namedType(s.Recv())
			if owner == nil || owner.Obj().Pkg() == nil {
				return true
			}
			key := typeKey(owner)
			field := s.Obj().Name()
			if owner.Obj().Pkg() == pass.Pkg.Types {
				if codecs[key] != nil {
					if localMutable[key] == nil {
						localMutable[key] = make(map[string]bool)
					}
					localMutable[key][field] = true
				}
			} else if strings.HasPrefix(owner.Obj().Pkg().Path(), pass.Module.Path) && hasEncoder(owner) {
				sc.extMutable[extWrite{Type: key, Field: field}] = true
			}
			return true
		})
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if strings.HasPrefix(fd.Name.Name, "New") || strings.HasPrefix(fd.Name.Name, "new") {
				continue // constructors initialize, they don't mutate
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						markWrite(l)
					}
				case *ast.IncDecStmt:
					markWrite(n.X)
				}
				return true
			})
		}
	}

	// Pass 3: registrations — method values (pm.EncodeSnapshot) or
	// closure wrappers handed to AddSnapshotComponent.
	register := func(fn *types.Func) {
		if fn == nil || fn.Name() != snapEncoder {
			return
		}
		if named := recvNamed(fn); named != nil {
			sc.roots = append(sc.roots, typeKey(named))
		}
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || calleeName(call) != "AddSnapshotComponent" {
				return true
			}
			for _, arg := range call.Args {
				switch arg := ast.Unparen(arg).(type) {
				case *ast.SelectorExpr:
					if s, ok := info.Selections[arg]; ok {
						fn, _ := s.Obj().(*types.Func)
						register(fn)
					}
				case *ast.FuncLit:
					ast.Inspect(arg.Body, func(x ast.Node) bool {
						if inner, ok := x.(*ast.CallExpr); ok && calleeName(inner) == snapEncoder {
							register(resolveCallee(info, inner))
						}
						return true
					})
				}
			}
			return true
		})
	}

	// Pass 4: per-type coverage over the encoder call closures.
	for _, key := range codecOrder {
		c := codecs[key]
		st, ok := c.named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		fieldObjs := make(map[types.Object]int, st.NumFields())
		fact := snapTypeFact{Display: displayName(c.named)}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			fieldObjs[f] = i
			fact.Fields = append(fact.Fields, snapField{
				Name:    f.Name(),
				Pos:     pass.Module.Position(f.Pos()),
				Mutable: localMutable[key][f.Name()],
			})
		}
		calls := make(map[string]bool)
		for _, d := range snapReach(sums, pass.Pkg, c.enc, key, calls) {
			ast.Inspect(d.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if s, ok := info.Selections[sel]; ok {
					if i, isField := fieldObjs[s.Obj()]; isField {
						fact.Fields[i].Encoded = true
					}
				}
				return true
			})
		}
		fact.Calls = sortedNames(calls)
		sc.types[key] = fact
	}
}

// snapReach walks the same-package call closure from root, collecting
// the reachable declarations and recording (into calls) the type keys
// of cross-type EncodeSnapshot invocations along the way.
func snapReach(sums *Summaries, pkg *Package, root *ast.FuncDecl, selfKey string, calls map[string]bool) []*ast.FuncDecl {
	seen := map[*ast.FuncDecl]bool{root: true}
	queue := []*ast.FuncDecl{root}
	var out []*ast.FuncDecl
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		out = append(out, d)
		ast.Inspect(d.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := resolveCallee(pkg.Info, call)
			if fn == nil {
				return true
			}
			if fn.Name() == snapEncoder {
				if named := recvNamed(fn); named != nil {
					if key := typeKey(named); key != selfKey {
						calls[key] = true
						return true
					}
				}
			}
			if d2, p2 := sums.Decl(fn); d2 != nil && p2 == pkg && !seen[d2] {
				seen[d2] = true
				queue = append(queue, d2)
			}
			return true
		})
	}
	return out
}

// finish walks the snapshot graph — registered components plus
// everything their encoders delegate to — and reports every mutable
// field its encoders miss.
func (sc *snapshotcheck) finish(f *FinishPass) {
	reached := make(map[string]bool)
	queue := append([]string(nil), sc.roots...)
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		if reached[key] {
			continue
		}
		reached[key] = true
		fact := sc.types[key]
		queue = append(queue, fact.Calls...)
		for _, field := range fact.Fields {
			if field.Name == "_" {
				continue
			}
			mutable := field.Mutable || sc.extMutable[extWrite{Type: key, Field: field.Name}]
			if !mutable || field.Encoded {
				continue // set once at construction, or in the snapshot
			}
			f.Reportf(field.Pos,
				"field %s.%s is mutable simulation state but %s's EncodeSnapshot never writes it: snapshots silently drop it and the image no longer fingerprints it; encode it or annotate the field with //xemem:nosnap -- <reason>",
				fact.Display, field.Name, fact.Display)
		}
	}
}
