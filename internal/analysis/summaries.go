package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
)

// This file is the interprocedural core: a call graph over the
// type-checked module plus one FuncSummary per declared function. The
// analyzers consume summaries instead of reasoning one function at a
// time, so a sim.Costs value laundered through a helper, a handle
// released in a callee, or a closure handed to a goroutine-spawning
// wrapper are all visible at the call site.
//
// Summaries are computed bottom-up: packages in dependency order (a
// callee's package is always summarized before its importers), and
// within a package by fixpoint iteration so intra-package recursion
// converges. Every summary is an over-approximation in the direction
// that silences analyzers — an unknown callee escapes its arguments, a
// possibly-sunk value is sunk — so interprocedural imprecision can
// suppress a finding but never invent one.

// FuncSummary records one declared function's externally visible
// dataflow behavior. Receiver and parameters share one index space:
// for methods index 0 is the receiver and parameters start at 1; plain
// functions start at 0. Variadic call arguments clamp to the last
// index.
type FuncSummary struct {
	// Sunk marks parameters whose value flows into a charge sink
	// (Charge/Advance/Acquire/… — see chargeSinks), directly or through
	// further summarized callees.
	Sunk []bool
	// Released marks parameters some path passes to a Release/Detach
	// (or to a callee that releases the matching parameter).
	Released []bool
	// Escaped marks parameters that leave the function's hands:
	// returned, stored, aliased, sent, or passed to a callee the module
	// cannot see into.
	Escaped []bool
	// GoEscaped marks func-typed parameters that may run on another
	// goroutine: invoked under a go statement, handed to a scheduler
	// spawn, or passed along to a callee whose parameter go-escapes.
	GoEscaped []bool
	// CostsReturns lists the sim.Costs field names whose values flow
	// into the function's results: charging the call result charges
	// these fields.
	CostsReturns []string
}

// Summaries indexes every declared function of a module with its
// summary. Built once per load, read-only afterwards (safe for
// concurrent analyzer passes).
type Summaries struct {
	decls map[*types.Func]*ast.FuncDecl
	pkgOf map[*types.Func]*Package
	fns   map[*types.Func]*FuncSummary

	costsFields map[types.Object]bool
	costsVars   []*types.Var
}

// Summaries returns the module's interprocedural summary index,
// building it on first use. Not safe to call for the first time from
// concurrent goroutines; the driver builds it before fanning out.
func (m *Module) Summaries() *Summaries {
	if m.summaries == nil {
		m.summaries = buildSummaries(m)
	}
	return m.summaries
}

// CostsFields lists the fields of the module's sim.Costs struct (empty
// when the module has none).
func (s *Summaries) CostsFields() []*types.Var { return s.costsVars }

// IsCostsField reports whether obj is a field of sim.Costs.
func (s *Summaries) IsCostsField(obj types.Object) bool { return s.costsFields[obj] }

// Of returns the summary for fn, nil when fn is not a function declared
// in the module (builtins, stdlib, dynamic calls).
func (s *Summaries) Of(fn *types.Func) *FuncSummary {
	if fn == nil {
		return nil
	}
	return s.fns[fn]
}

// Decl returns the declaration and package of a module function, (nil,
// nil) for functions declared elsewhere.
func (s *Summaries) Decl(fn *types.Func) (*ast.FuncDecl, *Package) {
	if fn == nil {
		return nil, nil
	}
	return s.decls[fn], s.pkgOf[fn]
}

// summaryRounds caps the intra-package fixpoint. Mutual recursion
// converges in a handful of rounds; the cap guarantees termination (and
// determinism) even if a pathological cycle oscillates.
const summaryRounds = 10

func buildSummaries(m *Module) *Summaries {
	s := &Summaries{
		decls:       make(map[*types.Func]*ast.FuncDecl),
		pkgOf:       make(map[*types.Func]*Package),
		fns:         make(map[*types.Func]*FuncSummary),
		costsFields: make(map[types.Object]bool),
	}
	s.initCosts(m)

	for _, pkg := range m.order {
		if pkg.Info == nil {
			continue
		}
		var fns []*types.Func
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				s.decls[fn] = fd
				s.pkgOf[fn] = pkg
				fns = append(fns, fn)
			}
		}
		// Intra-package fixpoint: recompute every summary against the
		// current state until nothing changes. Cross-package callees are
		// already final thanks to dependency order.
		for round := 0; round < summaryRounds; round++ {
			changed := false
			for _, fn := range fns {
				next := s.compute(pkg, s.decls[fn])
				if !reflect.DeepEqual(s.fns[fn], next) {
					s.fns[fn] = next
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	return s
}

// initCosts locates sim.Costs (the engine package is
// <module>/internal/sim by convention, for the real module and fixture
// mini-modules alike) and records its fields.
func (s *Summaries) initCosts(m *Module) {
	pkg := m.Lookup(m.Path + "/internal/sim")
	if pkg == nil || pkg.Types == nil {
		return
	}
	obj := pkg.Types.Scope().Lookup("Costs")
	if obj == nil {
		return
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		s.costsVars = append(s.costsVars, st.Field(i))
		s.costsFields[st.Field(i)] = true
	}
}

// compute derives one function's summary from the current state of the
// index.
func (s *Summaries) compute(pkg *Package, fd *ast.FuncDecl) *FuncSummary {
	info := pkg.Info
	params := paramObjs(info, fd)
	sum := &FuncSummary{
		Sunk:      make([]bool, len(params)),
		Released:  make([]bool, len(params)),
		Escaped:   make([]bool, len(params)),
		GoEscaped: make([]bool, len(params)),
	}

	// Sunk: expand charge-sink zones (syntactic sinks plus callee
	// summaries) backward through local assignments and ask which
	// parameters end up tainted.
	_, tainted := taintFlow(info, fd.Body, s.sinkZones(info, fd.Body), nil)
	for i, p := range params {
		if p != nil && tainted[p] {
			sum.Sunk[i] = true
		}
	}

	for i, p := range params {
		if p == nil {
			continue
		}
		released, escaped, _ := s.classifyUses(info, fd.Body, p)
		sum.Released[i] = released
		sum.Escaped[i] = escaped
		if _, ok := p.Type().Underlying().(*types.Signature); ok {
			sum.GoEscaped[i] = s.goEscapes(info, fd.Body, p)
		}
	}

	sum.CostsReturns = s.costsReturns(info, fd)
	return sum
}

// sinkZones collects the source ranges of expressions flowing into a
// charge sink: arguments of syntactic sink-name calls, plus —
// interprocedurally — arguments at positions a callee summary marks
// sunk.
func (s *Summaries) sinkZones(info *types.Info, body ast.Node) []posRange {
	var zones []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if chargeSinks[calleeName(call)] {
			for _, arg := range call.Args {
				zones = append(zones, rangeOf(arg))
			}
			return true
		}
		callee := resolveCallee(info, call)
		if cs := s.Of(callee); cs != nil {
			forEachArg(info, call, callee, func(arg ast.Expr, pi int) {
				if pi < len(cs.Sunk) && cs.Sunk[pi] {
					zones = append(zones, rangeOf(arg))
				}
			})
		}
		return true
	})
	return zones
}

// costsReturns computes which sim.Costs fields flow into fd's results:
// the return expressions (and named results) seed a taint flow, and
// every Costs field read — or Costs-returning callee called — inside
// the flowing zones contributes its name.
func (s *Summaries) costsReturns(info *types.Info, fd *ast.FuncDecl) []string {
	if len(s.costsFields) == 0 || fd.Type.Results == nil || len(fd.Type.Results.List) == 0 {
		return nil
	}
	var zones []posRange
	seed := make(map[types.Object]bool)
	for _, f := range fd.Type.Results.List {
		for _, name := range f.Names {
			if obj := info.Defs[name]; obj != nil {
				seed[obj] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a nested function's returns are not ours
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				zones = append(zones, rangeOf(r))
			}
		}
		return true
	})
	allZones, _ := taintFlow(info, fd.Body, zones, seed)
	names := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[n]; ok && s.costsFields[sel.Obj()] && inAny(allZones, n.Pos()) {
				names[sel.Obj().Name()] = true
			}
		case *ast.CallExpr:
			if inAny(allZones, n.Pos()) {
				if cs := s.Of(resolveCallee(info, n)); cs != nil {
					for _, f := range cs.CostsReturns {
						names[f] = true
					}
				}
			}
		}
		return true
	})
	return sortedNames(names)
}

// releaseNames are the calls that retire a handle, on the XPMEM API
// receivers paircheck guards. unregister is the collective
// communicator's retire call for a registration-cache binding.
var releaseNames = map[string]bool{"Release": true, "Detach": true, "unregister": true}

// pairRecvSet are the receiver type names the pair table applies to.
// Communicator is internal/coll's: its register/unregister pair wraps a
// Get + AttachCached whose teardown the binding owner must drive.
var pairRecvSet = map[string]bool{"Session": true, "Module": true, "Communicator": true}

// classifyUses walks every appearance of obj in body and classifies it.
// released: some path passes obj to a Release/Detach or to a callee
// releasing the matching parameter. escaped: obj is returned, stored,
// aliased, sent, address-taken, or passed to a callee the module cannot
// see into (assumed ownership transfer). reads counts the uses that
// read the value (writes to obj are not reads).
func (s *Summaries) classifyUses(info *types.Info, body ast.Node, obj types.Object) (released, escaped bool, reads int) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			r, e, isRead := s.classifyUse(info, stack)
			released = released || r
			escaped = escaped || e
			if isRead {
				reads++
			}
		}
		return true
	})
	return released, escaped, reads
}

// classifyUse judges one use by walking from the identifier (stack top)
// up through its syntactic context.
func (s *Summaries) classifyUse(info *types.Info, stack []ast.Node) (released, escaped, isRead bool) {
	cur := stack[len(stack)-1]
	for i := len(stack) - 2; i >= 0; i-- {
		parent := stack[i]
		switch p := parent.(type) {
		case *ast.ParenExpr, *ast.BinaryExpr, *ast.StarExpr, *ast.SelectorExpr:
			// Transparent: the value (or a view of it) keeps flowing.
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				return false, true, true // address taken: aliases escape
			}
		case *ast.IndexExpr:
			if p.Index == cur {
				return false, false, true // used as a key: a read
			}
		case *ast.CallExpr:
			if p.Fun == cur {
				return false, false, true // invoking a func-typed handle
			}
			if tv, ok := info.Types[p.Fun]; ok && tv.IsType() {
				break // conversion: transparent
			}
			return s.classifyCallArg(info, p, cur)
		case *ast.ReturnStmt:
			return false, true, true
		case *ast.SendStmt:
			if p.Value == cur {
				return false, true, true
			}
			return false, false, true
		case *ast.CompositeLit, *ast.KeyValueExpr:
			return false, true, true
		case *ast.AssignStmt:
			for ri, r := range p.Rhs {
				if r != cur {
					continue
				}
				if len(p.Lhs) == len(p.Rhs) {
					if id, ok := ast.Unparen(p.Lhs[ri]).(*ast.Ident); ok && id.Name == "_" {
						return false, false, true
					}
				}
				return false, true, true // aliased into another name or stored
			}
			return false, false, false // on the left-hand side: a write
		case *ast.ValueSpec:
			for _, v := range p.Values {
				if v == cur {
					return false, true, true
				}
			}
			return false, false, false
		case *ast.IncDecStmt:
			return false, false, false
		case ast.Stmt:
			return false, false, true // consumed by control flow or discarded
		case ast.Decl:
			return false, false, true
		}
		cur = parent
	}
	return false, false, true
}

// classifyCallArg judges a handle passed as a call argument (or method
// receiver), consulting the callee's summary when the module declares
// it and assuming ownership transfer when it does not.
func (s *Summaries) classifyCallArg(info *types.Info, call *ast.CallExpr, arg ast.Node) (released, escaped, isRead bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.X == arg {
		// Method call on the handle itself: the receiver occupies
		// summary index 0.
		if cs := s.Of(resolveCallee(info, call)); cs != nil && len(cs.Released) > 0 {
			return cs.Released[0], cs.Escaped[0], true
		}
		return false, false, true
	}
	idx := -1
	for i, a := range call.Args {
		if a == arg {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false, false, true
	}
	if releaseNames[calleeName(call)] && pairRecvSet[recvTypeName(info, call)] {
		return true, false, true
	}
	callee := resolveCallee(info, call)
	cs := s.Of(callee)
	if cs == nil {
		// Builtin, stdlib, or dynamic callee: assume the handle's
		// ownership transfers.
		return false, true, true
	}
	pi := idx
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if _, isMethod := info.Selections[sel]; isMethod {
				pi = idx + 1
			}
		}
	}
	if pi >= len(cs.Released) {
		pi = len(cs.Released) - 1 // variadic tail
	}
	if pi < 0 {
		return false, false, true
	}
	return cs.Released[pi], cs.Escaped[pi], true
}

// spawnNames are the scheduler entry points that run a function value
// on another goroutine: handing a closure to one runs it outside the
// caller's dispatch.
var spawnNames = map[string]bool{"Spawn": true, "SpawnAt": true, "Go": true}

// goEscapes reports whether the func-typed obj may be invoked on
// another goroutine.
func (s *Summaries) goEscapes(info *types.Info, body ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			if usesObj(info, n.Call, obj) {
				found = true
			}
		case *ast.CallExpr:
			if spawnNames[calleeName(n)] {
				for _, arg := range n.Args {
					if usesObj(info, arg, obj) {
						found = true
					}
				}
				return true
			}
			callee := resolveCallee(info, n)
			if cs := s.Of(callee); cs != nil {
				forEachArg(info, n, callee, func(arg ast.Expr, pi int) {
					if pi < len(cs.GoEscaped) && cs.GoEscaped[pi] {
						if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.Uses[id] == obj {
							found = true
						}
					}
				})
			}
		}
		return true
	})
	return found
}

// paramObjs lists a declaration's receiver (for methods) and parameter
// objects in the unified index space. Unnamed and blank slots are nil.
func paramObjs(info *types.Info, fd *ast.FuncDecl) []types.Object {
	var objs []types.Object
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if len(f.Names) == 0 {
				objs = append(objs, nil)
				continue
			}
			for _, name := range f.Names {
				objs = append(objs, info.Defs[name])
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
	return objs
}

// forEachArg maps each call argument (and, for method calls, the
// receiver expression) to the callee's unified parameter index.
func forEachArg(info *types.Info, call *ast.CallExpr, callee *types.Func, visit func(arg ast.Expr, paramIdx int)) {
	if callee == nil {
		return
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	base := 0
	if sig.Recv() != nil {
		base = 1
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if _, isMethod := info.Selections[sel]; isMethod {
				visit(sel.X, 0)
			} else {
				// Method expression T.M(recv, args...): the first
				// argument is the receiver.
				base = 0
			}
		}
	}
	n := base + sig.Params().Len()
	for i, arg := range call.Args {
		idx := base + i
		if idx >= n {
			idx = n - 1 // variadic tail
		}
		if idx >= 0 {
			visit(arg, idx)
		}
	}
}

// resolveCallee resolves the *types.Func a call dispatches to, nil for
// builtins, conversions, and dynamic calls through function values.
// Promoted methods resolve to the embedded type's method — exactly the
// declaration whose summary applies.
func resolveCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// usesObj reports whether any identifier under n refers to obj.
func usesObj(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// assignRec is one assignment or declaration feeding the taint flow.
type assignRec struct {
	lhs map[types.Object]bool
	rhs []ast.Expr
}

// collectAssigns gathers every assignment in body, plus the ranges of
// right-hand sides feeding stores (selector/index left-hand sides,
// which escape the function's locals).
func collectAssigns(info *types.Info, body ast.Node) (assigns []assignRec, storeRHS []posRange) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			a := assignRec{lhs: make(map[types.Object]bool)}
			storing := false
			for _, l := range n.Lhs {
				switch l := l.(type) {
				case *ast.Ident:
					if obj := info.Defs[l]; obj != nil {
						a.lhs[obj] = true
					} else if obj := info.Uses[l]; obj != nil {
						a.lhs[obj] = true
					}
				default:
					storing = true
				}
			}
			a.rhs = n.Rhs
			assigns = append(assigns, a)
			if storing {
				for _, r := range n.Rhs {
					storeRHS = append(storeRHS, rangeOf(r))
				}
			}
		case *ast.ValueSpec:
			a := assignRec{lhs: make(map[types.Object]bool)}
			for _, name := range n.Names {
				if obj := info.Defs[name]; obj != nil {
					a.lhs[obj] = true
				}
			}
			a.rhs = n.Values
			assigns = append(assigns, a)
		}
		return true
	})
	return assigns, storeRHS
}

// taintFlow propagates seed zones (and seed objects) backward through
// local assignments: every object read inside a zone is tainted, the
// right-hand side of any assignment feeding a tainted local becomes a
// zone too, until fixpoint. Returns the expanded zones and the tainted
// object set.
func taintFlow(info *types.Info, body ast.Node, seedZones []posRange, seedObjs map[types.Object]bool) ([]posRange, map[types.Object]bool) {
	assigns, _ := collectAssigns(info, body)
	zones := append([]posRange(nil), seedZones...)
	tainted := make(map[types.Object]bool)
	for obj := range seedObjs {
		tainted[obj] = true
	}
	for _, z := range zones {
		collectObjectsIn(info, body, z, tainted)
	}
	for changed := true; changed; {
		changed = false
		for _, a := range assigns {
			hit := false
			for obj := range a.lhs {
				if tainted[obj] {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			for _, r := range a.rhs {
				before := len(tainted)
				identObjects(info, r, tainted)
				if len(tainted) != before {
					changed = true
				}
			}
		}
	}
	for _, a := range assigns {
		for obj := range a.lhs {
			if tainted[obj] {
				for _, r := range a.rhs {
					zones = append(zones, rangeOf(r))
				}
				break
			}
		}
	}
	return zones, tainted
}

// sortedNames returns a set's keys in sorted order (nil for empty).
func sortedNames(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
