package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// The maporder analyzer guards the golden-trace contract: everything the
// tracer exports — Chrome traces, metrics JSON, digests, rendered tables
// — must be byte-identical run to run, and Go's randomized map iteration
// order is the classic way that breaks silently. Inside exporter-feeding
// code, ranging over a map is flagged unless the loop is the standard
// collect-keys-then-sort idiom (a body of nothing but appends, with a
// sort call downstream in the same function).
//
// "Exporter-feeding" is a deliberate, documented heuristic, not a call
// graph: every function in a trace package, plus any function whose name
// marks it as a serializer (Write*/Export*/Render*/Digest*/Summary*/
// Marshal*/Encode*/Golden*/Breakdown*, the unexported encode* helpers,
// or containing JSON/Chrome) or as a world-end audit (Audit*, audit*).
// Audits are in scope because the violation an audit names first must
// be the same on every run, and a check that returns at the first bad
// entry of a raw map walk names a different one run to run.
// Order-insensitive map walks elsewhere (teardown, accounting) are out
// of scope by construction rather than by annotation burden.

var exporterPrefixes = []string{
	"Write", "Export", "Render", "Digest", "Summary",
	"Marshal", "Encode", "Golden", "Breakdown", "encode",
	"Audit", "audit",
}

func newMaporder() *Analyzer {
	a := &Analyzer{
		Name: "maporder",
		Doc:  "flags map iteration in exporter-feeding functions and world-end audits unless keys are collected and sorted; nondeterministic order corrupts golden digests and makes an audit name a different violation run to run",
	}
	a.Run = func(pass *Pass) {
		tracePkg := hasSuffixPath(pass.Pkg.Path, "trace")
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if tracePkg || exporterFunc(fd.Name.Name) {
					checkMapOrder(pass, fd)
				}
			}
		}
	}
	return a
}

func exporterFunc(name string) bool {
	for _, p := range exporterPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return strings.Contains(name, "JSON") || strings.Contains(name, "Chrome")
}

func checkMapOrder(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info

	// Positions of sort calls (sort.* / slices.Sort*) in this function.
	var sortCalls []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok {
				switch pkgNameOf(info, id) {
				case "sort", "slices":
					sortCalls = append(sortCalls, call)
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if collectLoop(rs) && sortedAfter(sortCalls, rs) {
			return true
		}
		pass.Reportf(rs.Pos(),
			"%s ranges over a map on an exporter-feeding path: iteration order is nondeterministic and will corrupt exported artifacts and golden digests; collect the keys and sort them first", funcName(fd))
		return true
	})
}

// collectLoop reports whether the range body does nothing but append
// (the collect-keys half of the sorted-iteration idiom). Appends may be
// guarded by if statements — a filtered collect (an encoder skipping
// tombstones) is still order-insensitive, because the appended
// keys get sorted downstream like any other collect.
func collectLoop(rs *ast.RangeStmt) bool {
	return collectStmts(rs.Body.List)
}

// collectStmts reports whether every statement is an append assignment
// or an if (with optional else) whose branches are themselves collects.
func collectStmts(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			if len(s.Rhs) != 1 {
				return false
			}
			call, ok := s.Rhs[0].(*ast.CallExpr)
			if !ok || calleeName(call) != "append" {
				return false
			}
		case *ast.IfStmt:
			if s.Init != nil || !collectStmts(s.Body.List) {
				return false
			}
			switch els := s.Else.(type) {
			case nil:
			case *ast.BlockStmt:
				if !collectStmts(els.List) {
					return false
				}
			default:
				return false
			}
		default:
			return false
		}
	}
	return true
}

// sortedAfter reports whether any sort call follows the loop.
func sortedAfter(sortCalls []ast.Node, rs *ast.RangeStmt) bool {
	for _, c := range sortCalls {
		if c.Pos() >= rs.End() {
			return true
		}
	}
	return false
}
