package analysis

import (
	"go/ast"
	"go/types"
)

// The paircheck analyzer guards resource pairing on the XPMEM API
// surface: a GetWith returns an access permit (apid) that Release must
// retire, an AttachWith returns a mapping (va) that Detach must unmap.
// sim.Resource/Core acquisitions are self-releasing by construction
// (Acquire occupies the resource for a fixed virtual duration and
// returns only when it ends), so the leak-prone handles in this
// codebase are the protocol-level ones.
//
// The check is per acquire site but sees through the module's own
// helpers via the interprocedural summaries: a handle passed to a
// callee that releases the matching parameter counts as released, one
// passed to a callee that stores or re-exports it (or to code the
// module cannot see into) counts as transferred and is exempt. What is
// flagged is a handle no path can ever release:
//
//   - the acquire's results are discarded outright (expression
//     statement, or the handle bound to _),
//   - the handle is bound to a local that is never mentioned again —
//     including by a deferred release — or
//   - every use of the handle merely reads it (comparisons, logging,
//     passing to module helpers that neither release nor keep it).
type pairSpec struct {
	recv    map[string]bool // receiver type names the pair applies to
	acquire string
	release string
	noun    string // what the handle represents, for diagnostics
}

var pairs = []pairSpec{
	{
		recv:    pairRecvSet,
		acquire: "GetWith", release: "Release", noun: "access permit (apid)",
	},
	{
		recv:    pairRecvSet,
		acquire: "AttachWith", release: "Detach", noun: "attachment address",
	},
	// The registration-cache forms: AttachCached returns the same
	// mapping address as AttachWith (possibly recovered from the
	// attacher-side cache) and retires through the same Detach, which
	// also invalidates the cache entry. The collective communicator's
	// register wraps a GetWith + AttachCached into one binding that must be
	// unregistered on teardown.
	{
		recv:    pairRecvSet,
		acquire: "AttachCached", release: "Detach", noun: "attachment address",
	},
	{
		recv:    pairRecvSet,
		acquire: "register", release: "unregister", noun: "registration-cache binding",
	},
}

func newPaircheck() *Analyzer {
	return &Analyzer{
		Name:    "paircheck",
		Doc:     "flags XPMEM GetWith/AttachWith/AttachCached handles and coll registration-cache bindings no path can release (directly or via a summarized helper); escaped handles transfer ownership and are exempt",
		Version: 4,
		Run: func(pass *Pass) any {
			for _, f := range pass.Pkg.Files {
				for _, decl := range f.Decls {
					if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
						checkPairs(pass, fd)
					}
				}
			}
			return nil
		},
	}
}

// pairFor matches a call against the pair table, requiring resolved
// receiver type information (no types ⇒ no finding: conservative).
func pairFor(info *types.Info, call *ast.CallExpr) *pairSpec {
	name := calleeName(call)
	for i := range pairs {
		if pairs[i].acquire == name && pairs[i].recv[recvTypeName(info, call)] {
			return &pairs[i]
		}
	}
	return nil
}

func checkPairs(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	sums := pass.Module.Summaries()

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if p := pairFor(info, call); p != nil {
					pass.Reportf(call.Pos(),
						"%s result discarded: the %s can never be paired with %s", p.acquire, p.noun, p.release)
				}
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			p := pairFor(info, call)
			if p == nil || len(n.Lhs) == 0 {
				return true
			}
			handle, ok := n.Lhs[0].(*ast.Ident)
			if !ok {
				return true // stored straight into a field/element: escapes
			}
			if handle.Name == "_" {
				pass.Reportf(call.Pos(),
					"%s handle bound to _: the %s can never be paired with %s", p.acquire, p.noun, p.release)
				return true
			}
			obj := info.Defs[handle]
			if obj == nil {
				// Plain assignment to an existing variable (possibly
				// captured or package-level): treat as escaping.
				return true
			}
			released, escaped, reads := sums.classifyUses(info, fd.Body, obj)
			switch {
			case released || escaped:
				// Paired (possibly inside a helper) or ownership
				// transferred: fine either way.
			case reads == 0:
				pass.Reportf(call.Pos(),
					"%s handle %q is never used again: no path (including defer) pairs it with %s", p.acquire, handle.Name, p.release)
			default:
				pass.Reportf(call.Pos(),
					"%s handle %q is only ever read: no path (including the module's own helpers) pairs it with %s or takes ownership", p.acquire, handle.Name, p.release)
			}
		}
		return true
	})
}
