package analysis

import (
	"fmt"
	"go/ast"
	"strings"
)

// The determinism analyzer guards the simulator's foundational property:
// for a fixed seed, every run produces bit-identical virtual-time
// results. Host-side nondeterminism — wall-clock reads, the global
// math/rand stream, process identity, host goroutines — must never leak
// into simulation logic. One goroutine builds every world (actors are
// engine coroutines, not goroutines), so a go statement outside tests is
// flagged outright. The only legitimate host reads are real-time
// benchmark timers, which must be annotated //xemem:wallclock --
// <reason>; that directive excuses host-clock reads and nothing else, and
// the generic //xemem:allow form is deliberately rejected for this
// analyzer.

// wallclockFuncs are the time-package functions that read or depend on
// the host clock.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// processIdentityFuncs are os-package reads of ambient process identity
// that differ run to run or host to host.
var processIdentityFuncs = map[string]bool{
	"Getpid": true, "Getppid": true, "Hostname": true, "Environ": true,
}

func newDeterminism() *Analyzer {
	a := &Analyzer{
		Name: "determinism",
		Doc:  "flags wall-clock, math/rand, process-identity, and go-statement nondeterminism; excuse real benchmark timers with //xemem:wallclock -- <reason>",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			runDeterminismFile(pass, f)
		}
	}
	return a
}

func runDeterminismFile(pass *Pass, f *ast.File) {
	for _, spec := range f.Imports {
		switch path := strings.Trim(spec.Path.Value, `"`); path {
		case "math/rand", "math/rand/v2":
			pass.Reportf(spec.Pos(),
				"import of %s: its generators are seeded outside the World's control; use the deterministic per-actor stream (sim.RNG)", path)
		}
	}

	ast.Inspect(f, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			pass.Reportf(g.Pos(),
				"go statement: one goroutine builds every world, so host scheduling never orders simulated work; run it inline or as an actor (Spawn)")
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		path := pkgNameOf(pass.Pkg.Info, id)
		switch {
		case path == "time" && wallclockFuncs[sel.Sel.Name]:
			pass.report(Diagnostic{
				Pos:       pass.Module.Position(call.Pos()),
				Analyzer:  pass.Analyzer.Name,
				Message:   fmt.Sprintf("time.%s reads the host clock: simulated time must come from Actor.Now/Charge; real benchmark timers need //xemem:wallclock -- <reason>", sel.Sel.Name),
				hostClock: true,
			})
		case path == "os" && processIdentityFuncs[sel.Sel.Name]:
			pass.Reportf(call.Pos(),
				"os.%s is host/process-dependent and breaks run-to-run determinism", sel.Sel.Name)
		}
		return true
	})
}
