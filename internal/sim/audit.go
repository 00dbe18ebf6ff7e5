package sim

// World-end audits (DESIGN.md §12). Components register invariant
// checks as they are built; Audit runs them once the world has ended.
// The balance invariants the protocol keeps — pins against attachments,
// attach counts against mappings, the name server against its owners —
// hold only when no message is mid-flight, so an audit is never taken
// at a mid-run instant.

import (
	"errors"
	"fmt"
)

// audit is one registered world-end check.
type audit struct {
	name  string
	check func() error
}

// AddAudit registers a world-end check under a component name. check
// returns nil when the component's invariants hold, else an error that
// names the invariant broken; it must only read state, and must report
// the same first violation on every run (iterate maps in sorted order).
func (w *World) AddAudit(name string, check func() error) {
	w.audits = append(w.audits, audit{name: name, check: check})
}

// Audit runs every registered check in registration order and joins
// their failures, each prefixed "audit <component>:". Call it after Run
// returns; it refuses a running world.
func (w *World) Audit() error {
	if w.running {
		return errors.New("sim: audit of a running world")
	}
	var errs []error
	for _, a := range w.audits {
		if err := a.check(); err != nil {
			errs = append(errs, fmt.Errorf("audit %s: %w", a.name, err))
		}
	}
	return errors.Join(errs...)
}

// Shared returns the world's value under key, creating it with mk on
// first use. Components built separately meet at it instead of at a
// package variable: every core module of a world joins one registry
// this way, which registers the world's cross-module audit once.
func (w *World) Shared(key any, mk func() any) any {
	if v, ok := w.shared[key]; ok {
		return v
	}
	if w.shared == nil {
		w.shared = make(map[any]any)
	}
	v := mk()
	w.shared[key] = v
	return v
}
