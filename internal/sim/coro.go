//go:build go1.23

package sim

import "iter"

// start makes the actor's coroutine: fn runs at the first a.next, and
// each a.yield suspends it there. iter.Pull needs Go 1.23, above the
// module's go line, so this file alone carries the go1.23 constraint.
func (a *Actor) start(fn func(*Actor)) {
	a.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		a.yield = yield
		a.run(fn)
	})
}
