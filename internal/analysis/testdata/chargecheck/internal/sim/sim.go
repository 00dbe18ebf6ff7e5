// Package sim is a chargecheck fixture: a miniature cost model and
// actor with one live constant, one dead constant, one excused
// constant, two clock-bypassing methods, and the allowed poll tick.
package sim

// Time is simulated nanoseconds.
type Time int64

// Costs is the fixture cost model.
type Costs struct {
	// Used flows into a Charge through a local variable.
	Used Time

	// Dead is charged nowhere: the analyzer must flag it.
	Dead Time

	// Excused is also charged nowhere, but carries a suppression.
	//
	//xemem:allow chargecheck -- fixture: deliberately unwired to prove the directive works
	Excused Time

	// LeaseCheck is charged by the lease-expiry probe in lease.go.
	LeaseCheck Time

	// LeaseExpiry is a TTL the lease path only compares against the
	// clock; reading is not charging, so the analyzer must flag it.
	LeaseExpiry Time

	// Helper reaches a Charge only through the laundering helper in
	// sub/helper.go — the summary edge chargecheck must follow.
	Helper Time

	// Picked reaches a Charge as a helper's return value: the helper
	// returns it and the caller sinks the result.
	Picked Time

	// PickedDead is returned by a helper whose result is never sunk:
	// returning is not charging, so the analyzer must flag it.
	PickedDead Time

	// WorldCharged is read through the World accessor in sub/world.go
	// and charged there.
	WorldCharged Time

	// WorldRead is read through the World accessor but only compared:
	// the analyzer must flag it.
	WorldRead Time
}

// Actor is the fixture actor.
type Actor struct{ now Time }

// Advance is the charge path.
func (a *Actor) Advance(d Time) { a.now += d }

// Charge is the labelled charge path.
func (a *Actor) Charge(op string, d Time) { a.Advance(d) }

// Warp writes the clock directly: the analyzer must flag it.
func (a *Actor) Warp(t Time) { a.now = t }

// pollTick is the scheduler's poll tick, the one clock writer outside
// the charge path and the handoffs: the analyzer must stay silent.
func (a *Actor) pollTick(step Time) { a.now += step }

// next pops like the scheduler but steps the clock itself: the analyzer
// must flag it, as it flags any writer not on the clock path.
func (a *Actor) next(step Time) { a.now += step }

// WarpExcused also writes the clock directly, with a reasoned
// suppression.
func (a *Actor) WarpExcused(t Time) {
	a.now = t //xemem:allow chargecheck -- fixture: suppressed clock write
}
