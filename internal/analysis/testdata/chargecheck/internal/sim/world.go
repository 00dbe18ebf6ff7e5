package sim

// World is the fixture world: it owns the one cost model, and
// components read it through Costs rather than holding their own.
type World struct{ costs *Costs }

// Costs returns the world's cost model.
func (w *World) Costs() *Costs { return w.costs }
