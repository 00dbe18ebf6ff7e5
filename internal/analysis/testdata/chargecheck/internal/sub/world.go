// World-accessor chargecheck cases: a cost read through the world's
// Costs accessor instead of a *Costs parameter, once charged and once
// only compared.
package sub

import "fixture/internal/sim"

// ChargedViaWorld charges Costs.WorldCharged read through the accessor.
func ChargedViaWorld(a *sim.Actor, w *sim.World) {
	a.Charge("world", w.Costs().WorldCharged)
}

// ComparedViaWorld reads Costs.WorldRead through the accessor but never
// sinks it — Costs.WorldRead stays dead.
func ComparedViaWorld(w *sim.World) bool { return w.Costs().WorldRead > 0 }
