// Package fault is the deterministic, seed-driven fault-injection
// subsystem: enclave crashes mid-protocol, dropped and delayed
// cross-enclave messages, and name-server unavailability windows,
// threaded through the simulation engine via the sim.Injector hooks.
//
// Everything is a pure function of the plan and the world's seeded RNG
// streams: the same seed and plan produce a bit-identical fault schedule
// — and therefore bit-identical traces — run after run, which is what
// makes failure behaviour a golden regression artifact rather than
// flaky noise. With no Injector installed the engine's hook sites
// short-circuit, so zero-fault runs are bit-identical to builds that
// predate this package.
package fault

import (
	"sort"

	"xemem/internal/core"
	"xemem/internal/sim"
)

// Window is a half-open virtual-time interval [Start, End) during which
// a service is unavailable.
type Window struct {
	Start sim.Time
	End   sim.Time
}

// contains reports whether t lies inside the window.
func (w Window) contains(t sim.Time) bool { return t >= w.Start && t < w.End }

// Crash schedules the death of one enclave, by module name, at a
// virtual time. The victim dies mid-protocol: in-flight requests are
// abandoned exactly where the clock caught them.
type Crash struct {
	At     sim.Time
	Module string // core.Module name, e.g. "node0/kitten0"
}

// Plan is one deterministic fault schedule. The zero value injects
// nothing.
type Plan struct {
	// DropProb is the per-delivery probability a cross-enclave message is
	// silently discarded (a lost IPI).
	DropProb float64
	// DelayProb is the per-delivery probability a message is stalled;
	// the stall is uniform in (0, DelayMax].
	DelayProb float64
	// DelayMax bounds injected delivery stalls (default 10 µs when
	// DelayProb > 0).
	DelayMax sim.Time
	// NSOutages are windows during which the name server drops every
	// request on the floor and locally hosted NS operations back off.
	NSOutages []Window
	// Crashes are scheduled enclave deaths.
	Crashes []Crash
}

// Stats counts what the injector actually did.
type Stats struct {
	Deliveries int      // delivery-fault consultations
	Drops      int      // messages discarded
	Delays     int      // messages stalled
	DelayTime  sim.Time // total injected stall time
	Crashes    int      // enclaves killed
}

// Injector implements sim.Injector for one world. Create it with New
// (which installs it on the world), Register the modules that should
// learn about crashes, and Arm it to start the crash schedule.
type Injector struct {
	w     *sim.World
	plan  Plan
	rng   *sim.RNG
	stats Stats
	mods  []*core.Module
}

// New creates an injector for plan and installs it on w. The injector
// draws from its own deterministic RNG stream, so its decisions depend
// only on the world's seed, the plan, and the (deterministic) order of
// deliveries — never on host state.
func New(w *sim.World, plan Plan) *Injector {
	if plan.DelayProb > 0 && plan.DelayMax <= 0 {
		plan.DelayMax = 10 * sim.Microsecond
	}
	inj := &Injector{w: w, plan: plan, rng: w.NewRNG()}
	w.SetInjector(inj)
	return inj
}

// Register tells the injector which modules exist, so a crash can fan
// out: the victim is killed and every survivor runs its OnEnclaveDown
// invalidation (routes forgotten, segids marked dead at the name server,
// pending requests failed, attachments poisoned).
func (i *Injector) Register(mods ...*core.Module) {
	i.mods = append(i.mods, mods...)
}

// Arm spawns the crash-schedule daemon: one "fault/injector" actor that
// kills each victim and fans OnEnclaveDown out to every survivor at the
// crash instant. Call after the victims are Registered and before the
// run; with no planned crashes it is a no-op.
func (i *Injector) Arm() {
	if len(i.plan.Crashes) == 0 {
		return
	}
	crashes := append([]Crash(nil), i.plan.Crashes...)
	sort.SliceStable(crashes, func(a, b int) bool {
		if crashes[a].At != crashes[b].At {
			return crashes[a].At < crashes[b].At
		}
		return crashes[a].Module < crashes[b].Module
	})
	i.w.Spawn("fault/injector", func(a *sim.Actor) {
		a.SetDaemon()
		for _, c := range crashes {
			a.AdvanceTo(c.At)
			i.crash(a, c.Module)
		}
	})
}

// crash kills the named module and fans the death out to every other
// registered module. Unknown or already-down victims are ignored.
func (i *Injector) crash(a *sim.Actor, name string) {
	var victim *core.Module
	for _, m := range i.mods {
		if m.Name() == name {
			victim = m
			break
		}
	}
	if victim == nil || victim.Stopped() {
		return
	}
	dead := victim.EnclaveID()
	victim.Crash(a)
	i.stats.Crashes++
	if obs := a.Observer(); obs != nil {
		obs.Count("fault-crash:"+name, a, 0)
	}
	for _, m := range i.mods {
		if m != victim {
			m.OnEnclaveDown(a, dead)
		}
	}
}

// DeliveryFault implements sim.Injector: one RNG draw per configured
// hazard per delivery, in a fixed order, so the schedule of faults is a
// deterministic function of the delivery sequence.
func (i *Injector) DeliveryFault(queue string, a *sim.Actor, bytes int) (drop bool, delay sim.Time) {
	i.stats.Deliveries++
	if i.plan.DropProb > 0 && i.rng.Float64() < i.plan.DropProb {
		i.stats.Drops++
		return true, 0
	}
	if i.plan.DelayProb > 0 && i.rng.Float64() < i.plan.DelayProb {
		delay = sim.Time(i.rng.Float64()*float64(i.plan.DelayMax)) + 1
		i.stats.Delays++
		i.stats.DelayTime += delay
	}
	return false, delay
}

// ServiceDown implements sim.Injector.
func (i *Injector) ServiceDown(service string, t sim.Time) bool {
	if service != "nameserver" {
		return false
	}
	for _, w := range i.plan.NSOutages {
		if w.contains(t) {
			return true
		}
	}
	return false
}

// Stats reports what the injector has done so far.
func (i *Injector) Stats() Stats { return i.stats }

var _ sim.Injector = (*Injector)(nil)
