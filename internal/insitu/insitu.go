// Package insitu drives the composed in situ workload of §6: an HPC
// simulation component and an analytics component, in (possibly)
// different enclaves, synchronizing through stop/go variables in real
// XEMEM shared memory and exchanging data regions whose segids are passed
// through the same control page.
//
// Both §6.2 workflow axes are implemented:
//
//   - synchronous vs. asynchronous execution: whether the simulation
//     waits for the analytics acknowledgement before resuming;
//   - one-time vs. recurring attachments: whether the simulation exports
//     a fresh region (new segid) at every communication interval.
//
// The control protocol is the paper's ad hoc polling on shared variables
// (§6.1): the only cross-component facility the enclave OS/Rs provide is
// shared memory itself.
//
// Computation is charged through a calibrated per-iteration cost model
// (compute time, OS jitter, background-daemon bursts, and co-location
// contention) while every XEMEM operation — export, lookup, get, attach,
// fault population, detach — runs the real protocol through the real
// enclave substrates, so attachment overheads and their placement on or
// off the critical path are emergent, not scripted.
package insitu

import (
	"encoding/binary"
	"errors"
	"fmt"

	"xemem/internal/core"
	"xemem/internal/pagetable"
	"xemem/internal/proc"
	"xemem/internal/sim"
	"xemem/internal/xproto"
)

// Control page offsets.
const (
	ctrlCmd   = 0  // current communication point (0 = none yet)
	ctrlSegid = 8  // segid of the current data segment
	ctrlAck   = 16 // last point completed by the analytics
	ctrlPages = 1

	exitCmd = ^uint64(0)

	pollInterval = 50 * sim.Microsecond
)

// ComputeModel is the calibrated cost of one simulation iteration in a
// particular enclave environment.
type ComputeModel struct {
	// IterBase is the mean iteration compute time.
	IterBase sim.Time
	// RelJitter is the Gaussian relative jitter applied per iteration
	// (fine-grained OS and hardware noise).
	RelJitter float64
	// BurstRate is the rate (events per second) of long background
	// events — daemons, kswapd, cron — typical of fullweight OSes.
	BurstRate float64
	// BurstMean/BurstJit describe burst durations (uniform jitter).
	BurstMean sim.Time
	BurstJit  float64
	// ContentionFactor inflates an iteration while a co-located (same
	// OS, no enclave isolation) analytics component is actively
	// processing — memory-bandwidth and kernel-structure contention.
	ContentionFactor float64
	// RunJitter is the relative std-dev of a per-run multiplicative
	// factor (thermal/DVFS drift between runs): drawn once per run.
	RunJitter float64
}

// iterTime draws one iteration duration. runFactor is the per-run drift
// drawn from RunJitter at startup.
func (m ComputeModel) iterTime(rng *sim.RNG, runFactor float64, contended bool) sim.Time {
	t := sim.Time(runFactor * rng.Normal(float64(m.IterBase), m.RelJitter*float64(m.IterBase)))
	if contended && m.ContentionFactor > 0 {
		t = sim.Time(float64(t) * (1 + m.ContentionFactor))
	}
	if m.BurstRate > 0 {
		p := m.BurstRate * t.Seconds()
		if rng.Float64() < p {
			t += rng.Jitter(m.BurstMean, m.BurstJit)
		}
	}
	return t
}

// AnalyticsModel is the calibrated cost of processing one data region.
type AnalyticsModel struct {
	// CopyBW is the bandwidth of the shared→private copy (§6.1: "the
	// analytics program first copies the shared memory into a private
	// array").
	CopyBW float64
	// StreamBW is the effective memory bandwidth of the STREAM kernels.
	StreamBW float64
	// StreamTrafficFactor scales region size to total STREAM traffic
	// (the four kernels move ~10 words per element over the run).
	StreamTrafficFactor float64
	// FaultPerPage is the demand-fault cost paid on first touch of a
	// lazily populated attachment (single-OS Linux semantics, §6.4).
	FaultPerPage sim.Time
	// FaultPressureProb/Factor model kernel memory pressure: with this
	// per-run probability, the run's fault costs are scaled by Factor
	// (page reclaim interacting with the attachment churn). This is the
	// §6.4 "marked increase in runtime variance" of the Linux-only
	// recurring configuration; configurations that never demand-fault
	// are untouched.
	FaultPressureProb   float64
	FaultPressureFactor float64
}

// Barrier couples simulation iterations across nodes (allreduce); nil in
// single-node runs.
type Barrier interface {
	Arrive(a *sim.Actor)
}

// Side is one workload component's placement.
type Side struct {
	Mod  *core.Module
	Proc *proc.Process
	Core *sim.Core
}

// Config selects the workflow (§6.2) and problem shape.
type Config struct {
	Sync        bool
	Recurring   bool
	Iters       int
	SignalEvery int
	DataBytes   uint64
	CtrlName    string
	// SameOS marks the Linux-only configuration where both components
	// share the management enclave and contend (Table 3 row 1).
	SameOS bool
	// Barrier, when non-nil, is joined after every iteration (§7).
	Barrier Barrier
}

// Result is the outcome of one composed run.
type Result struct {
	// SimTime is the completion time of the HPC simulation component —
	// what Figs. 8 and 9 plot.
	SimTime sim.Time
	// Points is the number of communication points executed.
	Points int
	// AttachTimes samples the analytics-side attach latency (seconds).
	AttachTimes sim.Sample
	// AnalyticsTime is when the analytics component finished.
	AnalyticsTime sim.Time
}

// Run wires one composed workload into the world: the simulation side on
// its actor, the analytics side on another. It returns a function that,
// after w.Run() completes, yields the Result.
//
// simData must be a region in the simulation process's address space of
// at least DataBytes plus one control page; the control page is carved
// from its start and the data window follows it.
func Run(w *sim.World, cfg Config, simSide Side, simModel ComputeModel, anSide Side, anModel AnalyticsModel, simData *proc.Region) (func() *Result, error) {
	needPages := ctrlPages + (cfg.DataBytes+pageSize-1)/pageSize
	if simData.Pages() < needPages {
		return nil, fmt.Errorf("insitu: region has %d pages, need %d", simData.Pages(), needPages)
	}
	if cfg.Iters <= 0 || cfg.SignalEvery <= 0 {
		return nil, errors.New("insitu: bad iteration config")
	}
	res := &Result{}
	ctrlVA := simData.Base
	dataVA := simData.Base + pagetable.VA(ctrlPages*pageSize)

	// shared Go-side flag for contention modelling: true while the
	// analytics is actively processing on the same OS.
	analyticsActive := false

	// The paper's components poll shared variables (§6.1). Simulating
	// every poll of a multi-second wait is pure scheduler overhead, so
	// waits block and each control-page write wakes the peer; the
	// condition is re-checked on every wake, which is observationally
	// equivalent to polling with sub-interval latency.
	var simActor, anActor *sim.Actor
	wake := func(me, peer *sim.Actor) {
		if peer != nil {
			me.Unblock(peer)
		}
	}
	waitUntil := func(a *sim.Actor, reason string, cond func() bool) {
		for !cond() {
			a.Block(reason)
		}
	}

	w.Spawn(simSide.Mod.Name()+"/sim", func(a *sim.Actor) {
		simActor = a
		rng := a.RNG()
		runFactor := 1.0
		if simModel.RunJitter > 0 {
			runFactor = rng.Normal(1, simModel.RunJitter)
		}
		mod, p := simSide.Mod, simSide.Proc

		if _, err := mod.Make(a, p, ctrlVA, ctrlPages*pageSize, xproto.PermRead|xproto.PermWrite, cfg.CtrlName); err != nil {
			panic("insitu sim: " + err.Error())
		}
		makeData := func() xproto.Segid {
			s, err := mod.Make(a, p, dataVA, cfg.DataBytes, xproto.PermRead|xproto.PermWrite, "")
			if err != nil {
				panic("insitu sim: " + err.Error())
			}
			return s
		}
		writeCtrl := func(off uint64, v uint64) {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], v)
			if _, err := p.AS.Write(ctrlVA+pagetable.VA(off), buf[:]); err != nil {
				panic("insitu sim: " + err.Error())
			}
		}
		readCtrl := func(off uint64) uint64 {
			var buf [8]byte
			if _, err := p.AS.Read(ctrlVA+pagetable.VA(off), buf[:]); err != nil {
				panic("insitu sim: " + err.Error())
			}
			return binary.LittleEndian.Uint64(buf[:])
		}

		if !cfg.Recurring {
			writeCtrl(ctrlSegid, uint64(makeData()))
		}
		point := 0
		for it := 1; it <= cfg.Iters; it++ {
			simSide.Core.Exec(a, simModel.iterTime(rng, runFactor, cfg.SameOS && analyticsActive), "sim")
			if cfg.Barrier != nil {
				cfg.Barrier.Arrive(a)
			}
			if it%cfg.SignalEvery == 0 {
				point++
				if cfg.Recurring {
					writeCtrl(ctrlSegid, uint64(makeData()))
				}
				writeCtrl(ctrlCmd, uint64(point))
				wake(a, anActor)
				if cfg.Sync {
					pt := uint64(point)
					waitUntil(a, "sim:ack", func() bool { return readCtrl(ctrlAck) >= pt })
				}
			}
		}
		res.SimTime = a.Now()
		res.Points = point
		writeCtrl(ctrlCmd, exitCmd)
		wake(a, anActor)
	})

	w.Spawn(anSide.Mod.Name()+"/analytics", func(a *sim.Actor) {
		anActor = a
		mod, p := anSide.Mod, anSide.Proc
		faultCost := anModel.FaultPerPage
		if anModel.FaultPressureProb > 0 && a.RNG().Float64() < anModel.FaultPressureProb {
			faultCost = sim.Time(float64(faultCost) * anModel.FaultPressureFactor)
		}

		// Discover the control segment by name (§3.1 discoverability).
		var ctrlSeg xproto.Segid
		a.PollDeadline(pollInterval, sim.Forever, func() bool {
			s, err := mod.Lookup(a, cfg.CtrlName)
			if err != nil {
				return false
			}
			ctrlSeg = s
			return true
		})
		ctrlApid, err := mod.GetWith(a, p, ctrlSeg, core.GetOpts{Perm: xproto.PermRead | xproto.PermWrite})
		if err != nil {
			panic("insitu analytics: " + err.Error())
		}
		ctrl, err := mod.AttachWith(a, p, ctrlSeg, ctrlApid, core.AttachOpts{Bytes: ctrlPages * pageSize, Perm: xproto.PermRead | xproto.PermWrite})
		if err != nil {
			panic("insitu analytics: " + err.Error())
		}
		readCtrl := func(off uint64) uint64 {
			var buf [8]byte
			if _, err := p.AS.Read(ctrl+pagetable.VA(off), buf[:]); err != nil {
				panic("insitu analytics: " + err.Error())
			}
			return binary.LittleEndian.Uint64(buf[:])
		}
		writeCtrl := func(off uint64, v uint64) {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], v)
			if _, err := p.AS.Write(ctrl+pagetable.VA(off), buf[:]); err != nil {
				panic("insitu analytics: " + err.Error())
			}
		}

		var dataVA pagetable.VA
		var dataSeg xproto.Segid
		var dataApid xproto.Apid
		attached := false

		attach := func(seg xproto.Segid) {
			start := a.Now()
			apid, err := mod.GetWith(a, p, seg, core.GetOpts{Perm: xproto.PermRead | xproto.PermWrite})
			if err != nil {
				panic("insitu analytics: " + err.Error())
			}
			va, err := mod.AttachWith(a, p, seg, apid, core.AttachOpts{Bytes: cfg.DataBytes, Perm: xproto.PermRead | xproto.PermWrite})
			if err != nil {
				panic("insitu analytics: " + err.Error())
			}
			res.AttachTimes.AddTime(a.Now() - start)
			dataVA, dataSeg, dataApid, attached = va, seg, apid, true
		}
		detach := func() {
			if !attached {
				return
			}
			if err := mod.Detach(a, p, dataVA); err != nil {
				panic("insitu analytics: " + err.Error())
			}
			if err := mod.Release(a, p, dataSeg, dataApid); err != nil {
				panic("insitu analytics: " + err.Error())
			}
			attached = false
		}

		next := uint64(1)
		for {
			cmd := uint64(0)
			waitUntil(a, "analytics:signal", func() bool {
				cmd = readCtrl(ctrlCmd)
				return cmd >= next || cmd == exitCmd
			})
			if cmd == exitCmd {
				break
			}
			analyticsActive = true
			seg := xproto.Segid(readCtrl(ctrlSegid))
			if cfg.Recurring && attached && seg != dataSeg {
				detach()
			}
			if !attached {
				attach(seg)
			}
			// First-touch faults for lazily populated (single-OS Linux)
			// attachments, paid as the copy walks the region (§6.4).
			if r := p.AS.FindRegion(dataVA); r != nil && r.Lazy && r.Populated < r.Pages() {
				installed, err := p.AS.PopulateAll(r)
				if err != nil {
					panic("insitu analytics: " + err.Error())
				}
				if faultCost > 0 {
					anSide.Core.Exec(a, sim.Time(installed)*faultCost, "fault")
				}
			}
			// Copy shared → private, then run STREAM over the copy.
			anSide.Core.Exec(a, sim.CopyTime(int(cfg.DataBytes), anModel.CopyBW), "analytics")
			traffic := float64(cfg.DataBytes) * anModel.StreamTrafficFactor
			anSide.Core.Exec(a, sim.CopyTime(int(traffic), anModel.StreamBW), "analytics")
			analyticsActive = false
			writeCtrl(ctrlAck, cmd)
			wake(a, simActor)
			next = cmd + 1
		}
		detach()
		res.AnalyticsTime = a.Now()
	})

	return func() *Result { return res }, nil
}

const pageSize = 4096
