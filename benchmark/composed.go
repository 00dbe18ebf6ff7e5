package benchmark

import (
	"errors"
	"time"

	"xemem/internal/experiments"
	"xemem/internal/mem"
	"xemem/internal/sim"
)

// composed is the paper's headline application result (Fig. 9): the
// composed HPC simulation + analytics benchmark, weak-scaled on 4 nodes
// with recurring 1 GB attachments, once multi-enclave and once Linux
// only. One op is one application run. Application-level virtual time
// and page-table host cost both show here.
var composed = &Workload{
	Name: "composed",
	Why:  "Fig. 9 composed simulation+analytics on 4 nodes, multi-enclave and Linux-only, recurring 1 GB attachments: application time and page-table host cost",
	rep:  composedRep,
}

const (
	composedNodes = 4
	// The paper's Fig. 9 completion times lie in this band (seconds).
	composedMinS, composedMaxS = 42, 54
)

// composedProbe observes one Fig9Run world. experiments.Fig9Run builds
// and runs its world in one call, so the host instant of the first
// dispatch is where set-up ends. Each HPC iteration's acquisition of its
// core (queueing plus service) is one latency sample, and the unmap
// charges count the bytes the analytics had mapped. In a traced rep it
// also forwards every event to the layer observer.
type composedProbe struct {
	next  *layerObserver
	built time.Time
	iters []sim.Time
	unmap sim.Time
}

func (p *composedProbe) Span(a *sim.Actor, op string, start, dur sim.Time) {
	if p.next != nil {
		p.next.Span(a, op, start, dur)
	}
}

func (p *composedProbe) AcquireRes(r *sim.Resource, a *sim.Actor, op string, arrival, start, dur sim.Time, depth int) {
	switch op {
	case "sim":
		p.iters = append(p.iters, start-arrival+dur)
	case "xemem-detach":
		p.unmap += dur
	}
	if p.next != nil {
		p.next.AcquireRes(r, a, op, arrival, start, dur, depth)
	}
}

func (p *composedProbe) QueueWait(queue string, a *sim.Actor, enqueued, dequeued sim.Time, depth int) {
	if p.next != nil {
		p.next.QueueWait(queue, a, enqueued, dequeued, depth)
	}
}

func (p *composedProbe) Count(name string, a *sim.Actor, d sim.Time) {
	if p.next != nil {
		p.next.Count(name, a, d)
	}
}

func (p *composedProbe) Dispatch(a *sim.Actor, t sim.Time) {
	if p.built.IsZero() {
		p.built = time.Now() //xemem:wallclock -- set-up host time ends at the first dispatch
	}
	if p.next != nil {
		p.next.Dispatch(a, t)
	}
}

var errNoAnnounce = errors.New("composed: experiments.Observe must route to Runner.Announce")

func composedRep(r *Runner, traced bool) (*Rep, error) {
	rep := &Rep{}
	nodes := composedNodes
	if r.Scale < 1 {
		nodes = 1
	}
	unmapPerPage := sim.DefaultCosts().UnmapPerPage
	defer func() { r.announce = nil }()
	err := rep.measured(func() error {
		for _, multi := range []bool{true, false} {
			probe := &composedProbe{}
			if traced {
				probe.next = newLayerObserver()
			}
			announced := false
			r.announce = func(w *sim.World) {
				announced = true
				w.SetObserver(probe)
			}
			start := time.Now() //xemem:wallclock -- set-up host time
			done, err := experiments.Fig9Run(r.Seed, nodes, multi, true)
			rep.Ops++
			if err != nil {
				rep.Failed++
				continue
			}
			if !announced || probe.built.IsZero() {
				return errNoAnnounce
			}
			rep.Setup = append(rep.Setup, probe.built.Sub(start))
			if s := done.Seconds(); s < composedMinS || s > composedMaxS {
				rep.problem("multi-enclave=%v completes in %.2f s, outside the paper's %d-%d s band", multi, s, composedMinS, composedMaxS)
			}
			rep.Lat = append(rep.Lat, probe.iters...)
			rep.Bytes += float64(probe.unmap/unmapPerPage) * mem.PageSize
			rep.OpTime += done
			if traced {
				t := probe.next.finish(probe.next.FinalTime())
				if rep.Layer == nil {
					rep.Layer = make(map[string]float64)
				}
				for k, v := range t {
					rep.Layer[k] += v
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if runs := rep.Ops - rep.Failed; runs > 0 {
		rep.Makespan = rep.OpTime / sim.Time(runs)
	}
	return rep, nil
}
