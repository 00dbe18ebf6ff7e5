package benchmark

import (
	"encoding/binary"
	"fmt"
	"time"

	"xemem"
	"xemem/internal/core"
	"xemem/internal/mem"
	"xemem/internal/pagetable"
	"xemem/internal/proc"
	"xemem/internal/sim"
	"xemem/internal/xpmem"
)

// ctlStorm is the control plane of §5.3 and Fig. 6: eight clients, one per
// enclave, cycle through lookup, get, attach, detach and release of small
// segments exported by the other enclaves. Messages, routing, the name
// server and the management enclave's core-0 IPI funnel dominate; the
// page-table work of a 4-64 KB window is negligible.
var ctlStorm = &Workload{
	Name: "ctl-storm",
	Why:  "8 concurrent clients cycle get/attach/detach/release on 4-64 KB segments across 2-hop routes: messages, name server and the core-0 funnel dominate",
	rep:  ctlStormRep,
}

const (
	// ctlSpec puts a VM under a co-kernel, so some routes take two hops.
	ctlSpec        = "kitten,kitten,kitten,kitten,kitten,kitten(vm),vm"
	ctlSegsPerEncl = 4
	ctlSegMax      = 64 << 10
	ctlCycles      = 1500 // per client per rep, at full scale
)

// ctlSeg is one exported segment and the exporter view used to check
// writes made through attachments.
type ctlSeg struct {
	name  string
	id    xpmem.Segid
	exp   *xpmem.Session
	va    pagetable.VA
	bytes uint64
}

// ctlEnclave is one enclave's exporter and client processes.
type ctlEnclave struct {
	mod    *core.Module
	exp    *xpmem.Session
	region pagetable.VA
	client *xpmem.Session
	segs   []*ctlSeg
}

type ctlCycle struct {
	seg    *ctlSeg
	lookup bool
	off    uint64 // where the client writes its token
}

func ctlStormRep(r *Runner, traced bool) (*Rep, error) {
	rep := &Rep{}
	start := time.Now() //xemem:wallclock -- set-up host time
	node := xemem.NewNode(xemem.NodeConfig{Seed: r.Seed, MemBytes: 8 << 30})
	w := node.World()
	topo, err := xemem.ParseTopology(ctlSpec)
	if err != nil {
		return nil, err
	}
	topo.KittenBytes = 256 << 20
	topo.VMBytes = 64 << 20
	encl, err := topo.Build(node)
	if err != nil {
		return nil, err
	}
	regionBytes := uint64(ctlSegsPerEncl * ctlSegMax)
	// The management enclave hosts the name server and routes; every
	// other enclave runs an exporter and a client.
	var all []*ctlEnclave
	for _, e := range encl {
		ce := &ctlEnclave{mod: e.Module}
		if e.Kitten != nil {
			var heap *proc.Region
			if ce.exp, heap, err = node.KittenProcess(e.Kitten, "exporter", regionBytes); err != nil {
				return nil, err
			}
			ce.region = heap.Base
			if ce.client, _, err = node.KittenProcess(e.Kitten, "client", mem.PageSize); err != nil {
				return nil, err
			}
		} else {
			var p *proc.Process
			ce.exp, p = node.GuestProcess(e.VM, "exporter", 0)
			region, err := xemem.AllocLinux(e.VM.Guest, p, "segs", regionBytes, true)
			if err != nil {
				return nil, err
			}
			ce.region = region.Base
			ce.client, _ = node.GuestProcess(e.VM, "client", 0)
		}
		all = append(all, ce)
	}

	// Segment sizes are a fixed multiset — every page count from 1 to
	// 16, twice — dealt to the segments in seeded order.
	rng := sim.NewRNG(r.Seed ^ 0xc7157)
	sizes := make([]uint64, len(all)*ctlSegsPerEncl)
	for i := range sizes {
		sizes[i] = uint64(1+i%(ctlSegMax/mem.PageSize)) * mem.PageSize
	}
	for i := len(sizes) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		sizes[i], sizes[j] = sizes[j], sizes[i]
	}
	for i, ce := range all {
		for j := 0; j < ctlSegsPerEncl; j++ {
			ce.segs = append(ce.segs, &ctlSeg{
				name:  fmt.Sprintf("ctl/%d/%d", i, j),
				exp:   ce.exp,
				va:    ce.region + pagetable.VA(j*ctlSegMax),
				bytes: sizes[i*ctlSegsPerEncl+j],
			})
		}
	}
	// Each client's cycles target seeded segments of the other enclaves;
	// a quarter of them resolve the segment by name first.
	cycles := make([][]ctlCycle, len(all))
	for i := range all {
		for k := 0; k < r.scaled(ctlCycles); k++ {
			owner := rng.Intn(len(all) - 1)
			if owner >= i {
				owner++
			}
			seg := all[owner].segs[rng.Intn(ctlSegsPerEncl)]
			cycles[i] = append(cycles[i], ctlCycle{
				seg:    seg,
				lookup: rng.Intn(4) == 0,
				off:    uint64(rng.Intn(int(seg.bytes/8))) * 8,
			})
		}
	}

	errs := make([]error, len(all))
	for i, ce := range all {
		i, ce := i, ce
		node.Spawn(fmt.Sprintf("export%d", i), func(a *sim.Actor) {
			for _, seg := range ce.segs {
				if seg.id, errs[i] = ce.exp.Make(a, seg.va, seg.bytes, xpmem.PermRead|xpmem.PermWrite, seg.name); errs[i] != nil {
					return
				}
			}
		})
	}
	if err := runPhase(w); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("enclave %d export: %w", i, err)
		}
	}
	rep.Setup = []time.Duration{time.Since(start)} //xemem:wallclock -- set-up host time

	var obs *layerObserver
	if traced {
		obs = newLayerObserver()
		w.SetObserver(obs)
	}
	mods := []*core.Module{node.LinuxModule()}
	for _, ce := range all {
		mods = append(mods, ce.mod)
	}
	before := readCounters(mods, nil)
	cut := w.Now()
	lat := make([][]sim.Time, len(all))
	var end sim.Time
	err = rep.measured(func() error {
		for i, ce := range all {
			i, ce := i, ce
			w.SpawnAt(fmt.Sprintf("client%d", i), cut, func(a *sim.Actor) {
				for k, c := range cycles[i] {
					t0 := a.Now()
					if ctlCycleRun(a, rep, ce.client, c, uint64(i)<<32|uint64(k)) {
						lat[i] = append(lat[i], a.Now()-t0)
						rep.Bytes += float64(c.seg.bytes)
					}
				}
				if a.Now() > end {
					end = a.Now()
				}
			})
		}
		return w.Run()
	})
	if err != nil {
		return nil, err
	}
	for _, l := range lat {
		for _, d := range l {
			rep.Lat = append(rep.Lat, d)
			rep.OpTime += d
		}
	}
	rep.Makespan = end - cut
	if obs != nil {
		rep.Layer = obs.finish(rep.Makespan)
		addCounters(rep.Layer, before, readCounters(mods, nil))
	}
	return rep, nil
}

// ctlCycleRun runs one client cycle and reports whether every call
// succeeded. The client writes a token unique to the cycle through its
// mapping and the exporter must read it in its own memory.
func ctlCycleRun(a *sim.Actor, rep *Rep, s *xpmem.Session, c ctlCycle, token uint64) bool {
	rep.Ops++
	fail := func() bool { rep.Failed++; return false }
	segid := c.seg.id
	if c.lookup {
		id, err := s.Lookup(a, c.seg.name)
		if err != nil {
			return fail()
		}
		if id != segid {
			rep.problem("lookup of %s returned segid %d, exported as %d", c.seg.name, id, segid)
		}
	}
	rw := xpmem.PermRead | xpmem.PermWrite
	apid, err := s.GetWith(a, segid, xpmem.GetOpts{Perm: rw})
	if err != nil {
		return fail()
	}
	va, err := s.AttachWith(a, segid, apid, xpmem.AttachOpts{Perm: rw})
	if err != nil {
		if err := s.Release(a, segid, apid); err != nil {
			rep.problem("release after a failed attach of %s: %v", c.seg.name, err)
		}
		return fail()
	}
	want := binary.LittleEndian.AppendUint64(nil, token)
	got := make([]byte, len(want))
	if _, err := s.Write(va+pagetable.VA(c.off), want); err != nil {
		rep.problem("write through the mapping of %s: %v", c.seg.name, err)
	} else if _, err := c.seg.exp.Read(c.seg.va+pagetable.VA(c.off), got); err != nil {
		rep.problem("exporter read of %s: %v", c.seg.name, err)
	} else if string(got) != string(want) {
		rep.problem("%s: exporter reads %x where the client wrote %x", c.seg.name, got, want)
	}
	detachErr := s.Detach(a, va)
	if err := s.Release(a, segid, apid); err != nil || detachErr != nil {
		return fail()
	}
	return true
}
