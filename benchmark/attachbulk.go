package benchmark

import (
	"encoding/binary"
	"time"

	"xemem"
	"xemem/internal/core"
	"xemem/internal/mem"
	"xemem/internal/pagetable"
	"xemem/internal/sim"
	"xemem/internal/xpmem"
)

// attachBulk is the data path of the paper's Fig. 5 and Table 2. A Kitten
// co-kernel process exports one 1 GB segment; a native Linux process and
// a Linux process inside a Palacios VM each get it once, then take turns
// attaching a seeded window, checking seeded bytes through the mapping
// and detaching. One client is in flight at a time, so a public call's
// host time covers only that call and the kernels serving it. Page-table,
// Palacios memory-map and Kitten serve work dominate; the protocol and
// the scheduler are nearly idle.
var attachBulk = &Workload{
	Name: "attach-bulk",
	Why:  "1 GB segment attached in seeded 64 KB-1 GB windows by a Linux and a VM client in turn: page-table and memory-map work dominate, the protocol idles",
	rep: func(r *Runner, traced bool) (*Rep, error) {
		rep, _, err := runAttachBulk(r, traced)
		return rep, err
	},
}

const (
	bulkSegBytes = 1 << 30
	// bulkStride spaces the exporter's seeded tokens: one per 2 MB, so
	// every window, placed 2 MB-aligned, starts on one.
	bulkStride = 2 << 20
)

// bulkMix is each client's window multiset per rep at full scale: 500
// windows, 4% of them 1 GB. A window is shaved by a seeded number of
// steps (0 to variants-1) of 1/256 of its class size, so windows of a
// class are not all alike. Large classes keep few variants: the VM's
// memory map replays the rb-tree work of a window size it has seen, and
// a new size costs a full per-page insert.
var bulkMix = []struct {
	bytes    uint64
	n        int
	variants int
}{{64 << 10, 240, 4}, {2 << 20, 160, 16}, {64 << 20, 80, 4}, {1 << 30, 20, 4}}

// Client kinds, in the order the clients alternate.
var bulkClients = []string{"linux", "vm"}

type bulkOp struct {
	client, class int
	off, bytes    uint64
}

// bulkOps draws a rep's window sequence from the seed: each client's
// multiset in seeded order, the clients alternating, each window shaved
// (see bulkMix) and placed at a seeded 2 MB-aligned offset.
func bulkOps(r *Runner) []bulkOp {
	rng := sim.NewRNG(r.Seed ^ 0xa77ac4)
	seqs := make([][]bulkOp, len(bulkClients))
	for c := range seqs {
		for class, m := range bulkMix {
			for i := 0; i < r.scaled(m.n); i++ {
				pages := m.bytes / mem.PageSize
				step := pages / 256
				if step == 0 {
					step = 1
				}
				bytes := m.bytes - uint64(rng.Intn(m.variants))*step*mem.PageSize
				off := uint64(rng.Intn(int((bulkSegBytes-bytes)/bulkStride)+1)) * bulkStride
				seqs[c] = append(seqs[c], bulkOp{client: c, class: class, off: off, bytes: bytes})
			}
		}
		s := seqs[c]
		for i := len(s) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			s[i], s[j] = s[j], s[i]
		}
	}
	var ops []bulkOp
	for i := range seqs[0] {
		for c := range seqs {
			ops = append(ops, seqs[c][i])
		}
	}
	return ops
}

// bulkToken is the seeded 8-byte token the exporter writes at the start
// of every bulkStride block.
func bulkToken(seed uint64, block uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, sim.NewRNG(seed^(block+1)*0x9e3779b97f4a7c15).Uint64())
}

// bulkAttachTime accumulates one client's attach calls of 1 GB-class
// windows: bytes mapped and virtual time inside Attach.
type bulkAttachTime struct {
	bytes float64
	time  sim.Time
}

// runAttachBulk runs one attach-bulk rep. It also returns each client's
// 1 GB attach throughput, which the Table 2 tie-out compares.
func runAttachBulk(r *Runner, traced bool) (*Rep, []bulkAttachTime, error) {
	rep := &Rep{}
	gb := make([]bulkAttachTime, len(bulkClients))
	ops := bulkOps(r)

	start := time.Now() //xemem:wallclock -- set-up host time
	node := xemem.NewNode(xemem.NodeConfig{Seed: r.Seed, MemBytes: 32 << 30})
	w := node.World()
	ck, err := node.BootCoKernel("kitten0", 2<<30)
	if err != nil {
		return nil, nil, err
	}
	vm, err := node.BootVM("vm0", 2<<30, 1)
	if err != nil {
		return nil, nil, err
	}
	exp, heap, err := node.KittenProcess(ck, "exporter", bulkSegBytes)
	if err != nil {
		return nil, nil, err
	}
	linux, _ := node.LinuxProcess("linux-client", 1)
	guest, _ := node.GuestProcess(vm, "vm-client", 0)
	clients := []*xpmem.Session{linux, guest}
	for b := uint64(0); b < bulkSegBytes/bulkStride; b++ {
		if _, err := exp.Write(heap.Base+pagetable.VA(b*bulkStride), bulkToken(r.Seed, b)); err != nil {
			return nil, nil, err
		}
	}

	var segid xpmem.Segid
	apids := make([]xpmem.Apid, len(clients))
	var setupErr error
	node.Spawn("setup", func(a *sim.Actor) {
		segid, setupErr = exp.Make(a, heap.Base, bulkSegBytes, xpmem.PermRead|xpmem.PermWrite, "")
		for i, s := range clients {
			if setupErr != nil {
				return
			}
			h := time.Now() //xemem:wallclock -- host time of a public Get call
			apids[i], setupErr = s.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
			rep.call("get", time.Since(h)) //xemem:wallclock -- host time of a public Get call
		}
	})
	if err := runPhase(w); err != nil {
		return nil, nil, err
	}
	if setupErr != nil {
		return nil, nil, setupErr
	}
	rep.Setup = []time.Duration{time.Since(start)} //xemem:wallclock -- set-up host time

	var obs *layerObserver
	if traced {
		obs = newLayerObserver()
		w.SetObserver(obs)
	}
	mods := []*core.Module{node.LinuxModule(), ck.Module, vm.Module}
	before := readCounters(mods, nil)
	cut := w.Now()
	var end sim.Time
	err = rep.measured(func() error {
		w.SpawnAt("clients", cut, func(a *sim.Actor) {
			for _, op := range ops {
				s := clients[op.client]
				t0 := a.Now()
				h := time.Now() //xemem:wallclock -- host time of a public Attach call
				va, err := s.AttachWith(a, segid, apids[op.client], xpmem.AttachOpts{Offset: op.off, Bytes: op.bytes, Perm: xpmem.PermRead})
				rep.call("attach", time.Since(h)) //xemem:wallclock -- host time of a public Attach call
				rep.Ops++
				if err != nil {
					rep.Failed++
					continue
				}
				attach := a.Now() - t0
				checkBulkWindow(rep, r.Seed, s, va, op)
				t1 := a.Now()
				h = time.Now() //xemem:wallclock -- host time of a public Detach call
				err = s.Detach(a, va)
				rep.call("detach", time.Since(h)) //xemem:wallclock -- host time of a public Detach call
				if err != nil {
					rep.Failed++
					continue
				}
				lat := attach + a.Now() - t1
				rep.Lat = append(rep.Lat, lat)
				rep.Bytes += float64(op.bytes)
				rep.OpTime += lat
				if op.class == len(bulkMix)-1 {
					gb[op.client].bytes += float64(op.bytes)
					gb[op.client].time += attach
				}
			}
			end = a.Now()
			for i, s := range clients {
				if err := s.Release(a, segid, apids[i]); err != nil {
					rep.problem("release by the %s client: %v", bulkClients[i], err)
				}
			}
		})
		return w.Run()
	})
	if err != nil {
		return nil, nil, err
	}
	rep.Makespan = end - cut
	if obs != nil {
		rep.Layer = obs.finish(rep.Makespan)
		addCounters(rep.Layer, before, readCounters(mods, nil))
	}
	return rep, gb, nil
}

// checkBulkWindow verifies zero-copy sharing: the exporter's seeded
// tokens at the start, middle and end of the window read back through
// the attacher's mapping.
func checkBulkWindow(rep *Rep, seed uint64, s *xpmem.Session, va pagetable.VA, op bulkOp) {
	first, last := op.off/bulkStride, (op.off+op.bytes-1)/bulkStride
	buf := make([]byte, 8)
	for _, b := range []uint64{first, (first + last) / 2, last} {
		if _, err := s.Read(va+pagetable.VA(b*bulkStride-op.off), buf); err != nil {
			rep.problem("%s client: read of block %d through the mapping: %v", bulkClients[op.client], b, err)
			return
		}
		if want := bulkToken(seed, b); string(buf) != string(want) {
			rep.problem("%s client: block %d reads %x through the mapping, exporter wrote %x", bulkClients[op.client], b, buf, want)
			return
		}
	}
}

// runPhase runs a world's set-up actors to completion and drains the
// daemon work queued at that instant, leaving the kernels parked so the
// measured phase can start from a quiesced world.
func runPhase(w *sim.World) error {
	if err := w.RunPhase(); err != nil {
		return err
	}
	return w.DrainDaemons()
}
