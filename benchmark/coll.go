package benchmark

import (
	"encoding/binary"
	"fmt"
	"time"

	"xemem"
	"xemem/internal/coll"
	"xemem/internal/core"
	"xemem/internal/pagetable"
	"xemem/internal/sim"
	"xemem/internal/xpmem"
)

// collWorkload runs warm XHC collectives: registration-cache lookups,
// CICO and zero-copy copies, reductions and flag polling, with no
// protocol traffic once warm. It uses xpmem the opposite way from
// attach-bulk — cached, long-lived attachments instead of churn — so a
// cache change that hurts churn shows up on one of the two.
var collWorkload = &Workload{
	Name: "coll",
	Why:  "1000 warm bcast/allreduce on 6 ranks across the 32 KB CICO/zero-copy switchover: registration cache, copies and flag polling, no protocol traffic",
	rep:  collRep,
}

const (
	collSpec = "kitten,kitten,kitten,kitten,vm,vm"
	collBuf  = 256 << 10
	collOps  = 1000 // per rep, at full scale
	// collCheckEvery: every collCheckEvery-th operation runs on fresh
	// seeded payloads and is checked on every rank against a serial
	// reference.
	collCheckEvery = 16
)

// collSizes are the message-size classes with their share of the ops;
// each message is shaved by a seeded amount of up to 1/16 of its class.
var collSizes = []struct {
	bytes uint64
	n     int
}{{4 << 10, 500}, {64 << 10, 350}, {256 << 10, 150}}

type collOp struct {
	bcast bool
	root  int
	bytes uint64
}

// collOpsFor draws a rep's collective sequence from the seed. Per size
// class, half the ops are bcasts, their roots taking every rank in turn,
// and half allreduces; the whole multiset runs in seeded order.
func collOpsFor(r *Runner, ranks int) []collOp {
	rng := sim.NewRNG(r.Seed ^ 0xc011)
	var ops []collOp
	for _, s := range collSizes {
		for i := 0; i < r.scaled(s.n); i++ {
			ops = append(ops, collOp{
				bcast: i%2 == 0,
				root:  i / 2 % ranks,
				bytes: s.bytes - uint64(rng.Intn(int(s.bytes/16))),
			})
		}
	}
	for i := len(ops) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		ops[i], ops[j] = ops[j], ops[i]
	}
	return ops
}

// collPayload is rank's seeded payload for checked operation k.
func collPayload(seed uint64, k, rank int, n uint64) []byte {
	rng := sim.NewRNG(seed ^ uint64(k)<<20 ^ uint64(rank+1)*0x9e3779b97f4a7c15)
	b := make([]byte, (n+7)&^7)
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], rng.Uint64())
	}
	return b[:n]
}

// collReference computes what checked operation k must leave in every
// rank's buffer: the root's payload for a bcast, the byte-wise sum of all
// payloads for an allreduce.
func collReference(seed uint64, k int, op collOp, ranks int) []byte {
	if op.bcast {
		return collPayload(seed, k, op.root, op.bytes)
	}
	sum := make([]byte, op.bytes)
	for r := 0; r < ranks; r++ {
		for i, b := range collPayload(seed, k, r, op.bytes) {
			sum[i] += b
		}
	}
	return sum
}

func collRep(r *Runner, traced bool) (*Rep, error) {
	rep := &Rep{}
	start := time.Now() //xemem:wallclock -- set-up host time
	node := xemem.NewNode(xemem.NodeConfig{Seed: r.Seed, MemBytes: 8 << 30})
	w := node.World()
	topo, err := xemem.ParseTopology(collSpec)
	if err != nil {
		return nil, err
	}
	topo.KittenBytes = 128 << 20
	topo.VMBytes = 128 << 20
	encl, err := topo.Build(node)
	if err != nil {
		return nil, err
	}
	// Scratch for the CICO arenas a rank may lead: one chunk slot per
	// member at each level (64 KB default chunks).
	scratch := uint64(64<<10) * uint64(len(encl)*len(xemem.DefaultLevels))
	members := make([]coll.Member, len(encl))
	sessions := make([]*xpmem.Session, len(encl))
	mods := []*core.Module{node.LinuxModule()}
	for i, e := range encl {
		name := fmt.Sprintf("rank%d", i)
		m := coll.Member{Loc: e.Loc}
		if e.Kitten != nil {
			s, heap, err := node.KittenProcess(e.Kitten, name, collBuf+scratch)
			if err != nil {
				return nil, err
			}
			m.Sess, m.Buf = s, heap.Base
		} else {
			s, p := node.GuestProcess(e.VM, name, 0)
			region, err := xemem.AllocLinux(e.VM.Guest, p, name+"-buf", collBuf+scratch, true)
			if err != nil {
				return nil, err
			}
			m.Sess, m.Buf = s, region.Base
		}
		m.Scratch = m.Buf + pagetable.VA(collBuf)
		if _, err := m.Sess.Write(m.Buf, collPayload(r.Seed, -1, i, collBuf)); err != nil {
			return nil, err
		}
		members[i], sessions[i] = m, m.Sess
		mods = append(mods, e.Module)
	}
	comm, err := coll.New(members, collBuf, coll.Opts{Levels: xemem.DefaultLevels})
	if err != nil {
		return nil, err
	}
	nr := len(members)
	ops := collOpsFor(r, nr)

	// Set-up: every rank exports and attaches (Setup), then one warm op
	// per size class — an allreduce and a bcast from every root — so the
	// registration cache holds every window the measured phase uses.
	errs := make([]error, nr)
	for rank := range members {
		rank := rank
		node.Spawn(fmt.Sprintf("warm%d", rank), func(a *sim.Actor) {
			if errs[rank] = comm.Setup(a, rank); errs[rank] != nil {
				return
			}
			for _, s := range collSizes {
				if errs[rank] = comm.Allreduce(a, rank, s.bytes); errs[rank] != nil {
					return
				}
				for root := 0; root < nr; root++ {
					if errs[rank] = comm.Bcast(a, rank, root, s.bytes); errs[rank] != nil {
						return
					}
				}
			}
		})
	}
	if err := runPhase(w); err != nil {
		return nil, err
	}
	for rank, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d warm-up: %w", rank, err)
		}
	}
	rep.Setup = []time.Duration{time.Since(start)} //xemem:wallclock -- set-up host time

	var obs *layerObserver
	if traced {
		obs = newLayerObserver()
		w.SetObserver(obs)
	}
	before := readCounters(mods, sessions)
	cut := w.Now()
	// enter/exit[k*nr+rank] bracket rank's call of op k; an op's latency
	// is its slowest rank's time through the call.
	enter := make([]sim.Time, len(ops)*nr)
	exit := make([]sim.Time, len(ops)*nr)
	failed := make([]bool, len(ops))
	refs := make(map[int][]byte)
	err = rep.measured(func() error {
		for rank := range members {
			rank := rank
			m := members[rank]
			w.SpawnAt(fmt.Sprintf("rank%d", rank), cut, func(a *sim.Actor) {
				buf := make([]byte, collBuf)
				for k, op := range ops {
					checked := k%collCheckEvery == 0
					if checked {
						if _, err := m.Sess.Write(m.Buf, collPayload(r.Seed, k, rank, op.bytes)); err != nil {
							rep.problem("rank %d: payload write for op %d: %v", rank, k, err)
						}
					}
					enter[k*nr+rank] = a.Now()
					var err error
					if op.bcast {
						err = comm.Bcast(a, rank, op.root, op.bytes)
					} else {
						err = comm.Allreduce(a, rank, op.bytes)
					}
					exit[k*nr+rank] = a.Now()
					if err != nil {
						failed[k] = true
						continue
					}
					if checked {
						ref, ok := refs[k]
						if !ok {
							ref = collReference(r.Seed, k, op, nr)
							refs[k] = ref
						}
						got := buf[:op.bytes]
						if _, err := m.Sess.Read(m.Buf, got); err != nil || string(got) != string(ref) {
							rep.problem("rank %d: op %d (bcast=%v root=%d, %d bytes) does not match the serial reference", rank, k, op.bcast, op.root, op.bytes)
						}
					}
				}
				if err := comm.Close(a, rank); err != nil {
					rep.problem("rank %d: close: %v", rank, err)
				}
			})
		}
		return w.Run()
	})
	if err != nil {
		return nil, err
	}
	var end sim.Time
	for k, op := range ops {
		rep.Ops++
		var lat sim.Time
		for rank := 0; rank < nr; rank++ {
			i := k*nr + rank
			if d := exit[i] - enter[i]; d > lat {
				lat = d
			}
			if exit[i] > end {
				end = exit[i]
			}
		}
		if failed[k] {
			rep.Failed++
			continue
		}
		rep.Lat = append(rep.Lat, lat)
		rep.OpTime += lat
		rep.Bytes += float64(op.bytes)
	}
	rep.Makespan = end - cut
	if obs != nil {
		rep.Layer = obs.finish(rep.Makespan)
		addCounters(rep.Layer, before, readCounters(mods, sessions))
	}
	return rep, nil
}
