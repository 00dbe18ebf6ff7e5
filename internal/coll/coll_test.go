package coll_test

import (
	"fmt"
	"testing"

	"xemem"
	"xemem/internal/coll"
	"xemem/internal/mem"
	"xemem/internal/pagetable"
	"xemem/internal/sim"
)

// pat is the deterministic per-rank buffer fill the reference results
// are computed from.
func pat(rank, i int) byte { return byte((rank+3)*53 + i*17) }

// chunkBytes keeps tests multi-chunk at small message sizes (64 KB
// messages pipeline as four chunks).
const chunkBytes = 16 << 10

// rig is one booted world with a communicator over every enclave of a
// topology spec: one process per enclave, application buffer and CICO
// scratch carved from its heap.
type rig struct {
	node    *xemem.Node
	members []coll.Member
	comm    *coll.Communicator
	bufCap  uint64
}

func buildRig(t *testing.T, seed uint64, spec string, bufBytes uint64, o coll.Opts) *rig {
	t.Helper()
	node := xemem.NewNode(xemem.NodeConfig{Seed: seed, MemBytes: 8 << 30})
	topo, err := xemem.ParseTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	topo.KittenBytes = 128 << 20
	topo.VMBytes = 128 << 20
	encl, err := topo.Build(node)
	if err != nil {
		t.Fatal(err)
	}
	bufCap := (bufBytes + mem.PageSize - 1) &^ uint64(mem.PageSize-1)
	chunk := o.ChunkBytes
	if chunk == 0 {
		chunk = 64 << 10
	}
	// Generous arena headroom: no leader's arenas exceed one chunk slot
	// per rank per hierarchy level.
	scratchCap := chunk * uint64(len(encl)*3)
	members := make([]coll.Member, 0, len(encl))
	for i, e := range encl {
		name := fmt.Sprintf("rank%d", i)
		m := coll.Member{Loc: e.Loc}
		if e.Kitten != nil {
			s, heap, err := node.KittenProcess(e.Kitten, name, bufCap+scratchCap)
			if err != nil {
				t.Fatal(err)
			}
			m.Sess, m.Buf = s, heap.Base
		} else {
			s, p := node.GuestProcess(e.VM, name, 0)
			region, err := xemem.AllocLinux(e.VM.Guest, p, name+"-buf", bufCap+scratchCap, true)
			if err != nil {
				t.Fatal(err)
			}
			m.Sess, m.Buf = s, region.Base
		}
		m.Scratch = m.Buf + pagetable.VA(bufCap)
		members = append(members, m)
	}
	comm, err := coll.New(members, bufBytes, o)
	if err != nil {
		t.Fatal(err)
	}
	for r := range members {
		if need := comm.ScratchNeed(r); need > scratchCap {
			t.Fatalf("rank %d needs %d scratch bytes, rig provides %d", r, need, scratchCap)
		}
	}
	return &rig{node: node, members: members, comm: comm, bufCap: bufCap}
}

// fill writes every rank's full buffer with its pattern (host-side,
// before the world runs).
func (rg *rig) fill(t *testing.T) {
	t.Helper()
	for r, m := range rg.members {
		data := make([]byte, rg.bufCap)
		for i := range data {
			data[i] = pat(r, i)
		}
		if _, err := m.Sess.Write(m.Buf, data); err != nil {
			t.Fatal(err)
		}
	}
}

// run spawns one actor per rank executing fn and runs the world; any
// rank error fails the test.
func (rg *rig) run(t *testing.T, fn func(a *sim.Actor, rank int) error) {
	t.Helper()
	errs := make([]error, len(rg.members))
	for r := range rg.members {
		r := r
		rg.node.Spawn(fmt.Sprintf("rank%d", r), func(a *sim.Actor) {
			errs[r] = fn(a, r)
		})
	}
	if err := rg.node.Run(); err != nil {
		t.Fatal(err)
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// bufs reads back every rank's full buffer after the world ran.
func (rg *rig) bufs(t *testing.T) [][]byte {
	t.Helper()
	out := make([][]byte, len(rg.members))
	for r, m := range rg.members {
		buf := make([]byte, rg.bufCap)
		if _, err := m.Sess.Read(m.Buf, buf); err != nil {
			t.Fatal(err)
		}
		out[r] = buf
	}
	return out
}

var (
	flat     = []xemem.Level{xemem.LevelFlat}
	numaFlat = []xemem.Level{xemem.LevelNUMA, xemem.LevelFlat}
	full     = xemem.DefaultLevels
)

const sixKittens = "kitten,kitten,kitten,kitten,kitten,kitten"

// collCases crosses hierarchy depth × message size (straddling the
// 32 KB switchover) × root × forced data plane.
var collCases = []struct {
	name   string
	levels []xemem.Level
	bytes  uint64
	root   int
	mode   coll.Mode
}{
	{"flat-8k-auto-cico", flat, 8 << 10, 0, coll.ModeAuto},
	{"flat-64k-auto-zc", flat, 64 << 10, 0, coll.ModeAuto},
	{"numa-flat-8k-auto-cico", numaFlat, 8 << 10, 3, coll.ModeAuto},
	{"numa-flat-64k-auto-zc", numaFlat, 64 << 10, 3, coll.ModeAuto},
	{"full-8k-forced-zc", full, 8 << 10, 0, coll.ModeZeroCopy},
	{"full-64k-forced-cico", full, 64 << 10, 3, coll.ModeCICO},
	{"full-20k-partial-chunk", full, 20 << 10, 1, coll.ModeAuto},
}

// TestBcastMatchesReference checks every depth/size/plane cell against
// the serial reference: the first `bytes` of every buffer become the
// root's pattern; everything past the message is untouched.
func TestBcastMatchesReference(t *testing.T) {
	for _, tc := range collCases {
		t.Run(tc.name, func(t *testing.T) {
			rg := buildRig(t, 11, sixKittens, 64<<10, coll.Opts{
				ChunkBytes: chunkBytes, Levels: tc.levels, Mode: tc.mode})
			rg.fill(t)
			rg.run(t, func(a *sim.Actor, rank int) error {
				return rg.comm.Bcast(a, rank, tc.root, tc.bytes)
			})
			for r, buf := range rg.bufs(t) {
				for i, b := range buf {
					want := pat(r, i)
					if uint64(i) < tc.bytes {
						want = pat(tc.root, i)
					}
					if b != want {
						t.Fatalf("rank %d byte %d = %#x, want %#x", r, i, b, want)
					}
				}
			}
		})
	}
}

// TestAllreduceMatchesReference checks the reduce-up/broadcast-down
// pipeline against the serial byte-wise sum of every rank's pattern.
func TestAllreduceMatchesReference(t *testing.T) {
	for _, tc := range collCases {
		t.Run(tc.name, func(t *testing.T) {
			rg := buildRig(t, 13, sixKittens, 64<<10, coll.Opts{
				ChunkBytes: chunkBytes, Levels: tc.levels, Mode: tc.mode})
			rg.fill(t)
			rg.run(t, func(a *sim.Actor, rank int) error {
				return rg.comm.Allreduce(a, rank, tc.bytes)
			})
			n := len(rg.members)
			for r, buf := range rg.bufs(t) {
				for i, b := range buf {
					want := pat(r, i)
					if uint64(i) < tc.bytes {
						want = 0
						for src := 0; src < n; src++ {
							want += pat(src, i)
						}
					}
					if b != want {
						t.Fatalf("rank %d byte %d = %#x, want %#x", r, i, b, want)
					}
				}
			}
		})
	}
}

// TestMixedEnclaveSequence drives a bcast followed by an allreduce over
// a co-kernel/VM mix — the composed-application shape of the paper —
// checking the final buffers against both references chained.
func TestMixedEnclaveSequence(t *testing.T) {
	const bytes = 48 << 10
	rg := buildRig(t, 17, "kitten,kitten,vm,kitten,vm,kitten", 64<<10, coll.Opts{
		ChunkBytes: chunkBytes})
	rg.fill(t)
	rg.run(t, func(a *sim.Actor, rank int) error {
		if err := rg.comm.Bcast(a, rank, 2, bytes); err != nil {
			return err
		}
		return rg.comm.Allreduce(a, rank, bytes)
	})
	n := len(rg.members)
	for r, buf := range rg.bufs(t) {
		for i, b := range buf {
			want := pat(r, i)
			if uint64(i) < bytes {
				// After the bcast every rank holds root 2's pattern, so
				// the allreduce sums n copies of it.
				want = byte(n) * pat(2, i)
			}
			if b != want {
				t.Fatalf("rank %d byte %d = %#x, want %#x", r, i, b, want)
			}
		}
	}
}

// TestBackToBackNoBarrier pins the drain contract on both data planes:
// consecutive collectives — with the root rewriting its buffer between
// them — need no interleaved Barrier, because each operation's tail
// fence keeps every rank inside the call until all peers finished
// reading its buffer and the arena slots. Without the drain, the root
// (which does no work in a zero-copy broadcast) would return instantly
// and its rewrite would race the still-in-flight pulls; a CICO leader
// would overwrite slots of the previous operation's final chunk.
func TestBackToBackNoBarrier(t *testing.T) {
	const bytes, iters, root = 48 << 10, 3, 1
	iterPat := func(it, i int) byte { return byte(it*31 + i*7 + 5) }
	for _, tc := range []struct {
		name string
		mode coll.Mode
	}{{"zc", coll.ModeZeroCopy}, {"cico", coll.ModeCICO}} {
		t.Run(tc.name, func(t *testing.T) {
			rg := buildRig(t, 41, sixKittens, 64<<10, coll.Opts{
				ChunkBytes: chunkBytes, Mode: tc.mode})
			rg.fill(t)
			rg.run(t, func(a *sim.Actor, rank int) error {
				m := rg.members[rank]
				for it := 0; it < iters; it++ {
					if rank == root {
						data := make([]byte, bytes)
						for i := range data {
							data[i] = iterPat(it, i)
						}
						if _, err := m.Sess.Write(m.Buf, data); err != nil {
							return err
						}
					}
					if err := rg.comm.Bcast(a, rank, root, bytes); err != nil {
						return err
					}
					buf := make([]byte, bytes)
					if _, err := m.Sess.Read(m.Buf, buf); err != nil {
						return err
					}
					for i, b := range buf {
						if want := iterPat(it, i); b != want {
							return fmt.Errorf("iter %d byte %d = %#x, want %#x", it, i, b, want)
						}
					}
				}
				// Two allreduces in a row reuse the reduce slots across
				// operations: each multiplies every byte by the rank count.
				if err := rg.comm.Allreduce(a, rank, bytes); err != nil {
					return err
				}
				return rg.comm.Allreduce(a, rank, bytes)
			})
			n := byte(len(rg.members))
			for r, buf := range rg.bufs(t) {
				for i := 0; uint64(i) < bytes; i++ {
					if want := n * n * iterPat(iters-1, i); buf[i] != want {
						t.Fatalf("rank %d byte %d = %#x, want %#x", r, i, buf[i], want)
					}
				}
			}
		})
	}
}

// TestBarrierOrdering asserts the barrier contract on the virtual
// clock: no rank is released before the last rank arrived, even with
// deliberately staggered arrivals.
func TestBarrierOrdering(t *testing.T) {
	rg := buildRig(t, 19, sixKittens, 4<<10, coll.Opts{ChunkBytes: chunkBytes})
	n := len(rg.members)
	arrived := make([]sim.Time, n)
	released := make([]sim.Time, n)
	rg.run(t, func(a *sim.Actor, rank int) error {
		a.Advance(sim.Time(rank) * 40 * sim.Microsecond)
		arrived[rank] = a.Now()
		if err := rg.comm.Barrier(a, rank); err != nil {
			return err
		}
		released[rank] = a.Now()
		return rg.comm.Barrier(a, rank) // reusability: a second barrier completes too
	})
	var maxArrive sim.Time
	for _, ts := range arrived {
		if ts > maxArrive {
			maxArrive = ts
		}
	}
	for r, ts := range released {
		if ts < maxArrive {
			t.Errorf("rank %d released at %v, before last arrival %v", r, ts, maxArrive)
		}
	}
}

// TestRegistrationCacheLifecycle pins the attacher-side cache counters
// over two zero-copy broadcasts: every hierarchy edge registers exactly
// once (miss), every later chunk recovers the window from the cache
// (hit), and Close's detach invalidates every entry.
func TestRegistrationCacheLifecycle(t *testing.T) {
	const bytes, iters = 64 << 10, 2
	rg := buildRig(t, 23, sixKittens, bytes, coll.Opts{
		ChunkBytes: chunkBytes, Mode: coll.ModeZeroCopy})
	rg.fill(t)
	rg.run(t, func(a *sim.Actor, rank int) error {
		for i := 0; i < iters; i++ {
			if err := rg.comm.Bcast(a, rank, 0, bytes); err != nil {
				return err
			}
		}
		return rg.comm.Close(a, rank)
	})
	var st sim.CacheStats
	for _, m := range rg.members {
		s := m.Sess.RegCacheStats()
		st.Hits += s.Hits
		st.Misses += s.Misses
		st.Invalidations += s.Invalidations
	}
	// Five edges (six ranks, rank 0 canonical): each op resolves the
	// window once per edge (the probe is memoized across chunks), so the
	// first broadcast misses and every later one hits.
	wantMiss := uint64(5)
	wantHit := uint64(5 * (iters - 1))
	if st.Misses != wantMiss || st.Hits != wantHit || st.Invalidations != wantMiss {
		t.Fatalf("cache stats hits=%d misses=%d invalidations=%d, want %d/%d/%d",
			st.Hits, st.Misses, st.Invalidations, wantHit, wantMiss, wantMiss)
	}
}

// TestSingleRankDegenerate: a one-rank communicator completes every
// operation trivially.
func TestSingleRankDegenerate(t *testing.T) {
	rg := buildRig(t, 31, "kitten", 8<<10, coll.Opts{ChunkBytes: chunkBytes})
	rg.fill(t)
	rg.run(t, func(a *sim.Actor, rank int) error {
		if err := rg.comm.Bcast(a, rank, 0, 8<<10); err != nil {
			return err
		}
		if err := rg.comm.Allreduce(a, rank, 8<<10); err != nil {
			return err
		}
		return rg.comm.Barrier(a, rank)
	})
	for i, b := range rg.bufs(t)[0] {
		if b != pat(0, i) {
			t.Fatalf("byte %d = %#x, want %#x", i, b, pat(0, i))
		}
	}
}

// TestConstructionErrors pins New's validation and the non-converging
// hierarchy diagnostic.
func TestConstructionErrors(t *testing.T) {
	rg := buildRig(t, 37, sixKittens, 8<<10, coll.Opts{ChunkBytes: chunkBytes})
	if _, err := coll.New(nil, 8<<10, coll.Opts{}); err == nil {
		t.Error("New with no members succeeded")
	}
	if _, err := coll.New(rg.members, 0, coll.Opts{}); err == nil {
		t.Error("New with zero buffer capacity succeeded")
	}
	if _, err := coll.New(rg.members, 8<<10, coll.Opts{ChunkBytes: 100}); err == nil {
		t.Error("New with unaligned chunk succeeded")
	}
	// Six ranks spread over four NUMA domains cannot converge without a
	// flat top tier.
	if _, err := coll.New(rg.members, 8<<10, coll.Opts{Levels: []xemem.Level{xemem.LevelNUMA}}); err == nil {
		t.Error("New with non-converging hierarchy succeeded")
	}
	// Argument validation happens before any protocol traffic.
	rg.run(t, func(a *sim.Actor, rank int) error {
		if err := rg.comm.Bcast(a, rank, 99, 4<<10); err == nil {
			return fmt.Errorf("Bcast with out-of-range root succeeded")
		}
		if err := rg.comm.Bcast(a, rank, 0, 0); err == nil {
			return fmt.Errorf("Bcast with zero bytes succeeded")
		}
		if err := rg.comm.Allreduce(a, rank, 1<<30); err == nil {
			return fmt.Errorf("Allreduce beyond buffer capacity succeeded")
		}
		return nil
	})
}
