package experiments

// Phased cluster worlds: the snapshot-fork path for the multi-node tier.
// A cluster prefix builds N machines with co-kernels, runs setup (enclave
// bootstrap, RDMA queue-pair charges, routing mesh, shard installation),
// and warms the sharded name service with one fully-retired cross-node
// exchange — so the quiesced image carries populated lease caches, shard
// counters, advanced segid cursors, and fabric-written physical memory,
// but no live XEMEM objects a fork would have to reconstruct actors for.
// A fork re-runs the build recipe (setup executes for real: routing
// tables and shard maps are host pointers), stands in for the warm
// actors, overlays the prefix-advanced state — including the lease/shard
// tail the module overlay restores — verifies the re-encoded sections
// byte-match the image, and continues the trace digest at the cut. Both
// sides of the boundary run through the shared snapshotPhase and
// forkPhase helpers (phased.go).

import (
	"fmt"

	"xemem/internal/cluster"
	"xemem/internal/proc"
	"xemem/internal/sim"
	"xemem/internal/sim/snapshot"
	"xemem/internal/sim/trace"
	"xemem/internal/xpmem"
)

// clusterPrefixParams is the recipe parameter blob embedded in a phased
// cluster snapshot image.
type clusterPrefixParams struct {
	Nodes  int `json:"nodes"`
	Shards int `json:"shards"`
}

const clusterWarmPayload = "warm exchange payload"

// clusterOutcome is a phased cluster cell's simulated result — a pure
// function of (seed, prefix, suffix rounds), identical whether the cell
// bootstrapped or forked.
type clusterOutcome struct {
	SimTimeNs int64        `json:"sim_time_ns"`
	Successes int          `json:"successes"`
	LeaseHits int          `json:"lease_hits"`
	Digest    trace.Digest `json:"digest"`
}

// clusterPhased is a cluster world positioned at the prefix/suffix
// boundary, plus the warm producer/consumer process handles the suffix
// workload reuses.
type clusterPhased struct {
	phasedWorld
	cl   *cluster.Cluster
	prod *xpmem.Session
	heap *proc.Region
	cons *xpmem.Session
}

func clusterPhasedLabel(p clusterPrefixParams, seed uint64) string {
	return fmt.Sprintf("clusterphased/nodes=%d/shards=%d/seed=%d", p.Nodes, p.Shards, seed)
}

// clusterPhasedBuild constructs the cluster substrate both paths share:
// the N-node sharded cluster plus the warm producer (last node's
// co-kernel) and warm consumer (node 0's management enclave) processes.
// Process creation lives here so a fork reconstructs the same OS
// address-space layout the snapshotted world had.
func clusterPhasedBuild(w *sim.World, seed uint64, p clusterPrefixParams) (*clusterPhased, error) {
	cl, err := cluster.NewInWorld(w, cluster.Config{
		Nodes: p.Nodes, Shards: p.Shards, CoKernels: true, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	last := cl.Nodes[p.Nodes-1]
	prod, heap, err := last.X.KittenProcess(last.CK, "warm-prod", clusterSegBytes+1<<16)
	if err != nil {
		return nil, err
	}
	cons, _ := cl.Nodes[0].X.LinuxProcess("warm-cons", 1)
	return &clusterPhased{cl: cl, prod: prod, heap: heap, cons: cons}, nil
}

// clusterSnapshot builds a cluster world, runs the warm prefix to
// quiescence, and returns the world positioned at the cut. The warm
// exchange fully retires its segment: the consumer's lease cache entry
// and every module's shard counters are the only live prefix state, and
// those are exactly what the module overlay restores on the fork side.
func clusterSnapshot(seed uint64, p clusterPrefixParams) (*clusterPhased, error) {
	var ph *clusterPhased
	var runErr error
	pw, err := snapshotPhase("cluster", clusterPhasedLabel(p, seed), seed, p, func(w *sim.World) error {
		var err error
		if ph, err = clusterPhasedBuild(w, seed, p); err != nil {
			return err
		}
		spawnClusterWarm(w, ph, &runErr)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	ph.phasedWorld = pw
	return ph, nil
}

// spawnClusterWarm spawns the prefix's warm exchange between the
// producer and consumer; the first failure lands in runErr.
func spawnClusterWarm(w *sim.World, ph *clusterPhased, runErr *error) {
	var done bool
	w.Spawn("cluster/warm-prod", func(a *sim.Actor) {
		ph.cl.WaitReady(a)
		if _, err := ph.prod.Write(ph.heap.Base, []byte(clusterWarmPayload)); err != nil {
			*runErr = err
			return
		}
		segid, err := ph.prod.Make(a, ph.heap.Base, clusterSegBytes, xpmem.PermRead, "warm-seg")
		if err != nil {
			*runErr = err
			return
		}
		a.Poll(20*sim.Microsecond, func() bool { return done })
		if err := ph.prod.Remove(a, segid); err != nil {
			*runErr = err
		}
	})
	w.Spawn("cluster/warm-cons", func(a *sim.Actor) {
		defer func() { done = true }()
		ph.cl.WaitReady(a)
		var segid xpmem.Segid
		if !a.PollDeadline(clusterLookupEvery, a.Now()+2*sim.Millisecond, func() bool {
			s, err := ph.cons.Lookup(a, "warm-seg")
			if err != nil {
				return false
			}
			segid = s
			return true
		}) {
			*runErr = fmt.Errorf("cluster prefix: warm-seg never published")
			return
		}
		apid, err := ph.cons.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
		if err != nil {
			*runErr = err
			return
		}
		va, err := ph.cons.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: clusterSegBytes, Perm: xpmem.PermRead})
		if err != nil {
			*runErr = err
			return
		}
		buf := make([]byte, len(clusterWarmPayload))
		if _, err := ph.cons.Read(va, buf); err != nil || string(buf) != clusterWarmPayload {
			*runErr = fmt.Errorf("cluster prefix: read %q over the fabric (%v)", buf, err)
			return
		}
		if err := ph.cons.Detach(a, va); err != nil {
			*runErr = err
			return
		}
		if err := ph.cons.Release(a, segid, apid); err != nil {
			*runErr = err
			return
		}
		// A second get inside the lease TTL: the warmed image must carry a
		// lease-cache hit, not just a miss-and-fill.
		apid2, err := ph.cons.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
		if err != nil {
			*runErr = err
			return
		}
		if err := ph.cons.Release(a, segid, apid2); err != nil {
			*runErr = err
		}
	})
}

// runSuffix attaches the suffix workload at the cut — a fresh cross-node
// exchange with `rounds` paced get/release cycles against a new segment —
// and runs the world to completion.
func (ph *clusterPhased) runSuffix(rounds int) (clusterOutcome, error) {
	var out clusterOutcome
	var runErr error
	var done bool
	w := ph.w
	w.Spawn("cluster/tail-prod", func(a *sim.Actor) {
		a.AdvanceTo(ph.cut)
		segid, err := ph.prod.Make(a, ph.heap.Base, clusterSegBytes, xpmem.PermRead, "tail-seg")
		if err != nil {
			runErr = err
			return
		}
		a.Poll(20*sim.Microsecond, func() bool { return done })
		if err := ph.prod.Remove(a, segid); err != nil {
			runErr = err
		}
	})
	w.Spawn("cluster/tail-cons", func(a *sim.Actor) {
		defer func() { done = true }()
		a.AdvanceTo(ph.cut)
		var segid xpmem.Segid
		if !a.PollDeadline(clusterLookupEvery, a.Now()+2*sim.Millisecond, func() bool {
			s, err := ph.cons.Lookup(a, "tail-seg")
			if err != nil {
				return false
			}
			segid = s
			return true
		}) {
			runErr = fmt.Errorf("cluster suffix: tail-seg never published")
			return
		}
		for r := 0; r < rounds; r++ {
			apid, err := ph.cons.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead, Timeout: clusterGetTimeout})
			if err != nil {
				runErr = err
				return
			}
			out.Successes++
			if err := ph.cons.Release(a, segid, apid); err != nil {
				runErr = err
				return
			}
			a.Advance(clusterPace)
		}
	})
	if err := w.Run(); err != nil {
		return out, err
	}
	if runErr != nil {
		return out, runErr
	}
	out.SimTimeNs = int64(w.Now())
	for _, m := range ph.cl.Modules() {
		out.LeaseHits += m.ShardStats.LeaseHits
	}
	out.Digest = ph.tr.Digest()
	return out, nil
}

// clusterLoaders returns the cluster's component loaders in section
// registration order: per node, the physical memory, the Linux kernel,
// the Linux module, then the co-kernel module (the Kitten kernel keeps
// no snapshot section of its own — its processes are statically laid
// out at build time).
func clusterLoaders(cl *cluster.Cluster) []sectionLoader {
	var ls []sectionLoader
	for _, n := range cl.Nodes {
		pm := n.X.Phys()
		ls = append(ls,
			sectionLoader{"phys/" + pm.Name(), pm.LoadSnapshot},
			sectionLoader{"os/" + n.X.Linux().Name(), n.X.Linux().LoadSnapshotOverlay},
			sectionLoader{"mod/" + n.X.LinuxModule().Name(), n.X.LinuxModule().LoadSnapshotOverlay},
			sectionLoader{"mod/" + n.CK.Module.Name(), n.CK.Module.LoadSnapshotOverlay},
		)
	}
	return ls
}

// clusterFork reconstructs a phased cluster world from a snapshot image
// (see forkPhase). Cluster setup executes for real on the fork side: the
// routing mesh and shard layout are host state the overlay verifies
// against, not restores.
func clusterFork(img *snapshot.Image) (*clusterPhased, error) {
	var ph *clusterPhased
	pw, _, err := forkPhase(img, "cluster", clusterPhasedLabel, func(w *sim.World, p clusterPrefixParams) ([]sectionLoader, error) {
		var err error
		if ph, err = clusterPhasedBuild(w, img.Seed, p); err != nil {
			return nil, err
		}
		// Stand-ins in the warm pair's spawn slots. Cluster setup is the
		// actor that drives bootstrap to completion on this side too.
		w.Spawn("cluster/warm-prod", func(a *sim.Actor) { ph.cl.WaitReady(a) })
		w.Spawn("cluster/warm-cons", func(a *sim.Actor) {})
		return clusterLoaders(ph.cl), nil
	})
	if err != nil {
		return nil, err
	}
	ph.phasedWorld = pw
	return ph, nil
}
