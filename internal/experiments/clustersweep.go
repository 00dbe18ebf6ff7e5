package experiments

import (
	"fmt"
	"strings"

	"xemem/internal/cluster"
	"xemem/internal/fault"
	"xemem/internal/sim"
	"xemem/internal/xpmem"
)

// ClusterNodeCounts are the machine counts the cluster sweep covers.
var ClusterNodeCounts = []int{2, 4, 8}

// Cluster sweep workload geometry. Every node exports one segment from
// its co-kernel and runs clusterConsumers attacher processes on its
// management enclave, each hammering the next node's segment with paced
// get/release cycles — an all-to-neighbour lookup storm. In the flat
// deployment every one of those resolutions funnels through node 0's
// root name server; under sharding each consumer's second and later
// cycles resolve from its lease cache and go straight to the owner. The
// get-latency distribution against node count is the headline curve.
const (
	clusterSegBytes    = 16 << 12
	clusterConsumers   = 2
	clusterPace        = 10 * sim.Microsecond
	clusterGetTimeout  = 2 * sim.Millisecond
	clusterAttTimeout  = 2 * sim.Millisecond
	clusterLookupEvery = 50 * sim.Microsecond
)

// clusterShards is the shard count the sweep pairs with a node count
// (replica pairs on distinct nodes: S = N/2 keeps every management
// enclave hosting at most one replica).
func clusterShards(nodes int) int { return nodes / 2 }

// clusterCrashAt places the churn-cell crash after cluster setup (whose
// serial queue-pair charges grow quadratically with node count) but
// inside the measurement window at every node count.
func clusterCrashAt(w *sim.World, nodes int) sim.Time {
	return sim.Time(nodes*(nodes-1))*w.Costs().RDMASetup + 3*sim.Millisecond
}

// ClusterCell is one (nodes, shards, churn) point: how lookups degraded,
// where failures were attributed, the get-latency distribution, the
// name-service counter totals, and the run's trace digest.
type ClusterCell struct {
	Nodes  int  `json:"nodes"`
	Shards int  `json:"shards"` // 0 = flat root name server
	Churn  bool `json:"churn"`  // one exporting co-kernel crashes mid-sweep

	cycleTally

	P50GetNs int64 `json:"p50_get_ns"` // virtual time, successful cycles
	P99GetNs int64 `json:"p99_get_ns"`

	// RootForwards counts segment messages the root name server relayed
	// toward owners — the flat deployment's collapse indicator.
	RootForwards int `json:"root_forwards"`
	// Sharded name-service counters, summed over every module.
	LeaseHits      int `json:"lease_hits"`
	LeaseMisses    int `json:"lease_misses"`
	LeaseStale     int `json:"lease_stale"`
	ShardLookups   int `json:"shard_lookups"`
	ShardFailovers int `json:"shard_failovers"`
	SyncsSent      int `json:"syncs_sent"`
	SyncsApplied   int `json:"syncs_applied"`

	Digest string `json:"digest"` // SHA-256 of the cell's full event stream
}

// ClusterSweepResult is the regenerated cluster sweep
// (BENCH_cluster.json).
type ClusterSweepResult struct {
	Seed             uint64        `json:"seed"`
	Rounds           int           `json:"rounds"`
	ConsumersPerNode int           `json:"consumers_per_node"`
	NodeCounts       []int         `json:"node_counts"`
	Cells            []ClusterCell `json:"cells"`

	// FlatP99Collapse is flat p99 / sharded p99 at the largest quiet
	// (churn-free) node count — how much latency the single root name
	// server costs at scale. FlatP99Growth and ShardedP99Growth are each
	// deployment's quiet p99 at the largest node count over its p99 at
	// the smallest: the flat curve collapses, the sharded one stays flat.
	FlatP99Collapse  float64 `json:"flat_p99_collapse"`
	FlatP99Growth    float64 `json:"flat_p99_growth"`
	ShardedP99Growth float64 `json:"sharded_p99_growth"`
}

// clusterGrid is the cluster-scale name-service sweep: every node
// count × {flat, sharded} × {quiet, churn}, each cell a closed world
// with its own fabric, injector, and tracer. The result is a pure
// function of (seed, rounds): rerunning yields a byte-identical
// BENCH_cluster.json.
func clusterGrid(seed uint64, rounds int) Grid[*ClusterSweepResult] {
	res := &ClusterSweepResult{
		Seed: seed, Rounds: rounds,
		ConsumersPerNode: clusterConsumers, NodeCounts: ClusterNodeCounts,
	}
	var cells []Cell
	for _, churn := range []bool{false, true} {
		for _, sharded := range []bool{false, true} {
			for _, n := range ClusterNodeCounts {
				shards := 0
				if sharded {
					shards = clusterShards(n)
				}
				i, label := len(cells), fmt.Sprintf("cluster/n=%d/s=%d/churn=%v", n, shards, churn)
				cells = append(cells, Cell{label, seed, func(w *sim.World) (err error) {
					res.Cells[i], err = clusterRun(w, label, n, shards, churn, rounds)
					return err
				}})
			}
		}
	}
	res.Cells = make([]ClusterCell, len(cells))
	return Grid[*ClusterSweepResult]{cells, res.fold}
}

// fold derives the p99 ratios once every cell has run.
func (res *ClusterSweepResult) fold() *ClusterSweepResult {
	minN := ClusterNodeCounts[0]
	maxN := ClusterNodeCounts[len(ClusterNodeCounts)-1]
	var flatMin, flatMax, shardMin, shardMax int64
	for _, c := range res.Cells {
		if c.Churn {
			continue
		}
		switch {
		case c.Shards == 0 && c.Nodes == minN:
			flatMin = c.P99GetNs
		case c.Shards == 0 && c.Nodes == maxN:
			flatMax = c.P99GetNs
		case c.Shards > 0 && c.Nodes == minN:
			shardMin = c.P99GetNs
		case c.Shards > 0 && c.Nodes == maxN:
			shardMax = c.P99GetNs
		}
	}
	if shardMax > 0 {
		res.FlatP99Collapse = float64(flatMax) / float64(shardMax)
	}
	if flatMin > 0 {
		res.FlatP99Growth = float64(flatMax) / float64(flatMin)
	}
	if shardMin > 0 {
		res.ShardedP99Growth = float64(shardMax) / float64(shardMin)
	}
	return res
}

// clusterRun builds and runs one cluster-sweep cell.
func clusterRun(w *sim.World, label string, nodes, shards int, churn bool, rounds int) (ClusterCell, error) {
	cell := ClusterCell{Nodes: nodes, Shards: shards, Churn: churn}
	tr := cellTracer(label, w)

	cl, err := cluster.NewInWorld(w, cluster.Config{Nodes: nodes, Shards: shards})
	if err != nil {
		return cell, err
	}
	if churn {
		victim := cl.Nodes[1%nodes].CK.Module
		fault.New(w, fault.Plan{Crashes: []fault.Crash{
			{At: clusterCrashAt(w, nodes), Module: victim.Name()},
		}}).Arm()
	}

	var runErr error
	payload := []byte("cluster sweep payload")
	for i, n := range cl.Nodes {
		i, n := i, n
		sess, heap, err := n.X.KittenProcess(n.CK, fmt.Sprintf("prod%d", i), clusterSegBytes+1<<16)
		if err != nil {
			return cell, err
		}
		w.Spawn(fmt.Sprintf("node%d/producer", i), func(a *sim.Actor) {
			cl.WaitReady(a)
			if _, err := sess.Write(heap.Base, payload); err != nil {
				runErr = err
				return
			}
			if _, err := sess.Make(a, heap.Base, clusterSegBytes, xpmem.PermRead, fmt.Sprintf("cseg-%d", i)); err != nil {
				runErr = err
			}
		})
	}

	nCons := nodes * clusterConsumers
	lat := make([][]int64, nCons)
	for ci := 0; ci < nCons; ci++ {
		ci := ci
		node := cl.Nodes[ci%nodes]
		target := (ci%nodes + 1) % nodes
		sess, _ := node.X.LinuxProcess(fmt.Sprintf("consumer%d", ci/nodes), 1+ci/nodes%3)
		w.Spawn(fmt.Sprintf("node%d/consumer%d", ci%nodes, ci/nodes), func(a *sim.Actor) {
			cl.WaitReady(a)
			var segid xpmem.Segid
			if !a.Retry(clusterLookupEvery, a.Now()+2*sim.Millisecond, func() bool {
				s, err := sess.Lookup(a, fmt.Sprintf("cseg-%d", target))
				if err != nil {
					return false
				}
				segid = s
				return true
			}) {
				runErr = fmt.Errorf("cluster: consumer %d: cseg-%d never published", ci, target)
				return
			}
			attached := false
			for r := 0; r < rounds; r++ {
				cell.Attempts++
				start := a.Now()
				apid, err := sess.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead, Timeout: clusterGetTimeout})
				if err != nil {
					cell.classify(err)
					a.Advance(clusterPace)
					continue
				}
				lat[ci] = append(lat[ci], int64(a.Now()-start))
				cell.Successes++
				if !attached {
					// One cross-node attach per consumer: the page-frame
					// list and data bytes cross the fabric into the digest.
					attached = true
					va, err := sess.AttachWith(a, segid, apid, xpmem.AttachOpts{
						Bytes: clusterSegBytes, Perm: xpmem.PermRead, Timeout: clusterAttTimeout,
					})
					if err != nil {
						cell.classify(err)
					} else {
						buf := make([]byte, len(payload))
						if _, rerr := sess.Read(va, buf); rerr != nil || string(buf) != string(payload) {
							runErr = fmt.Errorf("cluster: consumer %d read %q over the fabric", ci, buf)
						}
						if err := sess.Detach(a, va); err != nil {
							cell.classify(err)
						}
					}
				}
				if err := sess.Release(a, segid, apid); err != nil {
					cell.classify(err)
				}
				a.Advance(clusterPace)
			}
		})
	}

	if err := w.Run(); err != nil {
		return cell, err
	}
	if runErr != nil {
		return cell, runErr
	}

	cell.finish()
	for _, m := range cl.Modules() {
		ss := m.ShardStats
		cell.LeaseHits += ss.LeaseHits
		cell.LeaseMisses += ss.LeaseMisses
		cell.LeaseStale += ss.LeaseStale
		cell.ShardLookups += ss.ShardLookups
		cell.ShardFailovers += ss.ShardFailovers
		cell.SyncsSent += ss.SyncsSent
		cell.SyncsApplied += ss.SyncsApplied
	}
	if root := cl.Nodes[0].X.LinuxModule(); root.NS != nil {
		cell.RootForwards = root.NS.Forwards
	}
	var all []int64
	for _, s := range lat {
		all = append(all, s...)
	}
	cell.P50GetNs = percentileNs(all, 50)
	cell.P99GetNs = percentileNs(all, 99)
	cell.Digest = tr.Digest().SHA256
	return cell, nil
}

// String renders the sweep for the terminal.
func (r *ClusterSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cluster sweep: %d get cycles x %d consumers/node, seed %d\n",
		r.Rounds, r.ConsumersPerNode, r.Seed)
	fmt.Fprintf(&b, "%-6s %-7s %-6s %9s %9s %9s %12s %12s %9s %9s %9s %9s\n",
		"nodes", "shards", "churn", "success", "timeout", "encdown", "p50 get", "p99 get",
		"fwd@root", "hits", "misses", "stale")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-6d %-7d %-6v %8.0f%% %9d %9d %10.1fµs %10.1fµs %9d %9d %9d %9d\n",
			c.Nodes, c.Shards, c.Churn, c.SuccessRate*100, c.Timeouts, c.EnclaveDown,
			float64(c.P50GetNs)/1e3, float64(c.P99GetNs)/1e3,
			c.RootForwards, c.LeaseHits, c.LeaseMisses, c.LeaseStale)
	}
	fmt.Fprintf(&b, "flat p99 collapse at %d nodes: %.1fx vs sharded (growth %d->%d nodes: flat %.1fx, sharded %.1fx)\n",
		r.NodeCounts[len(r.NodeCounts)-1], r.FlatP99Collapse,
		r.NodeCounts[0], r.NodeCounts[len(r.NodeCounts)-1], r.FlatP99Growth, r.ShardedP99Growth)
	return b.String()
}
