package experiments

import (
	"encoding/json"
	"testing"
)

// TestClusterSweepDeterministic is the acceptance gate for the cluster
// sweep: a fixed (seed, rounds) pair produces a byte-identical
// BENCH_cluster.json — every per-cell digest included — across reruns
// and worker counts; the flat deployment's tail latency collapses with
// node count while the sharded one stays flat; and the lease cache and
// shard counters actually move.
func TestClusterSweepDeterministic(t *testing.T) {
	// Default rounds: the collapse ratio is a tail-latency statement and
	// needs the full steady-state sample that BENCH_cluster.json ships.
	const rounds = 0
	r1, err := ClusterSweep(1234, rounds, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ClusterSweep(1234, rounds, 4)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := json.MarshalIndent(r1, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.MarshalIndent(r2, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("BENCH_cluster.json differs across reruns/worker counts:\n%s\nvs\n%s", b1, b2)
	}
	for i := range r1.Cells {
		if r1.Cells[i].Digest != r2.Cells[i].Digest || r1.Cells[i].Digest == "" {
			t.Fatalf("cell %d digest differs or empty: %q vs %q", i, r1.Cells[i].Digest, r2.Cells[i].Digest)
		}
	}

	var back ClusterSweepResult
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatalf("BENCH_cluster.json does not parse: %v", err)
	}
	if want := len(ClusterNodeCounts) * 4; len(back.Cells) != want {
		t.Fatalf("sweep has %d cells, want %d", len(back.Cells), want)
	}

	// The headline: flat p99 collapses with node count (and against the
	// sharded deployment at scale), sharded p99 stays flat.
	if r1.FlatP99Collapse < 5 {
		t.Errorf("flat p99 only %.1fx the sharded p99 at %d nodes, want >= 5x",
			r1.FlatP99Collapse, ClusterNodeCounts[len(ClusterNodeCounts)-1])
	}
	if r1.FlatP99Growth < 5 {
		t.Errorf("flat p99 grew only %.1fx from %d to %d nodes, want >= 5x",
			r1.FlatP99Growth, ClusterNodeCounts[0], ClusterNodeCounts[len(ClusterNodeCounts)-1])
	}
	if r1.ShardedP99Growth > 2 {
		t.Errorf("sharded p99 grew %.1fx with node count — not flat", r1.ShardedP99Growth)
	}

	for _, c := range r1.Cells {
		if c.Attempts == 0 || c.Successes == 0 {
			t.Errorf("cell %+v ran no cycles", c)
		}
		if c.OtherErrors != 0 {
			t.Errorf("cell %+v saw errors outside the failure model", c)
		}
		if c.Shards == 0 {
			// Flat: every resolution funnels through the root.
			if c.RootForwards == 0 {
				t.Errorf("flat cell (n=%d churn=%v) never transited the root name server", c.Nodes, c.Churn)
			}
			if c.LeaseHits+c.LeaseMisses+c.ShardLookups != 0 {
				t.Errorf("flat cell (n=%d churn=%v) touched the sharded paths: %+v", c.Nodes, c.Churn, c)
			}
		} else {
			if c.RootForwards != 0 {
				t.Errorf("sharded cell (n=%d) still funnels through the root: %+v", c.Nodes, c)
			}
			if c.LeaseMisses == 0 || c.LeaseHits == 0 || c.ShardLookups == 0 || c.SyncsSent == 0 {
				t.Errorf("sharded cell (n=%d churn=%v) counters flat: %+v", c.Nodes, c.Churn, c)
			}
			if c.LeaseHits < c.LeaseMisses {
				t.Errorf("sharded cell (n=%d churn=%v): lease cache mostly missing: %+v", c.Nodes, c.Churn, c)
			}
			if c.Churn && c.LeaseStale == 0 {
				t.Errorf("sharded churn cell (n=%d) invalidated no leases: %+v", c.Nodes, c)
			}
		}
		if c.Churn && c.EnclaveDown == 0 {
			t.Errorf("churn cell (n=%d s=%d) attributed no failures to the crash: %+v", c.Nodes, c.Shards, c)
		}
		if !c.Churn && c.SuccessRate != 1.0 {
			t.Errorf("quiet cell (n=%d s=%d) degraded: %+v", c.Nodes, c.Shards, c)
		}
	}
}
