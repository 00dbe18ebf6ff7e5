package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"xemem/internal/experiments/sweep"
	"xemem/internal/sim"
	"xemem/internal/sim/snapshot"
)

// TestSnapshotFork is the fork-identity contract behind the snapshot
// bench: a Figure 9 cell continued from a decoded snapshot image must be
// indistinguishable — simulated time, analysis points, and trace digest,
// dispatch counter included — from the same cell re-run from scratch
// through the bootstrap prefix.
func TestSnapshotFork(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    fig9PrefixParams
	}{
		{"multi", fig9PrefixParams{Nodes: 2, MultiEnclave: true, PrefixIters: 120, Recurring: true}},
		{"linux-only", fig9PrefixParams{Nodes: 2, MultiEnclave: false, PrefixIters: 120}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ph, err := fig9Snapshot(7, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			img := ph.w.SnapshotImage()

			// Round-trip the image through the wire format, as the bench's
			// shared prep does.
			var buf bytes.Buffer
			if _, err := img.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			tail := fig9Tail{Recurring: true, Iters: 60}
			boot, err := ph.runSuffix(tail)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := sim.Restore(&buf)
			if err != nil {
				t.Fatal(err)
			}
			fk, err := fig9Fork(decoded)
			if err != nil {
				t.Fatal(err)
			}
			fork, err := fk.runSuffix(tail)
			if err != nil {
				t.Fatal(err)
			}
			if boot != fork {
				t.Fatalf("outcomes diverge:\n boot %+v\n fork %+v", boot, fork)
			}
		})
	}

	// The cluster tier: a warmed 2-node sharded world — populated lease
	// cache, non-zero shard counters, fabric-written memory — forked
	// through sweep.FromSnapshot exactly as a production sweep would,
	// must be indistinguishable from re-bootstrapping the prefix.
	t.Run("cluster", func(t *testing.T) {
		p := clusterPrefixParams{Nodes: 2, Shards: 1}
		ph, err := clusterSnapshot(7, p)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := ph.w.SnapshotImage().WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		enc := buf.Bytes()

		tails := []int{8, 12}
		boots := make([]clusterOutcome, len(tails))
		for i, rounds := range tails {
			bp := ph
			if i > 0 {
				if bp, err = clusterSnapshot(7, p); err != nil {
					t.Fatal(err)
				}
			}
			if boots[i], err = bp.runSuffix(rounds); err != nil {
				t.Fatal(err)
			}
		}

		// The decoded image is the shared bootstrap artifact; each fork
		// cell forks its own world from it, the sweep.FromSnapshot shape
		// the snapshot-forked sweeps use in production. Two workers prove
		// the forked worlds are independent.
		prep := func() (*snapshot.Image, error) { return sim.Restore(bytes.NewReader(enc)) }
		forkCells := make([]sweep.SnapCell[*snapshot.Image, clusterOutcome], len(tails))
		for i, rounds := range tails {
			rounds := rounds
			forkCells[i] = sweep.SnapCell[*snapshot.Image, clusterOutcome]{
				Label: fmt.Sprintf("cluster fork rounds=%d", rounds),
				Run: func(img *snapshot.Image) (clusterOutcome, error) {
					fk, err := clusterFork(img)
					if err != nil {
						return clusterOutcome{}, err
					}
					// The warmed state really crossed the image: the fork
					// starts with the prefix's lease-cache hit already on
					// the consumer module's counters.
					if hits := fk.cl.Nodes[0].X.LinuxModule().ShardStats.LeaseHits; hits == 0 {
						return clusterOutcome{}, fmt.Errorf("forked consumer module has no lease hits — shard tail not overlaid")
					}
					return fk.runSuffix(rounds)
				},
			}
		}
		forks, err := sweep.Run(sweep.FromSnapshot(prep, forkCells), 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tails {
			if boots[i] != forks[i] {
				t.Fatalf("cluster outcomes diverge at rounds=%d:\n boot %+v\n fork %+v", tails[i], boots[i], forks[i])
			}
			if boots[i].LeaseHits == 0 || boots[i].Successes != tails[i] {
				t.Fatalf("cluster suffix did no sharded work: %+v", boots[i])
			}
		}
	})
}
