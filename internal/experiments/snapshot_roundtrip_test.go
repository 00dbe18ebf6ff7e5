package experiments

// Snapshot round-trip property tests (DESIGN.md §12): for one world of
// every figure (Fig. 5–9, Table 2) and a faulted world, arming a
// checkpoint and taking the world's state hash must be invisible — the
// run-to-end digest equals the uninterrupted run's — at cuts 0%, 50%,
// and 90% of the run's virtual time. Replaying the recipe to the same
// cut must regenerate the hash: that is the property repro bundles rely
// on when they re-derive a snapshot hash.

import (
	"encoding/json"
	"fmt"
	"testing"

	"xemem/internal/sim"
	"xemem/internal/sim/trace"
)

// roundtripCases drives every registered recipe with parameters reduced
// for test runtime; together they cover each figure world, a fault world
// with message loss and a mid-run enclave crash, and a sharded cluster
// world whose mid-run cuts serialize live lease caches and shard
// counters.
var roundtripCases = []struct {
	recipe string
	params string
}{
	{"fig5", `{"sizes_mb":[128,256],"reps":2}`},
	{"fig6point", `{"enclaves":2,"size_mb":128,"reps":2}`},
	{"fig7", `{"size":"2MB"}`},
	{"fig8", ``},
	{"fig9", ``},
	{"table2", `{"pairing":"vm-to-kitten","reps":2}`},
	{"fault", `{"drop":0.05,"crash":true,"rounds":10}`},
	{"cluster", `{"nodes":2,"shards":1,"churn":false,"rounds":6}`},
}

const roundtripSeed = 11

// runRoundtrip executes one recipe with a digest-only tracer on its
// world and — when armed — a checkpoint at cut that hands the world's
// state hash to onHash. It returns the run's trace digest.
func runRoundtrip(t *testing.T, recipe, params string, cut sim.Time, armed bool, onHash func(string)) trace.Digest {
	t.Helper()
	fn, ok := recipes[recipe]
	if !ok {
		t.Fatalf("unknown recipe %q", recipe)
	}
	var tr *trace.Tracer
	worlds := 0
	obs := func(label string, w *sim.World) {
		worlds++
		if worlds > 1 {
			return
		}
		tr = trace.NewTracer(label)
		tr.SetKeepEvents(false)
		w.SetObserver(tr)
		if armed {
			w.SetCheckpoint(cut, func() { onHash(w.SnapshotHash()) })
		}
	}
	if err := fn(json.RawMessage(params), roundtripSeed, obs); err != nil {
		t.Fatal(err)
	}
	if worlds != 1 {
		t.Fatalf("recipe %q announced %d worlds, want 1", recipe, worlds)
	}
	return tr.Digest()
}

// TestSnapshotRoundtrip is the round-trip property.
func TestSnapshotRoundtrip(t *testing.T) {
	for _, tc := range roundtripCases {
		tc := tc
		t.Run(tc.recipe, func(t *testing.T) {
			base := runRoundtrip(t, tc.recipe, tc.params, 0, false, nil)
			if base.FinalNs == 0 {
				t.Fatal("uninterrupted run ended at virtual time 0")
			}
			for _, pct := range []int64{0, 50, 90} {
				pct := pct
				t.Run(fmt.Sprintf("cut=%d%%", pct), func(t *testing.T) {
					cut := sim.Time(base.FinalNs * pct / 100)

					// Capture: the checkpoint must not perturb the run.
					var hash string
					d := runRoundtrip(t, tc.recipe, tc.params, cut, true, func(h string) {
						hash = h
					})
					if d != base {
						t.Errorf("checkpointed digest diverged\n got  %+v\n want %+v", d, base)
					}
					if hash == "" {
						t.Fatal("checkpoint never fired")
					}

					// Replay: rebuilding the recipe and running to the
					// same cut must regenerate the state hash, and still
					// finish with the base digest.
					replayed := false
					d2 := runRoundtrip(t, tc.recipe, tc.params, cut, true, func(h2 string) {
						replayed = true
						if h2 != hash {
							t.Error("replayed world's state diverged from the snapshot at the cut")
						}
					})
					if !replayed {
						t.Fatal("replay checkpoint never fired")
					}
					if d2 != base {
						t.Errorf("replay digest diverged\n got  %+v\n want %+v", d2, base)
					}
				})
			}
		})
	}
}
