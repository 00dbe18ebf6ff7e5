package experiments

// Snapshot round-trip property tests (DESIGN.md §12): for one world of
// every figure (Fig. 5–9, Table 2) and a faulted world, arming a
// checkpoint and capturing a snapshot image must be invisible — the
// run-to-end digest equals the uninterrupted run's — at cuts 0%, 50%,
// and 90% of the run's virtual time. The captured image must survive
// the wire format bit-exactly (Encode→Read), and replaying the recipe
// to the same cut must regenerate the image byte-for-byte: that is the
// property repro bundles rely on when they re-derive an image hash.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"xemem/internal/sim"
	"xemem/internal/sim/snapshot"
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
// world and — when armed —
// a checkpoint at cut that hands the world's snapshot image to onImage.
// It returns the run's trace digest.
func runRoundtrip(t *testing.T, recipe, params string, cut sim.Time, armed bool, onImage func(*snapshot.Image)) trace.Digest {
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
			w.SetCheckpoint(cut, func() { onImage(w.SnapshotImage()) })
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
					var enc []byte
					d := runRoundtrip(t, tc.recipe, tc.params, cut, true, func(img *snapshot.Image) {
						enc = img.Encode()
					})
					if d != base {
						t.Errorf("checkpointed digest diverged\n got  %+v\n want %+v", d, base)
					}
					if enc == nil {
						t.Fatal("checkpoint never fired")
					}

					// Wire format: Encode→Read is bit-exact and
					// integrity-checked.
					img, err := snapshot.Read(bytes.NewReader(enc))
					if err != nil {
						t.Fatal(err)
					}
					if img.CutNs != int64(cut) {
						t.Errorf("image cut %d, want %d", img.CutNs, int64(cut))
					}
					if !bytes.Equal(img.Encode(), enc) {
						t.Error("decoded image re-encodes differently")
					}

					// Replay: rebuilding the recipe and running to the
					// same cut must regenerate the serialized state
					// byte-for-byte, and still finish with the base digest.
					replayed := false
					d2 := runRoundtrip(t, tc.recipe, tc.params, cut, true, func(img2 *snapshot.Image) {
						replayed = true
						if !bytes.Equal(img2.Encode(), enc) {
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
