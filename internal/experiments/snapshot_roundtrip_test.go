package experiments

// Round-trip property tests (DESIGN.md §12): for one world of every
// figure (Fig. 5–9, Table 2), a faulted world and a sharded cluster
// world, recording a window digest and auditing the ended world must be
// invisible — the run's digest equals the unobserved run's — and the
// audit must pass. A window closed at a cut of 0%, 50% or 90% of the
// run's virtual time must digest the same on a replay of the recipe:
// that is the property repro bundles rely on when they compare windows.

import (
	"encoding/json"
	"fmt"
	"testing"

	"xemem/internal/sim"
)

// roundtripCases drives every registered recipe with parameters reduced
// for test runtime; together they cover each figure world, a fault world
// with message loss and a mid-run enclave crash, and a sharded cluster
// world with live lease caches and shard replicas.
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

// runRoundtrip runs one recipe with a window closing at each of ends,
// audits the ended world, and returns the probe.
func runRoundtrip(t *testing.T, recipe, params string, ends ...sim.Time) *probe {
	t.Helper()
	p, err := runRecipe(recipe, json.RawMessage(params), roundtripSeed, ends, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.w.Audit(); err != nil {
		t.Fatalf("world-end audit: %v", err)
	}
	return p
}

// TestSnapshotRoundtrip is the round-trip property. (The name predates
// windowed bundles, when the cut took a state hash.)
func TestSnapshotRoundtrip(t *testing.T) {
	for _, tc := range roundtripCases {
		tc := tc
		t.Run(tc.recipe, func(t *testing.T) {
			base := runRoundtrip(t, tc.recipe, tc.params).tr.Digest()
			if base.FinalNs == 0 {
				t.Fatal("unobserved run ended at virtual time 0")
			}
			for _, pct := range []int64{0, 50, 90} {
				pct := pct
				t.Run(fmt.Sprintf("cut=%d%%", pct), func(t *testing.T) {
					cut := sim.Time(base.FinalNs * pct / 100)
					p := runRoundtrip(t, tc.recipe, tc.params, cut)
					if d := p.tr.Digest(); d != base {
						t.Errorf("windowed digest diverged\n got  %+v\n want %+v", d, base)
					}
					again := runRoundtrip(t, tc.recipe, tc.params, cut)
					if again.tr.sums[0] != p.tr.sums[0] {
						t.Errorf("the window at the cut digests %s, then %s on replay", p.tr.sums[0], again.tr.sums[0])
					}
				})
			}
		})
	}
}
