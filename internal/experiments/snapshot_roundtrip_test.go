package experiments

// Round-trip property tests (DESIGN.md §12): for one cell of each of
// the nine artifacts, recording a window digest and auditing the ended
// world must be invisible — the run's digest equals the unobserved
// run's — and the audit must pass. A window closed at a cut of 0%, 50%
// or 90% of the run's virtual time must digest the same on a replay of
// the cell: that is the property repro bundles rely on when they compare
// windows.

import (
	"fmt"
	"strings"
	"testing"

	"xemem/internal/sim"
)

// roundtripCases is one cell of each artifact at a count reduced for
// test runtime; together they cover the RDMA baseline, each figure
// world, a fault world with message loss and a mid-run enclave crash, a
// sharded cluster world with live lease caches and shard replicas, and
// a collective world.
var roundtripCases = []struct {
	cell  string
	count int
}{
	{"fig5/rdma", 2},
	{"fig6/enclaves=2/size=128MB", 2},
	{"table2/vm-to-kitten", 2},
	{"fig7/2MB", 0},
	{"fig8/Kitten/Linux/sync=true/recurring=false/seed=11", 1},
	{"fig9/nodes=2/multi=true/recurring=true/seed=11", 1},
	{"fault/drop=0.05/crash=true", 10},
	{"cluster/n=2/s=1/churn=false", 6},
	{"coll/d=1/uniform/b=4096/zero-copy", 0},
}

const roundtripSeed = 11

// runRoundtrip runs one cell with a window closing at each of ends,
// audits the ended world, and returns the probe.
func runRoundtrip(t *testing.T, cell string, count int, ends ...sim.Time) *probe {
	t.Helper()
	p, err := runProbe(cell, count, roundtripSeed, ends, false)
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
		name, _, _ := strings.Cut(tc.cell, "/")
		t.Run(name, func(t *testing.T) {
			base := runRoundtrip(t, tc.cell, tc.count).tr.Digest()
			if base.FinalNs == 0 {
				t.Fatal("unobserved run ended at virtual time 0")
			}
			for _, pct := range []int64{0, 50, 90} {
				pct := pct
				t.Run(fmt.Sprintf("cut=%d%%", pct), func(t *testing.T) {
					cut := sim.Time(base.FinalNs * pct / 100)
					p := runRoundtrip(t, tc.cell, tc.count, cut)
					if d := p.tr.Digest(); d != base {
						t.Errorf("windowed digest diverged\n got  %+v\n want %+v", d, base)
					}
					again := runRoundtrip(t, tc.cell, tc.count, cut)
					if again.tr.sums[0] != p.tr.sums[0] {
						t.Errorf("the window at the cut digests %s, then %s on replay", p.tr.sums[0], again.tr.sums[0])
					}
				})
			}
		})
	}
}
