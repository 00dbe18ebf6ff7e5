package experiments

// Parallel determinism harness: every figure must produce byte-identical
// JSON and identical per-world trace digests no matter how many workers
// the sweep runner uses. The serial runner (workers=1) is the reference;
// 2 and NumCPU workers must reproduce it exactly. Digest order comes
// from the cell-aware trace hook, which keys tracers by (cell, seq)
// rather than creation order, so it is worker-count independent by
// construction — this test proves the simulated content is too.

import (
	"encoding/json"
	"runtime"
	"testing"

	"xemem/internal/sim/trace"
)

// parallelFigures enumerates reduced configurations of every figure,
// parameterized on the sweep worker count.
var parallelFigures = []struct {
	name string
	run  func(workers int) (any, error)
}{
	{"fig5", func(w int) (any, error) { return Fig5(11, 2, w) }},
	{"fig6", func(w int) (any, error) { return Fig6(11, 2, w) }},
	{"fig7", func(w int) (any, error) { return Fig7(11, w) }},
	{"fig8", func(w int) (any, error) { return Fig8(11, 1, w) }},
	{"fig9", func(w int) (any, error) { return Fig9(11, 1, w) }},
	{"table2", func(w int) (any, error) { return Table2(11, 1, w) }},
}

// runCellTraced executes fn with a fresh metrics-only trace.Set installed
// through the cell-aware hook and returns the figure's JSON rendering
// alongside the trace digests.
func runCellTraced(t *testing.T, workers int, fn func(workers int) (any, error)) ([]byte, []trace.Digest) {
	t.Helper()
	s := trace.NewSet()
	s.SetKeepEvents(false)
	savedObs, savedCell := Observe, ObserveCell
	Observe = nil
	ObserveCell = s.CellHook()
	defer func() { Observe, ObserveCell = savedObs, savedCell }()
	res, err := fn(workers)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return buf, s.Digests()
}

// TestParallelIdentity checks every figure at 1, 2, and NumCPU workers:
// the result JSON must be byte-identical and every world's digest equal.
func TestParallelIdentity(t *testing.T) {
	counts := []int{2, runtime.NumCPU()}
	for _, fig := range parallelFigures {
		fig := fig
		t.Run(fig.name, func(t *testing.T) {
			wantJSON, wantDigests := runCellTraced(t, 1, fig.run)
			if len(wantDigests) == 0 {
				t.Fatal("serial run traced no worlds")
			}
			for _, workers := range counts {
				gotJSON, gotDigests := runCellTraced(t, workers, fig.run)
				if string(gotJSON) != string(wantJSON) {
					t.Errorf("workers=%d: JSON diverged from serial\n got  %s\n want %s",
						workers, gotJSON, wantJSON)
				}
				if len(gotDigests) != len(wantDigests) {
					t.Fatalf("workers=%d: traced %d worlds, serial traced %d",
						workers, len(gotDigests), len(wantDigests))
				}
				for i := range gotDigests {
					if gotDigests[i] != wantDigests[i] {
						t.Errorf("workers=%d: world %d digest diverged\n got  %+v\n want %+v",
							workers, i, gotDigests[i], wantDigests[i])
					}
				}
			}
		})
	}
}

// TestParallelMatchesGolden ties the parallel runner back to the
// checked-in golden digests: a parallel Fig. 7 sweep traced through the
// cell-aware hook must reproduce testdata/golden/fig7.json exactly —
// the same bytes the serial creation-order harness is held to.
func TestParallelMatchesGolden(t *testing.T) {
	_, got := runCellTraced(t, runtime.NumCPU(), func(w int) (any, error) {
		return Fig7(1, w)
	})
	checkGolden(t, "fig7", got)
}
