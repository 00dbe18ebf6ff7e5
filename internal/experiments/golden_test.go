package experiments

// Golden-trace regression harness: each figure/table runs a reduced
// configuration under a fixed seed with a metrics-only tracer attached,
// and the per-world span digests must match the checked-in goldens.
// The digest hashes every observed event (spans, resource acquisitions,
// queue waits, counters) in dispatch order, so any change to the
// simulator's schedule or to a cost-charge site shows up as a mismatch
// here before it shows up as a silently shifted figure. Regenerate
// after an intentional model change with:
//
//	go test ./internal/experiments -run TestGolden -update

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"xemem/internal/sim/trace"
)

var update = flag.Bool("update", false, "rewrite golden trace digests")

// runTraced runs cells in order, each announced to one fresh
// metrics-only trace set, and returns the digests of every traced world.
func runTraced(t *testing.T, cells ...Cell) []trace.Digest {
	t.Helper()
	s := trace.NewSet()
	s.SetKeepEvents(false)
	for _, c := range cells {
		if err := runCell(s.Observe, c); err != nil {
			t.Fatal(err)
		}
	}
	var ds []trace.Digest
	for _, tr := range s.Tracers() {
		ds = append(ds, tr.Digest())
	}
	return ds
}

// cellAt is the cell labelled label among its artifact's cells at
// (seed, n).
func cellAt(t *testing.T, label string, seed uint64, n int) Cell {
	t.Helper()
	c, err := cellNamed(label, seed, n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkGolden compares digests against testdata/golden/<name>.json,
// rewriting the file under -update.
func checkGolden(t *testing.T, name string, got []trace.Digest) {
	t.Helper()
	if len(got) == 0 {
		t.Fatal("no worlds were traced")
	}
	path := filepath.Join("testdata", "golden", name+".json")
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d digests)", path, len(got))
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	var want []trace.Digest
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("corrupt golden file %s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Fatalf("traced %d worlds, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("world %d diverged from golden:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}

func TestGoldenFig5(t *testing.T) {
	checkGolden(t, "fig5", runTraced(t, fig5Grid(1, 2).Cells...))
}

func TestGoldenFig6(t *testing.T) {
	checkGolden(t, "fig6", runTraced(t, cellAt(t, "fig6/enclaves=2/size=128MB", 1, 2)))
}

func TestGoldenFig7(t *testing.T) {
	checkGolden(t, "fig7", runTraced(t, fig7Grid(1, 0).Cells...))
}

func TestGoldenFig8(t *testing.T) {
	checkGolden(t, "fig8", runTraced(t,
		cellAt(t, "fig8/Kitten/Linux/sync=true/recurring=false/seed=1", 1, 1),
		cellAt(t, "fig8/Kitten/Linux VM (Kitten Host)/sync=false/recurring=true/seed=1", 1, 1)))
}

func TestGoldenFig9(t *testing.T) {
	checkGolden(t, "fig9", runTraced(t, cellAt(t, "fig9/nodes=2/multi=true/recurring=false/seed=1", 1, 1)))
}

func TestGoldenTable2(t *testing.T) {
	checkGolden(t, "table2", runTraced(t, table2Grid(1, 1).Cells...))
}

// TestGoldenRepeatable guards the digest itself: two traced runs of the
// same configuration must produce identical digests (no wall-clock, map
// order, or allocation address leaks into the hash).
func TestGoldenRepeatable(t *testing.T) {
	run := func() []trace.Digest {
		return runTraced(t, cellAt(t, "fig6/enclaves=2/size=128MB", 3, 2))
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("world counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("run digests differ at %d:\n %+v\n %+v", i, a[i], b[i])
		}
	}
}
