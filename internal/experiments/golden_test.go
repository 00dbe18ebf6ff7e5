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

// runTraced executes fn with a fresh metrics-only trace.Set installed
// as the Observe hook and returns the digests of every traced world.
func runTraced(t *testing.T, fn func() error) []trace.Digest {
	t.Helper()
	s := trace.NewSet()
	s.SetKeepEvents(false)
	saved := Observe
	Observe = s.Observe
	defer func() { Observe = saved }()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	return s.Digests()
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
	checkGolden(t, "fig5", runTraced(t, func() error {
		_, err := Fig5(1, 2)
		return err
	}))
}

func TestGoldenFig6(t *testing.T) {
	checkGolden(t, "fig6", runTraced(t, func() error {
		_, _, _, err := fig6Point(nil, 1, 2, 128, 2)
		return err
	}))
}

func TestGoldenFig7(t *testing.T) {
	checkGolden(t, "fig7", runTraced(t, func() error {
		_, err := Fig7(1)
		return err
	}))
}

func TestGoldenFig8(t *testing.T) {
	checkGolden(t, "fig8", runTraced(t, func() error {
		if _, err := fig8Run(nil, 1, KittenLinux, true, false); err != nil {
			return err
		}
		_, err := fig8Run(nil, 1, KittenVMOnKt, false, true)
		return err
	}))
}

func TestGoldenFig9(t *testing.T) {
	checkGolden(t, "fig9", runTraced(t, func() error {
		_, err := fig9Run(nil, 1, 2, true, false)
		return err
	}))
}

func TestGoldenTable2(t *testing.T) {
	checkGolden(t, "table2", runTraced(t, func() error {
		_, err := Table2(1, 1, 0)
		return err
	}))
}

// TestGoldenRepeatable guards the digest itself: two traced runs of the
// same configuration must produce identical digests (no wall-clock, map
// order, or allocation address leaks into the hash).
func TestGoldenRepeatable(t *testing.T) {
	run := func() []trace.Digest {
		return runTraced(t, func() error {
			_, _, _, err := fig6Point(nil, 3, 2, 128, 2)
			return err
		})
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
