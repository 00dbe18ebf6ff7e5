package experiments

import (
	"encoding/json"
	"testing"
)

// TestCollSweepDeterministic is the acceptance gate for the collective
// sweep: a fixed seed produces a byte-identical BENCH_coll.json across
// reruns; zero-copy beats CICO above the switchover
// on the deepest hierarchy (and CICO wins below it); the registration
// cache turns first-iteration misses into warm hits; and per-level
// attribution actually lands time on every hierarchy tier.
func TestCollSweepDeterministic(t *testing.T) {
	r1, err := collGrid(1234, 0).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := collGrid(1234, 0).Run(nil)
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
		t.Fatalf("BENCH_coll.json differs across reruns:\n%s\nvs\n%s", b1, b2)
	}
	for i := range r1.Cells {
		if r1.Cells[i].Digest != r2.Cells[i].Digest || r1.Cells[i].Digest == "" {
			t.Fatalf("cell %d digest differs or empty: %q vs %q", i, r1.Cells[i].Digest, r2.Cells[i].Digest)
		}
	}

	var back CollSweepResult
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatalf("BENCH_coll.json does not parse: %v", err)
	}
	if want := 3 * 2 * len(CollSizes) * 2; len(back.Cells) != want {
		t.Fatalf("sweep has %d cells, want %d", len(back.Cells), want)
	}

	// The headline switchover claim on the deepest uniform hierarchy.
	if !r1.Crossover.ZCWinsLarge {
		t.Errorf("zero-copy does not beat CICO above the switchover: zc %dns vs cico %dns",
			r1.Crossover.LargeZCNs, r1.Crossover.LargeCICONs)
	}
	if !r1.Crossover.CICOWinsSmall {
		t.Errorf("CICO does not beat zero-copy below the switchover: cico %dns vs zc %dns",
			r1.Crossover.SmallCICONs, r1.Crossover.SmallZCNs)
	}

	for _, c := range r1.Cells {
		if c.ColdBcastNs <= 0 || c.BcastNs <= 0 || c.AllreduceNs <= 0 {
			t.Errorf("cell %+v measured no time", c)
		}
		if c.Mode == "zero-copy" && c.Depth > 1 {
			// The attacher-side cache: misses only on first appearance,
			// warm iterations all hit.
			if c.RegMisses == 0 || c.RegHits <= c.RegMisses {
				t.Errorf("zero-copy cell %+v: registration cache not amortizing", c)
			}
			if c.ColdBcastNs <= c.BcastNs {
				t.Errorf("cell %+v: cold bcast not dearer than warm (setup+misses missing?)", c)
			}
		}
		if len(c.Levels) != c.Depth {
			t.Errorf("cell %+v attributes %d levels, want %d", c, len(c.Levels), c.Depth)
		}
		for _, lv := range c.Levels {
			if lv.Ops == 0 || lv.Ns <= 0 {
				t.Errorf("cell depth=%d mix=%s bytes=%d mode=%s: level %s has no attributed time",
					c.Depth, c.Mix, c.Bytes, c.Mode, lv.Level)
			}
		}
	}
}
