package experiments

import (
	"encoding/json"
	"testing"
)

// TestFaultSweepDeterministic is the acceptance gate for the fault
// sweep: a fixed (seed, rounds) pair produces a byte-identical
// BENCH_fault.json — including every per-cell digest — across reruns,
// and the cells behave as the failure model
// promises: the control cell is loss-free and fully successful, crash
// cells attribute their failures to the dead enclave, and lossy cells
// actually lose messages.
func TestFaultSweepDeterministic(t *testing.T) {
	rounds := fastCount(t, "fault")
	r1, err := faultGrid(1234, rounds).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := faultGrid(1234, rounds).Run(nil)
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
		t.Fatalf("BENCH_fault.json differs across reruns:\n%s\nvs\n%s", b1, b2)
	}
	for i := range r1.Cells {
		if r1.Cells[i].Digest != r2.Cells[i].Digest {
			t.Fatalf("cell %d digest differs: %s vs %s", i, r1.Cells[i].Digest, r2.Cells[i].Digest)
		}
		if r1.Cells[i].Digest == "" {
			t.Fatalf("cell %d has no digest", i)
		}
	}

	// The file round-trips as JSON.
	var back FaultSweepResult
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatalf("BENCH_fault.json does not parse: %v", err)
	}
	if len(back.Cells) != len(FaultDropRates)*2 {
		t.Fatalf("sweep has %d cells, want %d", len(back.Cells), len(FaultDropRates)*2)
	}

	for _, c := range r1.Cells {
		switch {
		case c.DropProb == 0 && !c.Crash:
			// Control cell: nothing injected, nothing failed.
			if c.SuccessRate != 1.0 || c.Drops != 0 || c.Timeouts != 0 || c.EnclaveDown != 0 {
				t.Errorf("control cell degraded: %+v", c)
			}
			if c.P50AttachNs == 0 || c.P99AttachNs < c.P50AttachNs {
				t.Errorf("control cell latencies implausible: %+v", c)
			}
		case c.DropProb == 0 && c.Crash:
			// Crash-only cell: failures exist and are attributed to the
			// dead enclave, not to timeouts.
			if c.EnclaveDown == 0 || c.Successes == 0 {
				t.Errorf("crash cell did not split pre/post-crash: %+v", c)
			}
			if c.Drops != 0 {
				t.Errorf("crash-only cell dropped messages: %+v", c)
			}
		case c.DropProb >= 0.05:
			if c.Drops == 0 {
				t.Errorf("lossy cell (drop=%.2f) lost nothing over the sweep: %+v", c.DropProb, c)
			}
		}
		if c.OtherErrors != 0 {
			t.Errorf("cell %+v saw errors outside the failure model", c)
		}
	}
}
