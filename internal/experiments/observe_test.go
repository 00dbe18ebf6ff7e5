package experiments

// Observer-neutrality and dip-explanation tests: tracing must never
// move a simulated timestamp, and the exported contention metrics must
// quantitatively account for the Figure 6 1→2 enclave dip.

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"xemem/internal/sim"
	"xemem/internal/sim/trace"
)

// traced runs fn with a metrics-only tracer installed, restoring the
// Observe hook afterwards, and returns the set for inspection.
func traced(fn func() error) (*trace.Set, error) {
	s := trace.NewSet()
	s.SetKeepEvents(false)
	saved := Observe
	Observe = s.Observe
	defer func() { Observe = saved }()
	return s, fn()
}

// TestTracingDoesNotPerturbFig6 runs the same Figure 6 point bare and
// traced; every simulated output must be bit-identical.
func TestTracingDoesNotPerturbFig6(t *testing.T) {
	bw0, at0, busy0, err := fig6Point(nil, 7, 2, 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	var bw1 float64
	var at1, busy1 sim.Time
	s, err := traced(func() error {
		var err error
		bw1, at1, busy1, err = fig6Point(nil, 7, 2, 128, 3)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if bw0 != bw1 || at0 != at1 || busy0 != busy1 {
		t.Errorf("tracing changed fig6 results: (%v,%v,%v) vs (%v,%v,%v)",
			bw0, at0, busy0, bw1, at1, busy1)
	}
	if len(s.Tracers()) != 1 || s.Digests()[0].Spans == 0 {
		t.Errorf("tracer captured nothing: %+v", s.Digests())
	}
}

// TestTracingDoesNotPerturbFig8 does the same for a full composed run.
func TestTracingDoesNotPerturbFig8(t *testing.T) {
	t0, err := fig8Run(nil, 7, KittenLinux, false, true)
	if err != nil {
		t.Fatal(err)
	}
	var t1 sim.Time
	if _, err := traced(func() error {
		var err error
		t1, err = fig8Run(nil, 7, KittenLinux, false, true)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if t0 != t1 {
		t.Errorf("tracing changed fig8 completion: %v vs %v", t0, t1)
	}
}

// TestTracingDoesNotPerturbTable2 compares whole result structs.
func TestTracingDoesNotPerturbTable2(t *testing.T) {
	r0, err := Table2(7, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var r1 *Table2Result
	if _, err := traced(func() error {
		var err error
		r1, err = Table2(7, 1, 0)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r0, r1) {
		t.Errorf("tracing changed table2:\n bare   %+v\n traced %+v", r0, r1)
	}
}

// TestTraceOrderFollowsRunOrder runs two figures into one trace set, as
// `xemem-bench -experiment all` does: every world of the first must
// export before any world of the second, in run order.
func TestTraceOrderFollowsRunOrder(t *testing.T) {
	s, err := traced(func() error {
		if _, err := Fig7(11); err != nil {
			return err
		}
		_, err := Table2(11, 1, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fig7/4KB", "fig7/2MB", "fig7/1GB",
		"table2/kitten-to-linux", "table2/kitten-to-vm", "table2/vm-to-kitten"}
	var got []string
	for _, d := range s.Digests() {
		got = append(got, d.Label)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("trace order %q, want %q", got, want)
	}
}

// TestFig6Explain is the acceptance criterion: the exported core-0
// funnel wait and coherence metrics must quantitatively explain the
// Figure 6 1→2 enclave latency growth (sum of components ≈ delta).
func TestFig6Explain(t *testing.T) {
	e, err := Fig6Explain(1, 1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e.ObservedDeltaNs <= 0 {
		t.Fatalf("no 1→2 dip observed: %+v", e)
	}
	// The dip must be dominated by contention that only exists with a
	// second enclave: coherence on the shared mm and funnel queueing.
	if e.Coherence2Ns <= e.Coherence1Ns {
		t.Errorf("coherence did not grow: %v → %v", e.Coherence1Ns, e.Coherence2Ns)
	}
	cov := e.Coverage()
	if math.Abs(cov-1) > 0.2 {
		t.Errorf("metrics explain %.1f%% of the dip, want 100±20%%\n%s", 100*cov, e)
	}
}
