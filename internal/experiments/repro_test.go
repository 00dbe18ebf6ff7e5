package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xemem/internal/sim"
	"xemem/internal/sim/trace"
)

// TestReplayBundle replays every checked-in repro bundle: the bundles
// under testdata/repro pin window and end-of-run trace digests that
// every commit must reproduce bit-exactly, with a clean world-end
// audit — the CI `make replay` step runs the same verification through
// the xemem-bench CLI.
func TestReplayBundle(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "repro", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no repro bundles under testdata/repro")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			b, err := LoadBundle(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := RunBundle(b); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReplayBundleDetectsDrift corrupts one fingerprint of a freshly
// captured bundle at a time: an early window, a late window, and the
// end-of-run digest. A replay must fail, naming the corrupted window —
// with its spans — or the stretch after the last window.
func TestReplayBundleDetectsDrift(t *testing.T) {
	b, err := CaptureBundle("fig6point", json.RawMessage(`{"size_mb":128,"reps":2}`), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Windows) != bundleWindows {
		t.Fatalf("bundle pins %d windows, want %d", len(b.Windows), bundleWindows)
	}
	if err := RunBundle(b); err != nil {
		t.Fatalf("pristine bundle failed to replay: %v", err)
	}

	for _, k := range []int{2, bundleWindows - 3} {
		tampered := *b
		tampered.Windows = append([]string(nil), b.Windows...)
		tampered.Windows[k] = strings.Repeat("0", 64)
		err := RunBundle(&tampered)
		want := fmt.Sprintf("window %d of %d ", k, bundleWindows)
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "spans in it: ") {
			t.Errorf("window %d corrupted: replay error %v, want it to name %q and its spans", k, err, want)
		}
	}

	tampered := *b
	tampered.Digest.Dispatches++
	if err := RunBundle(&tampered); err == nil || !strings.Contains(err.Error(), "after the last window") {
		t.Errorf("final digest corrupted: replay error %v, want \"after the last window\"", err)
	}
}

// TestWindowSeesDispatches feeds two window tracers identical events
// but one extra event-free dispatch before window 2 ends: windows 0 and
// 1 must match and window 2 must differ, so a drift in the schedule
// alone is named in the window where it happens.
func TestWindowSeesDispatches(t *testing.T) {
	run := func(extra int) []string {
		o := &windowTracer{Tracer: trace.NewTracer("w"), ends: windowEnds(4, 100)}
		for _, at := range []sim.Time{10, 120, 230, 250, 330} {
			o.Dispatch(nil, at)
			o.Span(nil, "op", at, 5)
			if at == 230 {
				for i := 0; i < extra; i++ {
					o.Dispatch(nil, at) // a poll tick that charges nothing
				}
			}
		}
		for len(o.sums) < len(o.ends) {
			o.close()
		}
		return o.sums
	}
	a, b := run(0), run(1)
	for k := 0; k < 2; k++ {
		if a[k] != b[k] {
			t.Errorf("window %d differs before the extra dispatch: %s vs %s", k, a[k], b[k])
		}
	}
	if a[2] == b[2] {
		t.Errorf("window 2 is %s in both runs: the extra dispatch went unseen", a[2])
	}
}

// parentFaultBundle is testdata/repro/fault.json in the format before
// windowed bundles: a state hash at one mid-run cut.
const parentFaultBundle = `{
  "recipe": "fault",
  "params": {"drop": 0.05, "crash": true, "rounds": 10},
  "seed": 11,
  "cut_ns": 251910,
  "snapshot_sha256": "7beea2d7c8b52f6055454034ab1251535035fadc90aea4d31e005a1ab73b337d",
  "digest": {
    "label": "fault/drop=0.05/crash=true",
    "spans": 45, "acquires": 14, "queue_waits": 6, "counts": 2, "dispatches": 318,
    "span_time_ns": 55786, "wait_time_ns": 6476, "final_ns": 503820,
    "sha256": "d3f526125f19d16c6c5d3f59c91f91f44e9fe568cbab2d094a93207e4d54d246"
  }
}`

// TestLoadBundleStrict feeds LoadBundle files it must refuse: the
// fault bundle in its old state-hash format (which a lenient decoder
// would accept and verify by its final digest alone), a bundle naming
// no recipe, and one pinning no windows.
func TestLoadBundleStrict(t *testing.T) {
	dir := t.TempDir()
	for name, tc := range map[string]struct{ body, want string }{
		"old format": {parentFaultBundle, `unknown field "cut_ns"`},
		"no recipe":  {`{"seed": 1, "window_ns": 5, "windows": ["x"]}`, "names no recipe"},
		"no windows": {`{"recipe": "fault", "seed": 1}`, "pins no windows"},
	} {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-")+".json")
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadBundle(path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: LoadBundle error %v, want %q", name, err, tc.want)
		}
	}
}
