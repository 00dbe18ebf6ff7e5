package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestReplayBundle replays every checked-in repro bundle: the bundles
// under testdata/repro pin (snapshot hash, trace digest) pairs that
// every commit must reproduce bit-exactly — the CI `make replay` step
// runs the same verification through the xemem-bench CLI.
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
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var b Bundle
			if err := json.Unmarshal(buf, &b); err != nil {
				t.Fatal(err)
			}
			if err := RunBundle(&b); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReplayBundleDetectsDrift corrupts each fingerprint of a freshly
// captured bundle: a replay must fail loudly when either the mid-run
// snapshot hash or the end-of-run digest no longer matches.
func TestReplayBundleDetectsDrift(t *testing.T) {
	b, err := CaptureBundle("fig6point", json.RawMessage(`{"size_mb":128,"reps":2}`), 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunBundle(b); err != nil {
		t.Fatalf("pristine bundle failed to replay: %v", err)
	}

	tampered := *b
	tampered.SnapshotSHA256 = "0000000000000000000000000000000000000000000000000000000000000000"
	if err := RunBundle(&tampered); err == nil {
		t.Error("replay accepted a bundle with a corrupted snapshot hash")
	}

	tampered = *b
	tampered.Digest.Dispatches++
	if err := RunBundle(&tampered); err == nil {
		t.Error("replay accepted a bundle with a corrupted trace digest")
	}
}
