package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
)

// TestBenchRegistry holds the -bench table and the checked-in artifacts
// in step: entry names are unique, every entry's BENCH file is checked
// in at the repo root, and every root BENCH file has an entry that
// regenerates it (a leftover from a retired benchmark fails here).
func TestBenchRegistry(t *testing.T) {
	root := filepath.Join("..", "..")
	entries := map[string]bool{}
	for _, b := range benches {
		if entries[b.file()] {
			t.Errorf("duplicate bench entry %q", b.name)
		}
		entries[b.file()] = true
		if _, err := os.Stat(filepath.Join(root, b.file())); err != nil {
			t.Errorf("bench %q: %v", b.name, err)
		}
	}
	files, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !entries[filepath.Base(f)] {
			t.Errorf("%s has no -bench entry that regenerates it", filepath.Base(f))
		}
	}
}

// TestSelectBenches checks -bench name resolution: all runs the whole
// table in order, a name runs its one entry, anything else is rejected.
func TestSelectBenches(t *testing.T) {
	all, err := selectBenches("all")
	if err != nil || len(all) != len(benches) {
		t.Fatalf("selectBenches(all) = %d entries, %v; want %d", len(all), err, len(benches))
	}
	for i, b := range all {
		if b.name != benches[i].name {
			t.Fatalf("selectBenches(all)[%d] = %q, want table order %q", i, b.name, benches[i].name)
		}
	}
	one, err := selectBenches("fault")
	if err != nil || len(one) != 1 || one[0].name != "fault" {
		t.Fatalf("selectBenches(fault) = %v, %v", one, err)
	}
	for _, name := range []string{"sweep", "json", "ALL", "fault,coll"} {
		if _, err := selectBenches(name); err == nil {
			t.Errorf("selectBenches(%q) accepted an unknown bench", name)
		}
	}
}

// TestBenchValues regenerates the virtual-time BENCH files — fault,
// cluster and coll — at the `make bench` seed and checks them against
// the checked-in copies, so a change that moves a quoted simulated number
// must regenerate its file in the same change. The host header is the
// only part that may differ between machines, so it is dropped from both.
func TestBenchValues(t *testing.T) {
	for _, name := range []string{"fault", "cluster", "coll"} {
		sel, err := selectBenches(name)
		if err != nil {
			t.Fatal(err)
		}
		b := sel[0]
		res, err := b.run(42, runtime.GOMAXPROCS(0))
		if err != nil {
			t.Fatalf("%s bench: %v", name, err)
		}
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(filepath.Join("..", "..", b.file()))
		if err != nil {
			t.Fatal(err)
		}
		if d := firstDiff("", withoutHost(t, file), withoutHost(t, buf)); d != "" {
			t.Errorf("%s differs from its regeneration at seed 42 at %s; rerun `make bench`", b.file(), d)
		}
	}
}

// withoutHost decodes a BENCH document, keeping numbers as their literal
// text, and drops its top-level host key.
func withoutHost(t *testing.T, buf []byte) any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatal(err)
	}
	if m, ok := v.(map[string]any); ok {
		delete(m, "host")
	}
	return v
}

// firstDiff names the first key path, in sorted key order, at which two
// decoded JSON documents differ, with both values; "" when they agree.
func firstDiff(path string, want, got any) string {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			break
		}
		keys := make([]string, 0, len(w)+len(g))
		for k := range w {
			keys = append(keys, k)
		}
		for k := range g {
			if _, ok := w[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			if d := firstDiff(path+"."+k, w[k], g[k]); d != "" {
				return d
			}
		}
		return ""
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			break
		}
		for i := range w {
			if d := firstDiff(fmt.Sprintf("%s[%d]", path, i), w[i], g[i]); d != "" {
				return d
			}
		}
		return ""
	default:
		if want == got {
			return ""
		}
	}
	return fmt.Sprintf("%s (file %s, regenerated %s)", path, compact(want), compact(got))
}

// compact renders a decoded JSON value on one line, cut to 80 bytes.
func compact(v any) string {
	buf, _ := json.Marshal(v)
	if len(buf) > 80 {
		return string(buf[:77]) + "..."
	}
	return string(buf)
}
