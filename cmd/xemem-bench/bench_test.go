package main

import (
	"os"
	"path/filepath"
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
