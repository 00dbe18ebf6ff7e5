package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"xemem/internal/experiments"
)

// artifactNames lists the artifact table's names in table order.
func artifactNames() []string {
	var names []string
	for _, a := range experiments.Artifacts() {
		names = append(names, a.Name)
	}
	return names
}

// TestBenchRegistry holds the artifact table and the checked-in BENCH
// files in step: every entry's BENCH file is checked in at the repo
// root, and every root BENCH file has an entry that regenerates it (a
// leftover from a retired artifact fails here).
func TestBenchRegistry(t *testing.T) {
	root := filepath.Join("..", "..")
	names := artifactNames()
	for _, name := range names {
		if _, err := os.Stat(filepath.Join(root, "BENCH_"+name+".json")); err != nil {
			t.Errorf("artifact %q: %v", name, err)
		}
	}
	files, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "BENCH_"), ".json"); !slices.Contains(names, name) {
			t.Errorf("%s has no artifact entry that regenerates it", filepath.Base(f))
		}
	}
}

// TestFigureTable checks the artifact table: names are unique, a fast
// count never exceeds the full one, and only the entries that take no
// count have zero counts.
func TestFigureTable(t *testing.T) {
	countless := map[string]bool{"fig7": true, "coll": true}
	seen := map[string]bool{}
	for _, a := range experiments.Artifacts() {
		if seen[a.Name] {
			t.Errorf("duplicate artifact entry %q", a.Name)
		}
		seen[a.Name] = true
		if a.Fast > a.Full {
			t.Errorf("artifact %q: fast count %d exceeds full count %d", a.Name, a.Fast, a.Full)
		}
		if zero := a.Full == 0 && a.Fast == 0; zero != countless[a.Name] {
			t.Errorf("artifact %q: counts %d/%d; only %v take none", a.Name, a.Full, a.Fast, countless)
		}
	}
}

// TestSelectBenches checks the name resolution -experiment and -bench
// share: all resolves every entry in table order, a name its one entry,
// and anything else is rejected. engine, a retired BENCH entry, is
// unknown.
func TestSelectBenches(t *testing.T) {
	table := artifactNames()
	all, err := selectNamed("all")
	if err != nil || len(all) != len(table) {
		t.Fatalf("all = %d entries, %v; want %d", len(all), err, len(table))
	}
	for i, name := range table {
		if all[i].Name != name {
			t.Fatalf("all[%d] = %q, want table order %q", i, all[i].Name, name)
		}
		one, err := selectNamed(name)
		if err != nil || len(one) != 1 || one[0].Name != name {
			t.Fatalf("%q = %d entries, %v", name, len(one), err)
		}
	}
	for _, name := range []string{"sweep", "json", "ALL", "fig5,fig6", "fault,coll", "fig10", "engine"} {
		if _, err := selectNamed(name); err == nil {
			t.Errorf("%q accepted an unknown name", name)
		}
	}
}

// TestStrayFlag checks the mode resolution over explicitly set flags (in
// flag.Visit's lexical order): -replay beats -repro beats -bench, the
// default is -experiment, and a set flag the mode does not read is named.
func TestStrayFlag(t *testing.T) {
	for _, tc := range []struct {
		set         []string
		mode, stray string
	}{
		{nil, "experiment", ""},
		{[]string{"fast", "metrics", "seed", "trace"}, "experiment", ""},
		{[]string{"cell", "experiment", "fast"}, "experiment", "cell"},
		{[]string{"bench", "metrics", "seed", "trace"}, "bench", ""},
		{[]string{"bench", "fast"}, "bench", "fast"},
		{[]string{"bench", "experiment"}, "bench", "experiment"},
		{[]string{"cell", "fast", "repro", "seed"}, "repro", ""},
		{[]string{"cell", "metrics", "repro"}, "repro", "metrics"},
		{[]string{"replay"}, "replay", ""},
		{[]string{"fast", "replay", "seed"}, "replay", "fast"},
		{[]string{"bench", "replay"}, "replay", "bench"},
	} {
		m, stray := strayFlag(tc.set)
		if m.name != tc.mode || stray != tc.stray {
			t.Errorf("%v: mode %q stray %q, want %q %q", tc.set, m.name, stray, tc.mode, tc.stray)
		}
	}
}

// TestBenchValues regenerates every BENCH file at the `make bench` seed
// and checks it byte for byte against the checked-in copy, so a change
// that moves a quoted simulated number must regenerate its file in the
// same change. A mismatch is named by its first differing key path.
func TestBenchValues(t *testing.T) {
	for _, a := range experiments.Artifacts() {
		res, err := a.Grid(42, a.Full).Run(nil)
		if err != nil {
			t.Fatalf("%s bench: %v", a.Name, err)
		}
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		file := "BENCH_" + a.Name + ".json"
		want, err := os.ReadFile(filepath.Join("..", "..", file))
		if err != nil {
			t.Fatal(err)
		}
		if buf = append(buf, '\n'); !bytes.Equal(want, buf) {
			d := firstDiff("", decode(t, want), decode(t, buf))
			if d == "" {
				d = "its formatting only"
			}
			t.Errorf("%s differs from its regeneration at seed 42 at %s; rerun `make bench`", file, d)
		}
	}
}

// decode decodes a BENCH document, keeping numbers as their literal
// text.
func decode(t *testing.T, buf []byte) any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatal(err)
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
