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

// artifactNames lists the artifact table's names by kind: false for
// -experiment entries, true for -bench entries, each in table order.
func artifactNames() map[bool][]string {
	kinds := map[bool][]string{}
	for _, a := range experiments.Artifacts() {
		kinds[a.Bench] = append(kinds[a.Bench], a.Name)
	}
	return kinds
}

// TestBenchRegistry holds the -bench entries of the artifact table and
// the checked-in BENCH files in step: every entry's BENCH file is
// checked in at the repo root, and every root BENCH file has an entry
// that regenerates it (a leftover from a retired benchmark fails here).
func TestBenchRegistry(t *testing.T) {
	root := filepath.Join("..", "..")
	benchNames := artifactNames()[true]
	for _, name := range benchNames {
		if _, err := os.Stat(filepath.Join(root, "BENCH_"+name+".json")); err != nil {
			t.Errorf("bench %q: %v", name, err)
		}
	}
	files, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "BENCH_"), ".json"); !slices.Contains(benchNames, name) {
			t.Errorf("%s has no -bench entry that regenerates it", filepath.Base(f))
		}
	}
}

// TestFigureTable checks the artifact table: names are unique across
// both kinds, a fast count never exceeds the full one, and only the
// entries that take no count have zero counts.
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

// TestSelectBenches checks name resolution for -experiment and -bench
// alike: all resolves that kind's entries in table order, a name its one
// entry, and anything else, the other kind's names included, is
// rejected. engine, a retired BENCH entry, is unknown to both kinds.
func TestSelectBenches(t *testing.T) {
	kinds := artifactNames()
	unknown := map[bool][]string{
		false: {"sweep", "ALL", "fig5,fig6", "fig10", "engine"},
		true:  {"sweep", "json", "ALL", "fault,coll", "fig5", "engine"},
	}
	for _, bench := range []bool{false, true} {
		table := kinds[bench]
		all, err := selectNamed("all", bench)
		if err != nil || len(all) != len(table) {
			t.Fatalf("bench=%v all = %d entries, %v; want %d", bench, len(all), err, len(table))
		}
		for i, name := range table {
			if all[i].Name != name {
				t.Fatalf("bench=%v all[%d] = %q, want table order %q", bench, i, all[i].Name, name)
			}
			one, err := selectNamed(name, bench)
			if err != nil || len(one) != 1 || one[0].Name != name {
				t.Fatalf("bench=%v %q = %d entries, %v", bench, name, len(one), err)
			}
		}
		for _, name := range unknown[bench] {
			if _, err := selectNamed(name, bench); err == nil {
				t.Errorf("bench=%v %q accepted an unknown name", bench, name)
			}
		}
	}
}

// TestBenchValues regenerates every BENCH file at the `make bench` seed
// and checks it byte for byte against the checked-in copy, so a change
// that moves a quoted simulated number must regenerate its file in the
// same change. A mismatch is named by its first differing key path.
func TestBenchValues(t *testing.T) {
	for _, a := range experiments.Artifacts() {
		if !a.Bench {
			continue
		}
		res, err := a.Run(42, a.Full)
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
