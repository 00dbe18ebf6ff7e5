package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"

	"xemem/internal/experiments"
)

// names lists the artifact table's names, comma-separated in table
// order.
func names() string {
	var s []string
	for _, a := range experiments.Artifacts() {
		s = append(s, a.Name)
	}
	return strings.Join(s, ", ")
}

// selectNamed resolves a -bench or -experiment value against the
// artifact table: all is every entry in table order, a name is its one
// entry, anything else is unknown.
func selectNamed(want string) ([]experiments.Artifact, error) {
	var sel []experiments.Artifact
	for _, a := range experiments.Artifacts() {
		if want == "all" || want == a.Name {
			sel = append(sel, a)
		}
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("unknown artifact %q (want one of %s, all)", want, names())
	}
	return sel, nil
}

// mode is one way of running xemem-bench: the flag that selects it and
// every flag it reads.
type mode struct {
	name  string
	reads []string
}

// modes lists the modes in precedence order. A bundle fixes its own
// cell, count and seed, and its digest probe takes the place of the
// trace set's observer; a BENCH file is always at full counts.
var modes = []mode{
	{"replay", []string{"replay"}},
	{"repro", []string{"repro", "cell", "fast", "seed"}},
	{"bench", []string{"bench", "seed", "trace", "metrics"}},
	{"experiment", []string{"experiment", "seed", "fast", "trace", "metrics"}},
}

// strayFlag resolves the explicitly set flags to a mode, the first in
// modes whose selecting flag is set (else experiment), and returns it
// with the first set flag it does not read, or "" when there is none.
func strayFlag(set []string) (mode, string) {
	m := modes[len(modes)-1]
	for _, c := range modes {
		if slices.Contains(set, c.name) {
			m = c
			break
		}
	}
	for _, f := range set {
		if !slices.Contains(m.reads, f) {
			return m, f
		}
	}
	return m, ""
}

// writeJSON writes v to path as indented JSON with a trailing newline:
// the one format of every BENCH file and repro bundle.
func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
