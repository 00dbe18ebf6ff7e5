package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"xemem/internal/experiments"
)

// names lists the -bench entries of the artifact table (bench) or its
// -experiment entries, comma-separated in table order.
func names(bench bool) string {
	var s []string
	for _, a := range experiments.Artifacts() {
		if a.Bench == bench {
			s = append(s, a.Name)
		}
	}
	return strings.Join(s, ", ")
}

// selectNamed resolves a -bench (bench) or -experiment value against the
// artifact table's entries of that kind: all is every one in table
// order, a name is its one entry, anything else is an unknown kind.
func selectNamed(want string, bench bool) ([]experiments.Artifact, error) {
	var sel []experiments.Artifact
	for _, a := range experiments.Artifacts() {
		if a.Bench == bench && (want == "all" || want == a.Name) {
			sel = append(sel, a)
		}
	}
	if len(sel) > 0 {
		return sel, nil
	}
	kind := "experiment"
	if bench {
		kind = "bench"
	}
	return nil, fmt.Errorf("unknown %s %q (want one of %s, all)", kind, want, names(bench))
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
