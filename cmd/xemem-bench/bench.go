package main

import (
	"encoding/json"
	"fmt"
	"os"
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

// writeJSON writes v to path as indented JSON with a trailing newline:
// the one format of every BENCH file and repro bundle.
func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
