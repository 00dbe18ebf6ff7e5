package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"xemem/internal/experiments"
)

// bench is one -bench registry entry: run produces the result that
// -bench writes to the entry's file.
type bench struct {
	name string
	run  func(seed uint64) (fmt.Stringer, error)
}

// file is the artifact the entry regenerates, BENCH_<name>.json.
func (b bench) file() string { return "BENCH_" + b.name + ".json" }

// benches is the -bench registry, in the order -bench all runs it.
var benches = []bench{
	{"engine", func(seed uint64) (fmt.Stringer, error) { return experiments.EngineBench(seed) }},
	{"fault", func(seed uint64) (fmt.Stringer, error) { return experiments.FaultSweep(seed, 0) }},
	{"cluster", func(seed uint64) (fmt.Stringer, error) { return experiments.ClusterSweep(seed, 0) }},
	{"coll", func(seed uint64) (fmt.Stringer, error) { return experiments.CollSweep(seed) }},
}

// nameOfBench and nameOfFigure key the -bench and -experiment tables.
func nameOfBench(b bench) string               { return b.name }
func nameOfFigure(f experiments.Figure) string { return f.Name }

// names lists a table's entry names, comma-separated.
func names[T any](table []T, name func(T) string) string {
	s := make([]string, len(table))
	for i, e := range table {
		s[i] = name(e)
	}
	return strings.Join(s, ", ")
}

// selectNamed resolves a -bench or -experiment value against its table:
// all is every entry in table order, a name is its one entry, anything
// else is an unknown kind.
func selectNamed[T any](kind, want string, table []T, name func(T) string) ([]T, error) {
	if want == "all" {
		return table, nil
	}
	for _, e := range table {
		if name(e) == want {
			return []T{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown %s %q (want one of %s, all)", kind, want, names(table, name))
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
