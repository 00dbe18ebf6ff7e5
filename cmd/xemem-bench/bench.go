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

// benchNames lists the registry's entry names, comma-separated.
func benchNames() string {
	names := make([]string, len(benches))
	for i, b := range benches {
		names[i] = b.name
	}
	return strings.Join(names, ", ")
}

// selectBenches resolves a -bench value to the entries it runs.
func selectBenches(name string) ([]bench, error) {
	if name == "all" {
		return benches, nil
	}
	for _, b := range benches {
		if b.name == name {
			return []bench{b}, nil
		}
	}
	return nil, fmt.Errorf("unknown bench %q (want one of %s, all)", name, benchNames())
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
