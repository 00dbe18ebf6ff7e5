package experiments

import "fmt"

// Artifact is one regenerable result: a table or figure of the paper's
// evaluation or a sweep beyond it, printed by `xemem-bench -experiment`
// and checked in as BENCH_<Name>.json by `xemem-bench -bench`. Full is
// the repetition count the artifact is reported and checked in at, Fast
// the reduced count of an `-experiment -fast` run and of its tier-1
// test. Run regenerates the artifact at a count; an entry that takes
// none has zero counts and Run ignores the argument.
type Artifact struct {
	Name       string
	Full, Fast int
	Run        func(seed uint64, n int) (fmt.Stringer, error)
}

// Artifacts is the one artifact table, in the order `xemem-bench
// -experiment all` prints the artifacts and `-bench all` writes their
// BENCH files: the paper's tables first, then the sweeps beyond it.
func Artifacts() []Artifact {
	return []Artifact{
		{"fig5", 500, 50, func(seed uint64, reps int) (fmt.Stringer, error) { return Fig5(seed, reps) }},
		{"fig6", 500, 50, func(seed uint64, reps int) (fmt.Stringer, error) { return Fig6(seed, reps) }},
		{"table2", 20, 5, func(seed uint64, reps int) (fmt.Stringer, error) { return Table2(seed, reps, 0) }},
		{"fig7", 0, 0, func(seed uint64, _ int) (fmt.Stringer, error) { return Fig7(seed) }},
		{"fig8", 10, 3, func(seed uint64, runs int) (fmt.Stringer, error) { return Fig8(seed, runs) }},
		{"fig9", 5, 3, func(seed uint64, runs int) (fmt.Stringer, error) { return Fig9(seed, runs) }},
		{"fault", 40, 12, func(seed uint64, rounds int) (fmt.Stringer, error) { return FaultSweep(seed, rounds) }},
		// The cluster test checks a tail-latency ratio, which needs the
		// full steady-state sample, so its fast count is the full one.
		{"cluster", 120, 120, func(seed uint64, rounds int) (fmt.Stringer, error) { return ClusterSweep(seed, rounds) }},
		{"coll", 0, 0, func(seed uint64, _ int) (fmt.Stringer, error) { return CollSweep(seed) }},
	}
}
