package experiments

import "fmt"

// Artifact is one regenerable result: a table or figure of the paper's
// evaluation, or a BENCH_<Name>.json file when Bench is set. Full is
// the repetition count the artifact is reported at, Fast the reduced
// count of an `xemem-bench -experiment -fast` run and of a BENCH
// entry's tier-1 test. Run regenerates the artifact at a count; an
// entry that takes none has zero counts and Run ignores the argument.
type Artifact struct {
	Name       string
	Full, Fast int
	Run        func(seed uint64, n int) (fmt.Stringer, error)
	Bench      bool
}

// Artifacts is the one artifact table, in the order `xemem-bench
// -experiment all` prints the figures, `-bench all` writes the BENCH
// files and the engine benchmark times the figures. It is a function
// because the engine entry times the table's figures: as a package
// variable the table would initialize through itself.
func Artifacts() []Artifact {
	return []Artifact{
		{"fig5", 500, 50, func(seed uint64, reps int) (fmt.Stringer, error) { return Fig5(seed, reps) }, false},
		{"fig6", 500, 50, func(seed uint64, reps int) (fmt.Stringer, error) { return Fig6(seed, reps) }, false},
		{"table2", 20, 5, func(seed uint64, reps int) (fmt.Stringer, error) { return Table2(seed, reps, 0) }, false},
		{"fig7", 0, 0, func(seed uint64, _ int) (fmt.Stringer, error) { return Fig7(seed) }, false},
		{"fig8", 10, 3, func(seed uint64, runs int) (fmt.Stringer, error) { return Fig8(seed, runs) }, false},
		{"fig9", 5, 3, func(seed uint64, runs int) (fmt.Stringer, error) { return Fig9(seed, runs) }, false},
		{"engine", 0, 0, func(seed uint64, _ int) (fmt.Stringer, error) { return EngineBench(seed) }, true},
		{"fault", 40, 12, func(seed uint64, rounds int) (fmt.Stringer, error) { return FaultSweep(seed, rounds) }, true},
		// The cluster test checks a tail-latency ratio, which needs the
		// full steady-state sample, so its fast count is the full one.
		{"cluster", 120, 120, func(seed uint64, rounds int) (fmt.Stringer, error) { return ClusterSweep(seed, rounds) }, true},
		{"coll", 0, 0, func(seed uint64, _ int) (fmt.Stringer, error) { return CollSweep(seed) }, true},
	}
}
