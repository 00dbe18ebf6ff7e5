package experiments

import "fmt"

// Figure is one artifact of the paper's evaluation: its name, the
// repetition count the paper reports (Full) and the reduced count of a
// -fast run (Fast). Run regenerates it at a repetition count; Fig. 7
// takes none, so its counts are zero and Run ignores the argument.
type Figure struct {
	Name       string
	Full, Fast int
	Run        func(seed uint64, reps int) (fmt.Stringer, error)
}

// Figures is the evaluation, in the order `xemem-bench -experiment all`
// prints it and the engine benchmark times it.
var Figures = []Figure{
	{"fig5", 500, 50, func(seed uint64, reps int) (fmt.Stringer, error) { return Fig5(seed, reps) }},
	{"fig6", 500, 50, func(seed uint64, reps int) (fmt.Stringer, error) { return Fig6(seed, reps) }},
	{"table2", 20, 5, func(seed uint64, reps int) (fmt.Stringer, error) { return Table2(seed, reps, 0) }},
	{"fig7", 0, 0, func(seed uint64, _ int) (fmt.Stringer, error) { return Fig7(seed) }},
	{"fig8", 10, 3, func(seed uint64, runs int) (fmt.Stringer, error) { return Fig8(seed, runs) }},
	{"fig9", 5, 3, func(seed uint64, runs int) (fmt.Stringer, error) { return Fig9(seed, runs) }},
}
