package experiments

import (
	"errors"
	"fmt"
	"strings"

	"xemem/internal/sim"
)

// Cell is one world of an artifact: its label (the name it has in
// -trace, -metrics, the goldens and repro bundles, e.g.
// "fig6/enclaves=2/size=128MB"), the seed its world is created with,
// and build, which builds the world, runs it and records the cell's
// result where its grid's fold reads it.
type Cell struct {
	Label string
	Seed  uint64
	build func(w *sim.World) error
}

// runCell creates the cell's world, announces it to obs (nil for none),
// then builds and runs it. An error names the cell.
func runCell(obs observeFn, c Cell) error {
	w := sim.NewWorld(c.Seed)
	if obs != nil {
		obs(c.Label, w)
	}
	if err := c.build(w); err != nil {
		return fmt.Errorf("%s: %w", c.Label, err)
	}
	return nil
}

// Grid is an artifact's worlds at one seed and count: its cells, run in
// order, and the fold that turns what they recorded into the result.
type Grid[R any] struct {
	Cells []Cell
	Fold  func() R
}

// Run runs every cell, each announced to obs (nil for none), and
// returns the fold.
func (g Grid[R]) Run(obs func(label string, w *sim.World)) (R, error) {
	for _, c := range g.Cells {
		if err := runCell(obs, c); err != nil {
			var zero R
			return zero, err
		}
	}
	return g.Fold(), nil
}

// Artifact is one regenerable result: a table or figure of the paper's
// evaluation or a sweep beyond it, printed by `xemem-bench -experiment`
// and checked in as BENCH_<Name>.json by `xemem-bench -bench`. Full is
// the repetition count the artifact is reported and checked in at, Fast
// the reduced count of an `-experiment -fast` run and of its tier-1
// test. Grid lists the artifact's worlds at a seed and count; an entry
// that takes no count has zero counts and Grid ignores the argument.
type Artifact struct {
	Name       string
	Full, Fast int
	Grid       func(seed uint64, n int) Grid[fmt.Stringer]
}

// entry makes an artifact table entry of a typed grid.
func entry[R fmt.Stringer](name string, full, fast int, grid func(seed uint64, n int) Grid[R]) Artifact {
	return Artifact{name, full, fast, func(seed uint64, n int) Grid[fmt.Stringer] {
		g := grid(seed, n)
		return Grid[fmt.Stringer]{g.Cells, func() fmt.Stringer { return g.Fold() }}
	}}
}

// Artifacts is the one artifact table, in the order `xemem-bench
// -experiment all` prints the artifacts and `-bench all` writes their
// BENCH files: the paper's tables first, then the sweeps beyond it.
func Artifacts() []Artifact {
	return []Artifact{
		entry("fig5", 500, 50, fig5Grid),
		entry("fig6", 500, 50, fig6Grid),
		entry("table2", 20, 5, table2Grid),
		entry("fig7", 0, 0, fig7Grid),
		entry("fig8", 10, 3, fig8Grid),
		entry("fig9", 5, 3, fig9Grid),
		entry("fault", 40, 12, faultGrid),
		// The cluster test checks a tail-latency ratio, which needs the
		// full steady-state sample, so its fast count is the full one.
		entry("cluster", 120, 120, clusterGrid),
		entry("coll", 0, 0, collGrid),
	}
}

// ErrNoCell is the error for a label that names no cell of its
// artifact at the requested seed and count.
var ErrNoCell = errors.New("no such cell")

// cellNamed finds the cell labelled label among the cells of the
// artifact its first path element names, at seed and count n.
func cellNamed(label string, seed uint64, n int) (Cell, error) {
	name, _, _ := strings.Cut(label, "/")
	for _, a := range Artifacts() {
		if a.Name != name {
			continue
		}
		for _, c := range a.Grid(seed, n).Cells {
			if c.Label == label {
				return c, nil
			}
		}
	}
	return Cell{}, fmt.Errorf("%w %q at count %d", ErrNoCell, label, n)
}
