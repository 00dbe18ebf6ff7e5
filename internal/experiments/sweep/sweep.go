// Package sweep runs independent simulation cells across host cores.
//
// A cell is one (figure, configuration, repetition) point of an
// experiment sweep: it constructs its own sim.World from a fixed seed,
// runs it to completion, and returns that world's result. Because each
// world is a closed virtual-time universe — its own RNG streams, memory,
// actors, and trace digest — cells share no mutable state and can execute
// on any host goroutine without affecting simulated results. Run
// therefore fans cells out over a worker pool and merges results back in
// enumeration order: the output is byte-identical at any worker count,
// and workers=1 executes the cells strictly sequentially, reproducing
// the original serial runner exactly.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Cell is one independently runnable point of a sweep. Run must not
// touch state shared with other cells; the label names the cell in
// error messages.
type Cell[T any] struct {
	Label string
	Run   func() (T, error)
}

// Workers normalizes a worker-count flag: values <= 0 select one worker
// per host core (runtime.GOMAXPROCS(0)).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Run executes every cell and returns their results in cell order,
// regardless of completion order. workers <= 0 selects GOMAXPROCS;
// workers == 1 runs the cells sequentially in order on the calling
// goroutine. On failure the error of the lowest-indexed failing cell is
// returned (the same one a sequential run would hit first), wrapped
// with its label; cells not yet started when a failure is observed are
// skipped, and their results are the zero value.
func Run[T any](cells []Cell[T], workers int) ([]T, error) {
	workers = Workers(workers)
	if workers > len(cells) {
		workers = len(cells)
	}
	results := make([]T, len(cells))
	errs := make([]error, len(cells))

	if workers <= 1 {
		for i, c := range cells {
			results[i], errs[i] = c.Run()
			if errs[i] != nil {
				break
			}
		}
		return results, firstError(cells, errs)
	}

	var next atomic.Int64
	next.Store(-1)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(cells) || failed.Load() {
					return
				}
				results[i], errs[i] = cells[i].Run()
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return results, firstError(cells, errs)
}

// firstError reports the lowest-indexed cell failure, or nil.
func firstError[T any](cells []Cell[T], errs []error) error {
	for i, err := range errs {
		if err != nil {
			if cells[i].Label != "" {
				return fmt.Errorf("%s: %w", cells[i].Label, err)
			}
			return err
		}
	}
	return nil
}
