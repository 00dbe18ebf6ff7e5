// Package zone holds the audit cases for the maporder fixture: outside
// a trace package, a world-end audit is in scope by name, because the
// first violation it reports must be the same on every run.
package zone

import (
	"fmt"
	"sort"
)

// Zone is a fixture container with map-shaped state.
type Zone struct {
	frames map[uint64]uint64
}

// Audit ranges straight over a map and returns at the first bad entry:
// which one it names depends on iteration order, so it is flagged.
func (z *Zone) Audit() error {
	for f, v := range z.frames {
		if v == 0 {
			return fmt.Errorf("frame %d is empty", f)
		}
	}
	return nil
}

// auditSorted checks the same entries in frame order: silent.
func (z *Zone) auditSorted() error {
	keys := make([]uint64, 0, len(z.frames))
	for f := range z.frames {
		keys = append(keys, f)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, f := range keys {
		if z.frames[f] == 0 {
			return fmt.Errorf("frame %d is empty", f)
		}
	}
	return nil
}
