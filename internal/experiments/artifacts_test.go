package experiments

import (
	"errors"
	"strings"
	"testing"
)

// TestCellLabels holds every artifact's cells at its fast count to the
// naming a bundle relies on: labels are unique, so a label names one
// world, and each begins with its artifact's name, which is how
// cellNamed finds the artifact. A label no artifact lists is ErrNoCell.
func TestCellLabels(t *testing.T) {
	for _, a := range Artifacts() {
		cells := a.Grid(42, a.Fast).Cells
		if len(cells) == 0 {
			t.Errorf("%s lists no cells", a.Name)
		}
		seen := map[string]bool{}
		for _, c := range cells {
			if c.Label != a.Name && !strings.HasPrefix(c.Label, a.Name+"/") {
				t.Errorf("%s cell %q does not begin with the artifact's name", a.Name, c.Label)
			}
			if seen[c.Label] {
				t.Errorf("%s lists cell %q twice", a.Name, c.Label)
			}
			seen[c.Label] = true
		}
	}
	for _, label := range []string{"", "fig6", "fig6/enclaves=3/size=128MB", "fig10/x", "fig8/Kitten/Linux/sync=true/recurring=false/seed=1"} {
		if _, err := cellNamed(label, 42, 3); !errors.Is(err, ErrNoCell) {
			t.Errorf("cellNamed(%q) = %v, want ErrNoCell", label, err)
		}
	}
}
