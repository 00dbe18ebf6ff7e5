package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xemem/internal/experiments"
)

// TestExperimentsQuoteTable2 checks EXPERIMENTS.md's Table 2 against the
// checked-in BENCH_table2.json: each row's "Regenerated GB/s" cell reads
// the file's GBs at 3 decimals and, where the file has one, its
// NoRBTreeGBs at 2, and the table has a row for every row of the file
// and no other. It reads files only; TestBenchValues holds the file to
// the code.
func TestExperimentsQuoteTable2(t *testing.T) {
	root := filepath.Join("..", "..")
	buf, err := os.ReadFile(filepath.Join(root, "BENCH_table2.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench experiments.Table2Result
	if err := json.Unmarshal(buf, &bench); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	quoted := markdownTable(t, string(doc), "## Table 2 ", "Regenerated GB/s")
	if len(quoted) != len(bench.Rows) {
		t.Errorf("EXPERIMENTS.md's Table 2 has %d rows, BENCH_table2.json %d", len(quoted), len(bench.Rows))
	}
	for _, r := range bench.Rows {
		label := r.Exporting + " → " + r.Attaching
		want := fmt.Sprintf("%.3f", r.GBs)
		if r.NoRBTreeGBs > 0 {
			want += fmt.Sprintf(" (%.2f w/o rb-tree)", r.NoRBTreeGBs)
		}
		if got, ok := quoted[label]; !ok {
			t.Errorf("EXPERIMENTS.md's Table 2 has no row %q", label)
		} else if got != want {
			t.Errorf("EXPERIMENTS.md's Table 2 row %q reads %q; BENCH_table2.json gives %q", label, got, want)
		}
	}
}

// markdownTable returns the first table after the heading that starts
// with section, as a map from each row's first cell to its cell in the
// named column.
func markdownTable(t *testing.T, doc, section, column string) map[string]string {
	t.Helper()
	i := strings.Index(doc, "\n"+section)
	if i < 0 {
		t.Fatalf("no section %q", section)
	}
	col, rows := -1, map[string]string{}
	for _, line := range strings.Split(doc[i+1:], "\n")[1:] {
		if !strings.HasPrefix(line, "|") {
			if col >= 0 {
				break
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for j := range cells {
			cells[j] = strings.TrimSpace(cells[j])
		}
		switch {
		case col < 0:
			for j, c := range cells {
				if c == column {
					col = j
				}
			}
			if col < 0 {
				t.Fatalf("section %q: table has no column %q", section, column)
			}
		case strings.HasPrefix(cells[0], "---"):
		case col < len(cells):
			rows[cells[0]] = cells[col]
		}
	}
	return rows
}
