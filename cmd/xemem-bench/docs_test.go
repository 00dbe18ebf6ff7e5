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
	var bench experiments.Table2Result
	readBench(t, "BENCH_table2.json", &bench)
	quoted := markdownTable(t, experimentsDoc(t), "## Table 2 ", 0, "Regenerated GB/s")
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

// TestExperimentsQuoteFigs8And9 checks EXPERIMENTS.md's Fig. 8 and
// Fig. 9 tables, (a) one-time then (b) recurring attachments, against
// BENCH_fig8.json and BENCH_fig9.json: each cell reads its bar's or
// point's mean ± stddev as "%.1f ± %.1f s", and each table has a row
// for every configuration or node count and no other. It reads files
// only.
func TestExperimentsQuoteFigs8And9(t *testing.T) {
	var fig8 experiments.Fig8Result
	var fig9 experiments.Fig9Result
	readBench(t, "BENCH_fig8.json", &fig8)
	readBench(t, "BENCH_fig9.json", &fig9)
	doc := experimentsDoc(t)
	check := func(fig string, quoted map[string]string, rows int, row string, mean, std float64) {
		t.Helper()
		if len(quoted) != rows {
			t.Errorf("EXPERIMENTS.md's %s table has %d rows, want %d", fig, len(quoted), rows)
		}
		if want := fmt.Sprintf("%.1f ± %.1f s", mean, std); quoted[row] != want {
			t.Errorf("EXPERIMENTS.md's %s row %q reads %q; its BENCH file gives %q", fig, row, quoted[row], want)
		}
	}
	for i, recurring := range []bool{false, true} {
		sub := fmt.Sprintf("(%c)", 'a'+i)
		for _, col := range []string{"Synchronous", "Asynchronous"} {
			quoted := markdownTable(t, doc, "## Figure 8 ", i, col)
			for _, cfg := range experiments.Fig8Configs {
				bar := fig8.Cell(cfg, col == "Synchronous", recurring)
				check("Fig. 8"+sub+" "+col, quoted, len(experiments.Fig8Configs), string(cfg), bar.MeanS, bar.StdS)
			}
		}
		for _, col := range []string{"Linux only", "Multi-enclave"} {
			quoted := markdownTable(t, doc, "## Figure 9 ", i, col)
			for _, n := range experiments.Fig9NodeCounts {
				pt := fig9.Cell(n, col == "Multi-enclave", recurring)
				check("Fig. 9"+sub+" "+col, quoted, len(experiments.Fig9NodeCounts), fmt.Sprint(n), pt.MeanS, pt.StdS)
			}
		}
	}
}

// readBench decodes the checked-in root BENCH file name into v.
func readBench(t *testing.T, name string, v any) {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, v); err != nil {
		t.Fatal(err)
	}
}

// experimentsDoc is the text of EXPERIMENTS.md.
func experimentsDoc(t *testing.T) string {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// markdownTable returns the n-th table (from 0) after the heading that
// starts with section, as a map from each row's first cell to its cell
// in the named column.
func markdownTable(t *testing.T, doc, section string, n int, column string) map[string]string {
	t.Helper()
	i := strings.Index(doc, "\n"+section)
	if i < 0 {
		t.Fatalf("no section %q", section)
	}
	col, rows, inTable := -1, map[string]string{}, false
	for _, line := range strings.Split(doc[i+1:], "\n")[1:] {
		if strings.HasPrefix(line, "#") {
			break // the next section
		}
		if !strings.HasPrefix(line, "|") {
			if inTable {
				if n == 0 {
					break
				}
				n--
			}
			inTable = false
			continue
		}
		if inTable = true; n > 0 {
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
