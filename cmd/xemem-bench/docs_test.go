package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
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

// TestExperimentsQuoteFigs5To7 checks the "Regenerated" columns of
// EXPERIMENTS.md's Fig. 5, 6 and 7 tables against BENCH_fig5.json,
// BENCH_fig6.json and BENCH_fig7.json. A cell's figure is its text up to
// the first ", "; what follows is commentary, so the "~" event counts of
// Fig. 7 ("~4000 events/10 s") stay unchecked: they are rounded by hand.
// It reads files only.
func TestExperimentsQuoteFigs5To7(t *testing.T) {
	var fig5 experiments.Fig5Result
	var fig6 experiments.Fig6Result
	var fig7 experiments.Fig7Result
	readBench(t, "BENCH_fig5.json", &fig5)
	readBench(t, "BENCH_fig6.json", &fig6)
	readBench(t, "BENCH_fig7.json", &fig7)
	doc := experimentsDoc(t)

	// Fig. 5: each series from 128 MB to 1 GB.
	quoted := markdownTable(t, doc, "## Figure 5 ", 0, "Regenerated (128 MB → 1 GB)")
	var lo, hi experiments.Fig5Row
	for _, r := range fig5.Rows {
		switch r.SizeMB {
		case 128:
			lo = r
		case 1024:
			hi = r
		}
	}
	checkQuote(t, "Fig. 5", quoted, "XEMEM attach", fmt.Sprintf("%.2f → %.2f GB/s", lo.AttachGBs, hi.AttachGBs))
	checkQuote(t, "Fig. 5", quoted, "XEMEM attach+read", fmt.Sprintf("%.2f → %.2f GB/s", lo.AttachReadGBs, hi.AttachReadGBs))
	checkQuote(t, "Fig. 5", quoted, "RDMA verbs/IB", fmt.Sprintf("%.2f → %.2f GB/s", lo.RDMAGBs, hi.RDMAGBs))

	// Fig. 6: the 1 GB row per enclave count, rows such as "4, 8"
	// quoting one value for several counts; 2 enclaves add the dip from 1.
	quoted = markdownTable(t, doc, "## Figure 6 ", 0, "Regenerated (1 GB row)")
	rowOf := map[string]string{}
	for label := range quoted {
		for _, n := range strings.Split(label, ", ") {
			rowOf[n] = label
		}
	}
	gbs := map[int]float64{}
	for _, c := range fig6.Cells {
		if c.SizeMB == 1024 {
			gbs[c.Enclaves] = c.GBs
		}
	}
	for _, n := range []int{1, 2, 4, 8} {
		want := fmt.Sprintf("%.2f GB/s", gbs[n])
		if n == 2 {
			want += fmt.Sprintf(" (−%.0f %%)", (1-gbs[2]/gbs[1])*100)
		}
		checkQuote(t, "Fig. 6", quoted, rowOf[fmt.Sprint(n)], want)
	}

	// Fig. 7, in µs: each serve size's maximum (the 1 GB serves as a
	// range), and the baseline and SMI bands over all three phases.
	quoted = markdownTable(t, doc, "## Figure 7 ", 0, "Regenerated")
	class := func(i int, name string) experiments.Fig7Class {
		cs := fig7.Phases[i].Classes
		return cs[slices.IndexFunc(cs, func(c experiments.Fig7Class) bool { return c.Name == name })]
	}
	band := func(name string) (lo, hi float64) {
		for i := range fig7.Phases {
			c := class(i, name)
			if i == 0 || c.MinUS < lo {
				lo = c.MinUS
			}
			hi = max(hi, c.MaxUS)
		}
		return lo, hi
	}
	// thousands renders a value of 1,000–999,999 µs as the table does.
	thousands := func(us float64) string {
		n := int(math.Round(us))
		return fmt.Sprintf("%d,%03d", n/1000, n%1000)
	}
	serve := func(i int) experiments.Fig7Class { return class(i, "xemem-attach") }
	lo7, hi7 := band("hw-baseline")
	checkQuote(t, "Fig. 7", quoted, "Frequent hardware baseline", fmt.Sprintf("%.1f–%.1f µs", lo7, hi7))
	lo7, hi7 = band("smi")
	checkQuote(t, "Fig. 7", quoted, "Periodic events (SMIs)", fmt.Sprintf("%.0f–%.0f µs", lo7, hi7))
	checkQuote(t, "Fig. 7", quoted, "4 KB attach serves", fmt.Sprintf("%.1f µs", serve(0).MaxUS))
	checkQuote(t, "Fig. 7", quoted, "2 MB attach serves", fmt.Sprintf("%.1f µs", serve(1).MaxUS))
	checkQuote(t, "Fig. 7", quoted, "1 GB attach serves", thousands(serve(2).MinUS)+"–"+thousands(serve(2).MaxUS)+" µs")
}

// TestExperimentsQuoteFault checks the "Regenerated" column of
// EXPERIMENTS.md's fault-sweep table against BENCH_fault.json: the
// success-rate floor and p99 range of the lossy cells without a crash,
// the lossless crash cell's split, the lossy crash cells' successes and
// the count of errors outside the typed model. A cell's figure is its
// text up to the first ", ". It also holds the prose's "every cell
// accounts for all its attempts". It reads files only.
func TestExperimentsQuoteFault(t *testing.T) {
	var bench experiments.FaultSweepResult
	readBench(t, "BENCH_fault.json", &bench)
	quoted := markdownTable(t, experimentsDoc(t), "## Fault sweep ", 0, "Regenerated")
	floor, lossless, worst := 1.0, int64(0), int64(0)
	var crash experiments.FaultCell
	lossyCrashSuccesses, other := 0, 0
	for _, c := range bench.Cells {
		if n := c.Successes + c.Timeouts + c.EnclaveDown + c.OtherErrors; n != c.Attempts || n != bench.Rounds {
			t.Errorf("fault cell drop=%.2f crash=%v accounts for %d of %d attempts, %d rounds", c.DropProb, c.Crash, n, c.Attempts, bench.Rounds)
		}
		other += c.OtherErrors
		switch {
		case c.Crash && c.DropProb == 0:
			crash = c
		case c.Crash:
			lossyCrashSuccesses = max(lossyCrashSuccesses, c.Successes)
		case c.DropProb == 0:
			lossless = c.P99AttachNs
		default:
			floor = min(floor, c.SuccessRate)
			worst = max(worst, c.P99AttachNs)
		}
	}
	check := func(row, want string) {
		t.Helper()
		checkQuote(t, "fault-sweep", quoted, row, want)
	}
	check("Success rate, 2–10% loss, no crash", fmt.Sprintf("≥%.1f %%", floor*100))
	check("p99 attach latency, lossless → 10% loss, no crash", fmt.Sprintf("%.1f µs → %.2f ms", float64(lossless)/1e3, float64(worst)/1e6))
	check("Lossless crash cell", fmt.Sprintf("%d successes then %d ErrEnclaveDown", crash.Successes, crash.EnclaveDown))
	check("Lossy crash cells, 2–10% loss", fmt.Sprintf("%d successes", lossyCrashSuccesses))
	check("Failures outside the typed model", fmt.Sprint(other))
}

// checkQuote fails unless the named row of a quoted table reads want up
// to its first ", ": what follows is commentary.
func checkQuote(t *testing.T, table string, quoted map[string]string, row, want string) {
	t.Helper()
	cell, ok := quoted[row]
	if got, _, _ := strings.Cut(cell, ", "); !ok || got != want {
		t.Errorf("EXPERIMENTS.md's %s row %q reads %q; its BENCH file gives %q", table, row, cell, want)
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
