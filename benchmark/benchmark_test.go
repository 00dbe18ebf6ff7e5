package benchmark

import (
	"bytes"
	"encoding/json"
	"math"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"testing"

	"xemem/internal/experiments"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// buildCommand compiles xemem-benchmark into a temporary directory.
func buildCommand(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "xemem-benchmark")
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/xemem-benchmark").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func readSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := ReadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// runSuite runs the command's suite mode and returns the report it wrote.
func runSuite(t *testing.T, bin string, args ...string) *Report {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	cmd := exec.Command(bin, append(args, "-json", path)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if out, err := cmd.Output(); err != nil {
		t.Fatalf("%v %v: %v\n%s%s", bin, args, err, out, stderr.Bytes())
	}
	rep, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// checkRecords asserts that every workload passed its checks and printed
// exactly the declared metrics, with their declared units.
func checkRecords(t *testing.T, run Run, want map[string]string) {
	t.Helper()
	if len(run.Records) != len(Workloads) {
		t.Fatalf("%d records, want one per workload (%d)", len(run.Records), len(Workloads))
	}
	for _, rec := range run.Records {
		if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d/%d problems=%v", rec.Workload, rec.Correct, rec.Failed, rec.Attempted, rec.Problems)
		}
		got := make(map[string]string)
		for _, v := range rec.Metrics {
			got[v.Name] = v.Unit
			if !nameRE.MatchString(v.Name) {
				t.Errorf("%s: metric name %q", rec.Workload, v.Name)
			}
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %v", rec.Workload, v.Name, v.Value)
			}
		}
		for name, unit := range want {
			if got[name] != unit {
				t.Errorf("%s: metric %s printed with unit %q, declared %q", rec.Workload, name, got[name], unit)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: printed undeclared metric %s", rec.Workload, name)
			}
		}
	}
}

// virtualMetrics serializes a run's virtual metric values.
func virtualMetrics(t *testing.T, run Run) []byte {
	t.Helper()
	type kv struct {
		Workload, Name string
		Value          float64
	}
	var out []kv
	for _, rec := range run.Records {
		for _, v := range rec.Metrics {
			if v.Clock == Virtual {
				out = append(out, kv{rec.Workload, v.Name, v.Value})
			}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestShortPass runs the whole command at 1/50 scale: untraced twice and
// traced once.
func TestShortPass(t *testing.T) {
	spec := readSpec(t)
	e2e, layers := make(map[string]string), make(map[string]string)
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	bin := buildCommand(t)

	first := runSuite(t, bin, "-short", "-seed", "42")
	second := runSuite(t, bin, "-short", "-seed", "42")
	checkRecords(t, first.Runs[0], e2e)
	if a, b := virtualMetrics(t, first.Runs[0]), virtualMetrics(t, second.Runs[0]); !bytes.Equal(a, b) {
		t.Errorf("same seed, different virtual metrics:\n%s\n%s", a, b)
	}

	traced := runSuite(t, bin, "-short", "-seed", "42", "-trace", t.TempDir())
	checkRecords(t, traced.Runs[0], layers)
	for _, rec := range traced.Runs[0].Records {
		sum, samples := 0.0, 0
		for _, v := range rec.Metrics {
			if m, ok := Lookup(v.Name); ok && m.Unit == "%" {
				sum += v.Value
				samples = v.N
			}
		}
		if samples > 0 && math.Abs(sum-100) > 1e-6 {
			t.Errorf("%s: host.pkg shares sum to %.4f%%", rec.Workload, sum)
		}
	}
}

// TestResultLine checks the single-workload output: the last line is
// the result object with exactly its four keys and every end-to-end
// metric.
func TestResultLine(t *testing.T) {
	spec := readSpec(t)
	bin := buildCommand(t)
	out, err := exec.Command(bin, "--workload", "coll", "--seed", "7", "-short", "--trace", "0").Output()
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range res {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Fatalf("result keys %v, want %v", keys, want)
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(spec.EndToEnd) {
		t.Errorf("%d metrics, BENCHMARK.json declares %d", len(metrics), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		got, ok := metrics[m.Name]
		if !ok || got.Value == nil || got.Unit != m.Unit || *got.Value == 0 {
			t.Errorf("metric %s: %+v", m.Name, got)
		}
	}
}

// TestSpecMatchesRegistry holds BENCHMARK.json and the metric registry in
// agreement.
func TestSpecMatchesRegistry(t *testing.T) {
	spec := readSpec(t)
	type decl struct{ Name, Unit, Better string }
	var e2e, layers []decl
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, decl{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, decl{m.Name, m.Unit, m.Better})
	}
	for kind, c := range map[string]struct {
		spec []decl
		reg  []Metric
	}{"end_to_end": {e2e, EndToEnd}, "per_layer": {layers, PerLayer}} {
		var reg []decl
		for _, m := range c.reg {
			reg = append(reg, decl{m.Name, m.Unit, m.Better})
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q", m.Name)
			}
		}
		if !slices.Equal(c.spec, reg) {
			t.Errorf("%s differs:\nBENCHMARK.json %v\nregistry       %v", kind, c.spec, reg)
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name+": "+w.Why)
	}
	var want []string
	for _, w := range Workloads {
		want = append(want, w.Name+": "+w.Why)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads differ:\nBENCHMARK.json %q\nregistry       %q", names, want)
	}
}

// TestTable2TieOut holds attach-bulk and the paper's Table 2 to one model:
// the virtual GB/s of 1 GB attaches per client kind must match
// experiments.Table2 within 1% at the same seed.
func TestTable2TieOut(t *testing.T) {
	const seed = 42
	_, gb, err := runAttachBulk(&Runner{Seed: seed, Scale: 1.0 / 50}, false)
	if err != nil {
		t.Fatal(err)
	}
	table, err := experiments.Table2(seed, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for c, row := range []experiments.Table2Row{table.Rows[0], table.Rows[1]} {
		got := gb[c].bytes / gb[c].time.Seconds() / 1e9
		if math.Abs(got-row.GBs)/row.GBs > 0.01 {
			t.Errorf("%s client: 1 GB attaches at %.3f GB/s, Table 2 (%s -> %s) says %.3f", bulkClients[c], got, row.Exporting, row.Attaching, row.GBs)
		} else {
			t.Logf("%s client: %.3f GB/s vs Table 2 %.3f", bulkClients[c], got, row.GBs)
		}
	}
}

// TestCompare exercises the regression gate's verdicts.
func TestCompare(t *testing.T) {
	spec := readSpec(t)
	report := func(scale float64, spreadFrac float64, virt float64) *Report {
		var recs []*Record
		for _, w := range Workloads {
			rec := &Record{Workload: w.Name, Attempted: 100, Correct: true}
			for _, m := range EndToEnd {
				v := value(m.Name, 10)
				if m.Clock == Host {
					v.Value *= scale
					v.Median = v.Value
					v.IQR = spreadFrac * v.Value
				} else {
					v.Value = virt
				}
				rec.Metrics = append(rec.Metrics, v)
			}
			recs = append(recs, rec)
		}
		return &Report{Seed: 1, Runs: []Run{{Records: recs}}}
	}
	verdicts := func(rows []Row) map[string]string {
		out := make(map[string]string)
		for _, r := range rows {
			if r.Workload == "coll" {
				out[r.Metric] = r.Verdict
			}
		}
		return out
	}
	base := report(1, 0.01, 5)
	rows, err := Compare(spec, base, report(1, 0.01, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Verdict != Unchanged || r.Fails {
			t.Errorf("identical reports: %+v", r)
		}
	}
	rows, _ = Compare(spec, base, report(2, 0.01, 5))
	v := verdicts(rows)
	if v["host_ops_per_s"] != Better || v["setup_s"] != Worse || v["peak_rss_mb"] != Worse {
		t.Errorf("doubled host metrics: %v", v)
	}
	rows, _ = Compare(spec, base, report(1, 0.9, 5))
	if v := verdicts(rows); v["host_ops_per_s"] != Unresolved {
		t.Errorf("spread wider than the bound: %v", v)
	}
	rows, _ = Compare(spec, base, report(1, 0.01, 5.0000001))
	for _, r := range rows {
		if m, _ := Lookup(r.Metric); m.Clock == Virtual && !r.Fails {
			t.Errorf("changed virtual metric passes: %+v", r)
		}
	}
	if _, err := Compare(spec, base, &Report{Seed: 2}); err == nil {
		t.Error("reports of different seeds compared")
	}
}
