package benchmark

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// HostInfo is the header of a report: what the host numbers were
// measured on.
type HostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
}

// CaptureHost describes the current process and the source it was built
// from (the VCS stamp the go command embeds; "unknown" outside a git
// checkout).
func CaptureHost() HostInfo {
	h := HostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitRev: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.GitRev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		h.GitRev += dirty
	}
	return h
}

// Run is one execution of the suite: every workload's record, untraced
// (end-to-end metrics) or traced (per-layer metrics).
type Run struct {
	Traced  bool      `json:"traced"`
	Records []*Record `json:"records"`
}

// Report is the file -json writes: a host header and one or more runs.
type Report struct {
	Host HostInfo `json:"host"`
	Seed uint64   `json:"seed"`
	Runs []Run    `json:"runs"`
}

// AppendReport adds run to the report at path, creating it if absent.
func AppendReport(path string, seed uint64, run Run) error {
	rep := &Report{Host: CaptureHost(), Seed: seed}
	if old, err := ReadReport(path); err == nil {
		if old.Seed != seed {
			return fmt.Errorf("%s holds seed %d, this run used %d", path, old.Seed, seed)
		}
		rep = old
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	rep.Runs = append(rep.Runs, run)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport loads a report file.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// Spec is the part of BENCHMARK.json the regression gate reads.
type Spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

// ReadSpec loads BENCHMARK.json.
func ReadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Verdicts of a comparison row.
const (
	Better     = "better"
	Worse      = "worse"
	Unchanged  = "unchanged"
	Unresolved = "unresolved"
)

// Row is one (workload, metric) line of a comparison.
type Row struct {
	Workload, Metric string
	Old, New         float64
	// Change is the relative change, positive when the new value is
	// better; Spread the relative noise the verdict weighed it against.
	Change, Spread, Bound float64
	Verdict               string
	// Fails marks rows that make the comparison fail: a host metric
	// worse by more than its bound, or any change in a virtual metric or
	// in the failure fraction, which must repeat exactly.
	Fails bool
}

// Compare applies the regression bounds of spec to the untraced runs of
// two reports of the same seed.
func Compare(spec *Spec, old, cur *Report) ([]Row, error) {
	if old.Seed != cur.Seed {
		return nil, fmt.Errorf("reports use seeds %d and %d; virtual metrics compare only at one seed", old.Seed, cur.Seed)
	}
	bounds := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	oldRecs, newRecs := untraced(old), untraced(cur)
	var rows []Row
	for _, w := range Workloads {
		o, n := oldRecs[w.Name], newRecs[w.Name]
		if len(o) == 0 || len(n) == 0 {
			rows = append(rows, Row{Workload: w.Name, Metric: "(records)", Verdict: Unresolved, Fails: true})
			continue
		}
		ff := Row{Workload: w.Name, Metric: "fail_frac", Old: failFrac(o[0]), New: failFrac(n[0])}
		ff.Verdict, ff.Fails = exact(ff.Old, ff.New, "lower")
		rows = append(rows, ff)
		for _, m := range EndToEnd {
			row := Row{Workload: w.Name, Metric: m.Name, Bound: bounds[m.Name]}
			ov, nv := metricValues(o, m.Name), metricValues(n, m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				row.Verdict, row.Fails = Unresolved, true
				rows = append(rows, row)
				continue
			}
			row.Old, row.New = quantile(ov, 0.5), quantile(nv, 0.5)
			if m.Clock == Virtual {
				row.Verdict, row.Fails = exact(row.Old, row.New, m.Better)
				rows = append(rows, row)
				continue
			}
			row.Change = (row.New - row.Old) / row.Old
			if m.Better == "lower" {
				row.Change = -row.Change
			}
			row.Spread = math.Max(spread(o, m.Name), spread(n, m.Name))
			switch {
			case row.Spread > row.Bound:
				row.Verdict = Unresolved
			case row.Change < -row.Bound:
				row.Verdict, row.Fails = Worse, true
			case row.Change > row.Bound:
				row.Verdict = Better
			default:
				row.Verdict = Unchanged
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// untraced groups a report's untraced records by workload.
func untraced(rep *Report) map[string][]*Record {
	out := make(map[string][]*Record)
	for _, run := range rep.Runs {
		if run.Traced {
			continue
		}
		for _, rec := range run.Records {
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
	}
	return out
}

func failFrac(rec *Record) float64 { return float64(rec.Failed) / float64(rec.Attempted) }

// exact judges a metric that must repeat exactly at a fixed seed.
func exact(old, cur float64, better string) (string, bool) {
	switch {
	case old == cur:
		return Unchanged, false
	case (cur < old) == (better == "lower"):
		return Better, true
	default:
		return Worse, true
	}
}

func metricValues(recs []*Record, name string) []float64 {
	var xs []float64
	for _, rec := range recs {
		if v, ok := rec.Metric(name); ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// spread is a side's relative noise for a host metric: the relative
// range of its runs' values when it has several runs, else the relative
// IQR of the one run's per-rep samples.
func spread(recs []*Record, name string) float64 {
	if xs := metricValues(recs, name); len(xs) > 1 {
		sort.Float64s(xs)
		return (xs[len(xs)-1] - xs[0]) / quantile(xs, 0.5)
	}
	v, _ := recs[0].Metric(name)
	if v.Median == 0 {
		return 0
	}
	return v.IQR / v.Median
}

// WriteRows prints a comparison table.
func WriteRows(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "%-12s %-16s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "old", "new", "change", "spread", "bound", "verdict")
	for _, r := range rows {
		mark := ""
		if r.Fails {
			mark = "  FAIL"
		}
		fmt.Fprintf(w, "%-12s %-16s %14.6g %14.6g %+7.1f%% %7.1f%% %5.0f%%  %s%s\n",
			r.Workload, r.Metric, r.Old, r.New, 100*r.Change, 100*r.Spread, 100*r.Bound, r.Verdict, mark)
	}
}

// WriteRecord prints one record's metrics as a table.
func WriteRecord(w io.Writer, rec *Record) {
	status := "correct"
	if !rec.Correct {
		status = "INCORRECT: " + strings.Join(rec.Problems, "; ")
	}
	kind := "untraced"
	if rec.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "%s  seed %d  %s, %d reps x %d ops  failed %d/%d  %s\n",
		rec.Workload, rec.Seed, kind, rec.Reps, rec.OpsPerRep, rec.Failed, rec.Attempted, status)
	fmt.Fprintf(w, "  %-32s %14s %-6s %-7s %7s %14s %12s  %s\n", "metric", "value", "unit", "clock", "n", "median", "iqr", "base")
	for _, v := range rec.Metrics {
		fmt.Fprintf(w, "  %-32s %14.6g %-6s %-7s %7d %14.6g %12.4g  %s\n", v.Name, v.Value, v.Unit, v.Clock, v.N, v.Median, v.IQR, v.Base)
	}
}
