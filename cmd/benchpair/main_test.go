package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

const (
	baseSHA   = "1111111111111111111111111111111111111111"
	changeSHA = "2222222222222222222222222222222222222222"
)

var (
	runS       = metricSpec{Name: "run_s", Better: "lower", Bound: 0.25}
	writesPerS = metricSpec{Name: "writes_per_s", Better: "higher", Bound: 0.25}
)

// pairsFor builds ten correct pairs of one workload whose only metric is
// m, with the given per-pair values.
func pairsFor(m metricSpec, base, change []float64) []pair {
	ps := make([]pair, len(base))
	for i := range ps {
		ps[i] = pair{
			Workload: "paper-sweep",
			Seed:     firstSeed + i,
			Base:     result{Commit: baseSHA, SourceHash: "b", Correct: true, Attempted: 100, Metrics: map[string]metricValue{m.Name: {base[i]}}},
			Change:   result{Commit: changeSHA, SourceHash: "c", Correct: true, Attempted: 100, Metrics: map[string]metricValue{m.Name: {change[i]}}},
		}
	}
	return ps
}

// apply returns base with f applied to every element.
func apply(base []float64, f func(i int, v float64) float64) []float64 {
	out := make([]float64, len(base))
	for i, v := range base {
		out[i] = f(i, v)
	}
	return out
}

func TestVerdict(t *testing.T) {
	// Quartiles 9.825 and 10.175: a quartile distance of 0.35 around 10.
	narrow := []float64{10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.2, 9.8}
	// Quartiles 9.125 and 10.875: a quartile distance of 1.75.
	wide := []float64{8, 12, 9, 11, 10, 8.5, 11.5, 9.5, 10.5, 10}
	// lose9 makes the change worse by d in every pair but the last,
	// which it wins by a hair.
	lose9 := func(base []float64, d float64) []float64 {
		return apply(base, func(i int, v float64) float64 {
			if i == len(base)-1 {
				return v - 0.01
			}
			return v + d
		})
	}
	flat := func(v float64) []float64 { return apply(make([]float64, 10), func(int, float64) float64 { return v }) }

	cases := []struct {
		name   string
		m      metricSpec
		ps     []pair
		edit   func([]pair)
		want   string // substring of the one expected finding; "" for none
		wins   int
		losses int
	}{
		{name: "identical runs tie", m: runS, ps: pairsFor(runS, narrow, narrow)},
		{name: "9/10 losses beyond the quartile distance", m: runS, ps: pairsFor(runS, narrow, lose9(narrow, 1.0)),
			want: "base won 9 of 10", wins: 1, losses: 9},
		{name: "9/10 losses inside the quartile distance", m: runS, ps: pairsFor(runS, wide, lose9(wide, 1.0)),
			wins: 1, losses: 9},
		{name: "8 losses and 2 ties beyond the quartile distance", m: runS,
			ps: pairsFor(runS, narrow, apply(narrow, func(i int, v float64) float64 {
				if i < 2 {
					return v
				}
				return v + 1
			})),
			losses: 8},
		{name: "bound breach with 5/10 losses", m: runS,
			ps: pairsFor(runS, flat(10), apply(flat(10), func(i int, v float64) float64 {
				if i%2 == 0 {
					return 20
				}
				return 9.9
			})),
			want: "worse than the base's", wins: 5, losses: 5},
		{name: "higher is better: every pair lost inside the bound", m: writesPerS,
			ps: pairsFor(writesPerS, flat(100), flat(80)), want: "base won 10 of 10", losses: 10},
		{name: "higher is better: every pair won", m: writesPerS,
			ps: pairsFor(writesPerS, flat(100), flat(120)), wins: 10},
		{name: "lower is better: every pair won", m: runS,
			ps: pairsFor(runS, flat(10), flat(8)), wins: 10},
		{name: "a run whose output checks failed", m: runS, ps: pairsFor(runS, narrow, narrow),
			edit: func(ps []pair) { ps[3].Change.Correct = false }, want: "output checks failed"},
		{name: "a higher failed share", m: runS, ps: pairsFor(runS, narrow, narrow),
			edit: func(ps []pair) { ps[0].Change.Failed = 1 }, want: "change failed 1 of 1000 operations"},
		{name: "a # meta commit mismatch", m: runS, ps: pairsFor(runS, narrow, narrow),
			edit: func(ps []pair) { ps[5].Change.Commit = baseSHA }, want: "# meta commit " + baseSHA},
		{name: "a source tree edited during the comparison", m: runS, ps: pairsFor(runS, narrow, narrow),
			edit: func(ps []pair) { ps[7].Change.SourceHash = "d" }, want: "changed from"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.edit != nil {
				tc.edit(tc.ps)
			}
			got := verdict([]metricSpec{tc.m}, baseSHA, changeSHA, [][]pair{tc.ps})
			switch {
			case tc.want == "" && len(got) != 0:
				t.Errorf("verdict = %q, want no finding", got)
			case tc.want != "" && (len(got) != 1 || !strings.Contains(got[0], tc.want)):
				t.Errorf("verdict = %q, want one finding containing %q", got, tc.want)
			}
			if c := compare(tc.m, tc.ps); c.Wins != tc.wins || c.Losses != tc.losses {
				t.Errorf("change won %d and lost %d pairs, want %d and %d", c.Wins, c.Losses, tc.wins, tc.losses)
			}
		})
	}
}

func TestQuartiles(t *testing.T) {
	got := quartiles([]float64{10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.2, 9.8})
	want := [3]float64{9.825, 10.0, 10.175}
	for i := range want {
		if d := got[i] - want[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("quartiles = %v, want %v", got, want)
		}
	}
}

func TestParseRun(t *testing.T) {
	out := `run_s                                       11.2 s
# meta {"workload":"paper-sweep","seed":42,"nproc":2,"commit":"` + changeSHA + `","source_sha256":"ab","steal_pct":1.5}
{"correct": true, "attempted": 60, "failed": 0, "metrics": {"run_s": {"value": 11.2, "unit": "s"}}}
`
	r, err := parseRun([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	want := result{Commit: changeSHA, SourceHash: "ab", NProc: 2, StealPct: 1.5, Correct: true,
		Attempted: 60, Metrics: map[string]metricValue{"run_s": {11.2}}}
	if !reflect.DeepEqual(r, want) {
		t.Errorf("parseRun = %+v, want %+v", r, want)
	}
	if _, err := parseRun([]byte(`{"correct": true}`)); err == nil {
		t.Error("output without a # meta line accepted")
	}
}

// TestTrajectoryRowKeys holds the printed row to the keys of the rows
// already in bench/trajectory.jsonl.
func TestTrajectoryRowKeys(t *testing.T) {
	data, err := os.ReadFile("../../bench/trajectory.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	cfg, err := loadBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var ps [][]pair
	for _, w := range cfg.Workloads {
		ps = append(ps, pairsFor(runS, make([]float64, pairs), make([]float64, pairs)))
		for i := range ps[len(ps)-1] {
			ps[len(ps)-1][i].Workload = w.Name
		}
	}
	raw, err := json.Marshal(trajectoryRow(cfg, baseSHA, ps))
	if err != nil {
		t.Fatal(err)
	}
	var row map[string]any
	if err := json.Unmarshal(raw, &row); err != nil {
		t.Fatal(err)
	}
	keys := func(v any) []string {
		var ks []string
		for k := range v.(map[string]any) {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	check := func(what string, got, want any) {
		if g, w := keys(got), keys(want); !reflect.DeepEqual(g, w) {
			t.Errorf("%s keys = %v, want %v", what, g, w)
		}
	}
	check("row", row, last)
	check("host", row["host"], last["host"])
	check("workloads", row["workloads"], last["workloads"])
	for w, wl := range last["workloads"].(map[string]any) {
		got := row["workloads"].(map[string]any)[w]
		check(w, got, wl)
		check(w+" metrics", got.(map[string]any)["metrics"], wl.(map[string]any)["metrics"])
	}
}
