// Command benchpair is the repository's performance gate. It runs the
// benchmark that BENCHMARK.json declares (cmd/perfbench) on a base
// revision and on the working tree in alternating pairs, prints each
// end-to-end metric's quartiles per side and the working tree's pair
// wins, prints the comparison as a bench/trajectory.jsonl row, and exits
// non-zero when the working tree regressed.
//
// Usage, from inside the repository:
//
//	go run ./cmd/benchpair <base-revision>
//
// Every other setting comes from BENCHMARK.json: the command, the run
// length, the workloads and each end-to-end metric's direction and
// bound. Each workload runs ten pairs at seeds 42–51, the base first in
// even pairs, so the first pair re-checks the seed-42 output pins on
// both sides. The base is checked out under .bench_build/benchpair-base
// and removed again before the command exits. The working tree regressed
// when
//
//   - any run's output checks failed, or its failed share of operations
//     is larger than the base's;
//   - any run's "# meta" line names another commit than its side, or the
//     source hash of one side changed between its runs;
//   - on some workload and end-to-end metric, the working tree's median
//     is worse than the base's by more than the metric's bound;
//   - on some workload and end-to-end metric, the base wins at least
//     nine tenths of the pairs (ties count for neither side) and the
//     medians differ by more than the base's quartile distance.
//
// Exit status: 0 no regression, 1 regression, 2 the comparison could not
// be run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	pairs     = 10
	firstSeed = 42 // the seed perfbench pins its outputs at
)

// benchmark is the part of BENCHMARK.json the gate reads.
type benchmark struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

// metricSpec is one end-to-end metric: which direction is better and the
// largest relative worsening of the median the gate tolerates.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is one perfbench run: the fields the gate reads from its
// "# meta" line and from its last line, the result.
type result struct {
	Commit     string                 `json:"commit"`
	SourceHash string                 `json:"source_sha256"`
	NProc      int                    `json:"nproc"`
	StealPct   float64                `json:"steal_pct"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
}

// pair is one seed of one workload, run on both sides.
type pair struct {
	Workload     string
	Seed         int
	Base, Change result
}

// comparison summarises one metric of one workload over its pairs.
type comparison struct {
	Base, Change [3]float64 // q1, median, q3
	Wins, Losses int        // pairs the working tree won and lost
}

func main() {
	if len(os.Args) != 2 || strings.HasPrefix(os.Args[1], "-") {
		fmt.Fprintln(os.Stderr, "usage: go run ./cmd/benchpair <base-revision>")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	problems, err := benchpair(ctx, os.Args[1])
	stop()
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(2)
	case len(problems) > 0:
		for _, p := range problems {
			fmt.Println("REGRESSION:", p)
		}
		os.Exit(1)
	}
	fmt.Println("no regression")
}

// benchpair runs the comparison against rev and returns the verdict's
// findings.
func benchpair(ctx context.Context, rev string) ([]string, error) {
	root, err := git(ctx, "", "rev-parse", "--show-toplevel")
	if err != nil {
		return nil, err
	}
	cfg, err := loadBenchmark(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	baseCommit, err := git(ctx, root, "rev-parse", "--verify", "--end-of-options", rev+"^{commit}")
	if err != nil {
		return nil, err
	}
	changeCommit, err := git(ctx, root, "rev-parse", "HEAD")
	if err != nil {
		return nil, err
	}

	// A clone rather than a git worktree: perfbench names its commit by
	// reading <root>/.git/HEAD, and a worktree's .git is a file. --shared
	// borrows the repository's objects instead of copying them. A
	// leftover from a run that was killed outright is removed first.
	baseDir := filepath.Join(root, ".bench_build", "benchpair-base")
	if err := os.RemoveAll(baseDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(baseDir)
	if _, err := git(ctx, root, "clone", "--quiet", "--shared", "--no-checkout", root, baseDir); err != nil {
		return nil, err
	}
	if _, err := git(ctx, baseDir, "checkout", "--quiet", "--detach", baseCommit); err != nil {
		return nil, err
	}

	var all [][]pair // one slice of pairs per workload
	for _, w := range cfg.Workloads {
		var wp []pair
		for i := 0; i < pairs; i++ {
			p := pair{Workload: w.Name, Seed: firstSeed + i}
			sides := []struct {
				name string
				dir  string
				res  *result
			}{{"base", baseDir, &p.Base}, {"change", root, &p.Change}}
			if i%2 == 1 {
				sides[0], sides[1] = sides[1], sides[0]
			}
			for _, s := range sides {
				t0 := time.Now()
				r, err := runOnce(ctx, cfg, s.dir, w.Name, p.Seed)
				if err != nil {
					return nil, fmt.Errorf("%s seed %d on the %s side: %w", w.Name, p.Seed, s.name, err)
				}
				*s.res = r
				fmt.Fprintf(os.Stderr, "benchpair: %s pair %d/%d seed %d %s: run_s %.4g, correct %v (%.0f s)\n",
					w.Name, i+1, pairs, p.Seed, s.name, r.Metrics["run_s"].Value, r.Correct, time.Since(t0).Seconds())
			}
			wp = append(wp, p)
		}
		all = append(all, wp)
	}

	report(cfg, all)
	row, err := json.Marshal(trajectoryRow(cfg, baseCommit, all))
	if err != nil {
		return nil, err
	}
	fmt.Println("# bench/trajectory.jsonl row (fill in \"change\" before appending):")
	fmt.Println(string(row))
	return verdict(cfg.EndToEnd, baseCommit, changeCommit, all), nil
}

// loadBenchmark reads and checks BENCHMARK.json.
func loadBenchmark(path string) (benchmark, error) {
	var cfg benchmark
	data, err := os.ReadFile(path)
	if err != nil {
		return cfg, err
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		return cfg, fmt.Errorf("%s: %w", path, err)
	}
	if len(cfg.Command) == 0 || cfg.RunSeconds <= 0 || len(cfg.Workloads) == 0 || len(cfg.EndToEnd) == 0 {
		return cfg, fmt.Errorf("%s: needs command, run_seconds, workloads and end_to_end", path)
	}
	for _, m := range cfg.EndToEnd {
		if (m.Better != "lower" && m.Better != "higher") || !(m.Bound >= 0) {
			return cfg, fmt.Errorf("%s: metric %s: better must be lower or higher and bound non-negative", path, m.Name)
		}
	}
	return cfg, nil
}

// git runs one git command in dir and returns its trimmed stdout.
func git(ctx context.Context, dir string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// runOnce runs the benchmark command for one workload and seed in dir.
// The command runs in its own process group, so an interrupt stops its
// build and its benchmark process alike.
func runOnce(ctx context.Context, cfg benchmark, dir, workload string, seed int) (result, error) {
	args := slices.Concat(cfg.Command[1:], []string{"--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(cfg.RunSeconds), "--trace", "0"})
	cmd := exec.CommandContext(ctx, cfg.Command[0], args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	out, err := cmd.Output()
	if ctx.Err() != nil {
		return result{}, ctx.Err()
	}
	if err != nil {
		return result{}, err
	}
	return parseRun(out)
}

// parseRun reads a perfbench run's "# meta" line and its final result
// line.
func parseRun(out []byte) (result, error) {
	var r result
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	i := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "# meta ") })
	if i < 0 {
		return r, errors.New("no # meta line in the benchmark's output")
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[i], "# meta ")), &r); err != nil {
		return r, fmt.Errorf("# meta line: %w", err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("result line: %w", err)
	}
	return r, nil
}

// verdict lists every way the change side regressed against the base
// side over each workload's pairs; it is empty when there is none.
func verdict(specs []metricSpec, baseCommit, changeCommit string, byWorkload [][]pair) []string {
	var problems []string
	hashes := map[string]string{}
	for _, p := range slices.Concat(byWorkload...) {
		for _, s := range []struct {
			name, commit string
			r            result
		}{{"base", baseCommit, p.Base}, {"change", changeCommit, p.Change}} {
			at := fmt.Sprintf("%s seed %d %s", p.Workload, p.Seed, s.name)
			if s.r.Commit != s.commit {
				problems = append(problems, fmt.Sprintf("%s: # meta commit %s, want %s", at, s.r.Commit, s.commit))
			}
			if h, ok := hashes[s.name]; !ok {
				hashes[s.name] = s.r.SourceHash
			} else if h != s.r.SourceHash {
				problems = append(problems, fmt.Sprintf("%s: source hash %.12s changed from %.12s during the comparison", at, s.r.SourceHash, h))
			}
			if !s.r.Correct {
				problems = append(problems, fmt.Sprintf("%s: output checks failed (%d of %d)", at, s.r.Failed, s.r.Attempted))
			}
			for _, m := range specs {
				if _, ok := s.r.Metrics[m.Name]; !ok {
					problems = append(problems, fmt.Sprintf("%s: no metric %s", at, m.Name))
				}
			}
		}
	}
	for _, wp := range byWorkload {
		w := wp[0].Workload
		var baseFailed, baseAttempted, changeFailed, changeAttempted int
		for _, p := range wp {
			baseFailed += p.Base.Failed
			baseAttempted += p.Base.Attempted
			changeFailed += p.Change.Failed
			changeAttempted += p.Change.Attempted
		}
		if share(changeFailed, changeAttempted) > share(baseFailed, baseAttempted) {
			problems = append(problems, fmt.Sprintf("%s: change failed %d of %d operations, base %d of %d",
				w, changeFailed, changeAttempted, baseFailed, baseAttempted))
		}
		for _, m := range specs {
			c := compare(m, wp)
			baseMed, changeMed := c.Base[1], c.Change[1]
			gap := worseBy(m, baseMed, changeMed)
			if gap > m.Bound*math.Abs(baseMed) {
				problems = append(problems, fmt.Sprintf("%s %s: median %.4g is %.1f%% worse than the base's %.4g (bound %.0f%%)",
					w, m.Name, changeMed, 100*gap/math.Abs(baseMed), baseMed, 100*m.Bound))
			}
			if iqr := c.Base[2] - c.Base[0]; 10*c.Losses >= 9*len(wp) && gap > iqr {
				problems = append(problems, fmt.Sprintf("%s %s: base won %d of %d pairs, medians %.4g → %.4g differ by more than the base's quartile distance %.4g",
					w, m.Name, c.Losses, len(wp), baseMed, changeMed, iqr))
			}
		}
	}
	return problems
}

// share is failed/attempted, 0 when nothing was attempted.
func share(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// worseBy is how much worse change is than base, in m's unit: positive
// when worse, negative when better.
func worseBy(m metricSpec, base, change float64) float64 {
	if m.Better == "higher" {
		return base - change
	}
	return change - base
}

// compare summarises metric m over ps.
func compare(m metricSpec, ps []pair) comparison {
	var c comparison
	var base, change []float64
	for _, p := range ps {
		b, ch := p.Base.Metrics[m.Name].Value, p.Change.Metrics[m.Name].Value
		base, change = append(base, b), append(change, ch)
		switch d := worseBy(m, b, ch); {
		case d < 0:
			c.Wins++
		case d > 0:
			c.Losses++
		}
	}
	c.Base, c.Change = quartiles(base), quartiles(change)
	return c
}

// quartiles returns [q1, median, q3] of the non-empty xs, interpolating
// linearly between order statistics.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

// report prints each workload's end-to-end metrics per side.
func report(cfg benchmark, byWorkload [][]pair) {
	for _, wp := range byWorkload {
		fmt.Printf("# %s: %d pairs, seeds %d–%d, %d s runs, --trace 0\n",
			wp[0].Workload, len(wp), wp[0].Seed, wp[len(wp)-1].Seed, cfg.RunSeconds)
		fmt.Printf("%-14s %-34s %-34s %s\n", "metric", "base [q1, median, q3]", "change [q1, median, q3]", "change wins")
		for _, m := range cfg.EndToEnd {
			c := compare(m, wp)
			fmt.Printf("%-14s %-34s %-34s %d/%d\n", m.Name, fmtQ(c.Base), fmtQ(c.Change), c.Wins, len(wp))
		}
		fmt.Println()
	}
}

func fmtQ(q [3]float64) string {
	return fmt.Sprintf("[%.4g, %.4g, %.4g]", q[0], q[1], q[2])
}

// row is a bench/trajectory.jsonl row (EXPERIMENTS.md § Adding a
// trajectory row); benchpair leaves Change for the author to fill in.
type row struct {
	Change             string `json:"change"`
	Parent             string `json:"parent"`
	Date               string `json:"date"`
	SourceSHA256       string `json:"source_sha256"`
	ParentSourceSHA256 string `json:"parent_source_sha256"`
	Protocol           struct {
		Seeds   [2]int `json:"seeds"`
		Seconds int    `json:"seconds"`
		Trace   int    `json:"trace"`
		Order   string `json:"order"`
		Stats   string `json:"stats"`
	} `json:"protocol"`
	Host struct {
		NProc          int     `json:"nproc"`
		CPU            string  `json:"cpu"`
		StealPctMedian float64 `json:"steal_pct_median"`
		StealPctMax    float64 `json:"steal_pct_max"`
	} `json:"host"`
	Workloads map[string]workloadRow `json:"workloads"`
}

type workloadRow struct {
	Pairs   int                  `json:"pairs"`
	Metrics map[string]metricRow `json:"metrics"`
}

type metricRow struct {
	Parent [3]float64 `json:"parent"`
	Change [3]float64 `json:"change"`
	Wins   int        `json:"wins"`
}

// trajectoryRow is the comparison as a bench/trajectory.jsonl row.
func trajectoryRow(cfg benchmark, baseCommit string, byWorkload [][]pair) row {
	first := byWorkload[0][0]
	r := row{
		Parent:             baseCommit,
		Date:               time.Now().UTC().Format("2006-01-02"),
		SourceSHA256:       first.Change.SourceHash,
		ParentSourceSHA256: first.Base.SourceHash,
		Workloads:          map[string]workloadRow{},
	}
	r.Protocol.Seeds = [2]int{firstSeed, firstSeed + pairs - 1}
	r.Protocol.Seconds = cfg.RunSeconds
	r.Protocol.Order = "alternating, parent first in even pairs"
	r.Protocol.Stats = "[q1, median, q3]"
	var steal []float64
	for _, wp := range byWorkload {
		wr := workloadRow{Pairs: len(wp), Metrics: map[string]metricRow{}}
		for _, m := range cfg.EndToEnd {
			c := compare(m, wp)
			wr.Metrics[m.Name] = metricRow{Parent: c.Base, Change: c.Change, Wins: c.Wins}
		}
		r.Workloads[wp[0].Workload] = wr
		for _, p := range wp {
			steal = append(steal, p.Base.StealPct, p.Change.StealPct)
		}
	}
	sort.Float64s(steal)
	r.Host.NProc = first.Change.NProc
	r.Host.CPU = cpuModel()
	r.Host.StealPctMedian = quartiles(steal)[1]
	r.Host.StealPctMax = steal[len(steal)-1]
	return r
}

// cpuModel is the host's CPU model name, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
