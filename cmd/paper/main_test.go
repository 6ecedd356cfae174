package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// paperBin is the CLI under test, built once by TestMain so the
// end-to-end tests exercise the real binary boundary (flags, exit
// codes, file I/O) rather than in-process calls.
var paperBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "paperbin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	paperBin = filepath.Join(dir, "paper")
	if out, err := exec.Command("go", "build", "-o", paperBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building paper: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// paper runs the built binary and returns its stdout and exit code.
func paper(t *testing.T, args ...string) (stdout string, exitCode int) {
	t.Helper()
	cmd := exec.Command(paperBin, args...)
	out, err := cmd.Output()
	if err != nil {
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) {
			t.Fatalf("paper %v: %v", args, err)
		}
		t.Logf("paper %v stderr: %s", args, exitErr.Stderr)
		return string(out), exitErr.ExitCode()
	}
	return string(out), 0
}

// goldenTable1SHA pins the byte-exact stdout of the tiny Table I run.
// The simulator guarantees this output is a pure function of (scale,
// seed): any commit that shifts it must either fix a correctness bug or
// consciously re-pin the hash (and explain the result change in the
// commit). Regenerate with:
//
//	go run ./cmd/paper -scale tiny -exp table1 -workers 1 -timing=false | sha256sum
const goldenTable1SHA = "0ef1ea466b8933621b57ef1f20998593322c0106c8696587e602a06efa5131c1"

func TestGoldenTable1Stdout(t *testing.T) {
	wantStdoutSHA(t, goldenTable1SHA, "-scale", "tiny", "-exp", "table1", "-workers", "1", "-timing=false")
}

// wantStdoutSHA runs the binary with args and fails unless it exits 0
// with stdout hashing to want.
func wantStdoutSHA(t *testing.T, want string, args ...string) {
	t.Helper()
	out, code := paper(t, args...)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	sum := sha256.Sum256([]byte(out))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("paper %v stdout hash changed:\n got %s\nwant %s\noutput:\n%s", args, got, want, out)
	}
}

// goldenTinyStdoutSHA and goldenTinyMetricsSHA pin the byte-exact
// stdout and -metrics JSON of the tiny full sweep. The JSON carries one
// entry per observer key ("<exp>/<workload>/<arm>"), so it pins every
// engine's identity and event counts as well as the printed results.
// Regenerate with:
//
//	go run ./cmd/paper -scale tiny -exp all -workers 2 -timing=false -metrics m.json | sha256sum
//	sha256sum m.json
const (
	goldenTinyStdoutSHA  = "fe122adb74e8918bbdb72134a6b7414f7209f34460ec697668cdfaa16ca713f8"
	goldenTinyMetricsSHA = "94505aad7c8b663499ae986cae01b98a337f5d34755533fbe023d3df4d371135"
)

func TestGoldenTinyMetrics(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "m.json")
	wantStdoutSHA(t, goldenTinyStdoutSHA, "-scale", "tiny", "-exp", "all", "-workers", "2", "-timing=false", "-metrics", metrics)
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != goldenTinyMetricsSHA {
		t.Errorf("-metrics JSON hash changed:\n got %s\nwant %s", got, goldenTinyMetricsSHA)
	}
}

// goldenBenchSHA pins the byte-exact stdout of the full bench-scale
// regeneration — every table and figure — under the same contract as
// goldenTable1SHA. The banner names the worker count when it exceeds
// one, so the run fixes -workers 2 to keep the hash independent of the
// host; the body is identical at every worker count. Regenerate with:
//
//	go run ./cmd/paper -scale bench -exp all -workers 2 -timing=false | sha256sum
const goldenBenchSHA = "6d36e6bf6f9f88122bfabfa91ee094906adcb1c87f88277a0272695670e46399"

// raceEnabled is set by race_test.go under the race detector, which
// slows the bench-scale run past any useful budget.
var raceEnabled bool

func TestGoldenBenchStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale regeneration takes ~20 s; run without -short")
	}
	if raceEnabled {
		t.Skip("bench-scale regeneration is too slow under -race")
	}
	wantStdoutSHA(t, goldenBenchSHA, "-scale", "bench", "-exp", "all", "-workers", "2", "-timing=false")
}

// TestShardedCLIByteIdentity is the binary-level face of the sharding
// contract: with a fixed semantic grid (-shard-grid 4), the execution
// pool width (-shards) must leave stdout and the -metrics JSON byte for
// byte unchanged. The banner is included deliberately — it names the
// grid but never the pool width.
func TestShardedCLIByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sharding differential is slow; run without -short")
	}
	dir := t.TempDir()
	var wantOut, wantJSON string
	for _, shards := range []string{"1", "7"} {
		metrics := filepath.Join(dir, "metrics-"+shards+".json")
		out, code := paper(t, "-scale", "tiny", "-exp", "fig8", "-workers", "1",
			"-shard-grid", "4", "-shards", shards, "-timing=false", "-metrics", metrics)
		if code != 0 {
			t.Fatalf("-shards %s exit code %d", shards, code)
		}
		data, err := os.ReadFile(metrics)
		if err != nil {
			t.Fatal(err)
		}
		if shards == "1" {
			wantOut, wantJSON = out, string(data)
			continue
		}
		if out != wantOut {
			t.Errorf("-shards %s stdout differs from -shards 1", shards)
		}
		if string(data) != wantJSON {
			t.Errorf("-shards %s -metrics JSON differs from -shards 1", shards)
		}
	}
}

// TestCrashResumeCLI is the binary-level differential: a run killed by
// -crash-after (exit code 3) and resumed with -resume must reproduce
// the uninterrupted run's stdout and -metrics JSON byte for byte.
func TestCrashResumeCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash/resume differential is slow; run without -short")
	}
	dir := t.TempDir()
	baseMetrics := filepath.Join(dir, "base-metrics.json")
	base, code := paper(t, "-scale", "tiny", "-exp", "fig8", "-workers", "2",
		"-timing=false", "-metrics", baseMetrics)
	if code != 0 {
		t.Fatalf("baseline exit code %d", code)
	}

	// The crashed attempt must use the same flags as the resume —
	// -metrics attaches the observer whose counters the checkpoint
	// carries across the crash.
	ckDir := filepath.Join(dir, "ck")
	_, code = paper(t, "-scale", "tiny", "-exp", "fig8", "-workers", "2",
		"-timing=false", "-metrics", filepath.Join(dir, "crashed-metrics.json"),
		"-checkpoint-dir", ckDir, "-checkpoint-every", "100000",
		"-crash-after", "300000")
	if code != 3 {
		t.Fatalf("crashed run exited %d, want 3", code)
	}

	resumeMetrics := filepath.Join(dir, "resume-metrics.json")
	resumed, code := paper(t, "-scale", "tiny", "-exp", "fig8", "-workers", "2",
		"-timing=false", "-resume", ckDir, "-metrics", resumeMetrics)
	if code != 0 {
		t.Fatalf("resumed exit code %d", code)
	}
	if resumed != base {
		t.Error("resumed stdout differs from uninterrupted run")
	}
	baseJSON, err := os.ReadFile(baseMetrics)
	if err != nil {
		t.Fatal(err)
	}
	resumeJSON, err := os.ReadFile(resumeMetrics)
	if err != nil {
		t.Fatal(err)
	}
	if string(baseJSON) != string(resumeJSON) {
		t.Error("resumed -metrics JSON differs from uninterrupted run")
	}
}
