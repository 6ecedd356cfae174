#!/bin/sh
# verify.sh — the repo's full verification gate (also: `make verify`).
#
# Runs the tier-1 checks from ROADMAP.md plus formatting, vet, the
# determinism-invariant analyzers (cmd/wlvet) and the race detector over
# every package. Keep this green before every commit: wlvet is what
# keeps wall-clock reads and unseeded randomness out of the simulation,
# and the full-tree race pass is what keeps concurrency honest wherever
# internal/sim's worker-pool results flow.
set -eu

cd "$(dirname "$0")/.."

# gofmt walks hidden directories too, so hand it the tree's Go files
# without .bench_build/, where the benchmark builds and cmd/benchpair
# checks out the base revision.
echo "== gofmt -l"
unformatted=$(find . -name .bench_build -prune -o -name '*.go' -print | xargs gofmt -l)
if [ -n "$unformatted" ]; then
	echo "gofmt: unformatted files:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

# -summary prints the per-rule findings/suppressed table even when the
# tree is clean, so every gate run shows which invariants were checked.
echo "== go run ./cmd/wlvet -summary ./..."
go run ./cmd/wlvet -summary ./...

echo "== go build ./..."
go build ./...

# The examples are runnable documentation with no tests of their own;
# build them explicitly so an API change that breaks one fails the gate
# by name rather than hiding inside the tree build above.
echo "== go build ./examples/..."
go build ./examples/...

# cmd/perfbench (the repository benchmark) is its own module, so the
# ./... passes above skip it. Vet and test it under the environment its
# run.sh sets, so a change that removes internal API the benchmark calls
# fails the gate instead of the benchmark, and its
# TestMetricsMatchBenchmarkJSON keeps it and BENCHMARK.json in step.
echo "== (cd cmd/perfbench && go vet . && go test .)"
(cd cmd/perfbench && GOWORK=off GOFLAGS= GOPROXY=off go vet .)
(cd cmd/perfbench && GOWORK=off GOFLAGS= GOPROXY=off go test .)

# The reboot example checks itself: it exits non-zero if a snapshot and
# restore lose a link, a retired page or a spare (paper §III-A).
echo "== go run ./examples/reboot"
go run ./examples/reboot

# The test pass doubles as the coverage gate: the profile feeds a
# ratchet floor (raise COVER_MIN when coverage rises; never lower it)
# and coverage.html, which CI publishes as an artifact.
COVER_MIN=67.8
echo "== go test -coverprofile=coverage.out ./..."
go test -coverprofile=coverage.out ./...
total=$(go tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
if awk -v got="$total" -v min="$COVER_MIN" 'BEGIN { exit !(got < min) }'; then
	echo "coverage regression: total ${total}% is below the ${COVER_MIN}% floor" >&2
	exit 1
fi
echo "coverage: ${total}% (floor ${COVER_MIN}%)"
go tool cover -html=coverage.out -o coverage.html

# One iteration of each PCM device benchmark. Their set-up drives chips
# into specific regimes (BenchmarkWriteNearFailure checks that it got
# there), so a set-up that breaks fails the gate instead of rotting.
echo "== go test -run '^\$' -bench . -benchtime 1x ./internal/pcm"
go test -run '^$' -bench . -benchtime 1x ./internal/pcm

# Likewise for WL-Reviver: BenchmarkChainArenaWalk's set-up must still
# form a failure chain to walk, or it fails by name here.
echo "== go test -run '^\$' -bench . -benchtime 1x ./internal/reviver"
go test -run '^$' -bench . -benchtime 1x ./internal/reviver

# And for the workload samplers: BenchmarkWorkloadBatch must still build
# every Table I workload at bench geometry.
echo "== go test -run '^\$' -bench . -benchtime 1x ./internal/trace"
go test -run '^$' -bench . -benchtime 1x ./internal/trace

# And for the daemon's write-body decoder: BenchmarkWriteBodyDecode
# must still decode its body.
echo "== go test -run '^\$' -bench . -benchtime 1x ./internal/serve"
go test -run '^$' -bench . -benchtime 1x ./internal/serve

echo "== go test -race ./..."
go test -race ./...

echo "verify: all checks passed"
