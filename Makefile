# Convenience targets; scripts/verify.sh is the canonical gate.

.PHONY: build test verify bench benchgate bench-baseline microbench paper fuzz serve-smoke

build:
	go build ./...

test:
	go test ./...

# Full verification gate: gofmt + vet + wlvet (determinism invariants)
# + build + tests + race over every package. ROADMAP.md's tier-1 line
# points here.
verify:
	sh scripts/verify.sh

# Perf-trajectory snapshot: run the full experiment suite at the reduced
# tiny scale and record per-experiment wall-clock and writes/sec as
# BENCH_<timestamp>.json plus every engine's event counters and snapshot
# series as METRICS_<timestamp>.json, then the Figure 6 experiment on an
# 8-shard grid once per shard-pool width (1, 2, all CPUs) as
# BENCH_<timestamp>-shards<N>.json — like-for-like rows whose ratios are
# this machine's intra-engine speedup (compare with
# `go run ./cmd/paper -benchdiff old.json new.json`). EXPERIMENTS.md
# documents both JSON schemas; compare BENCH snapshots across commits to
# track the hot path.
bench:
	stamp=$$(date +%Y%m%d-%H%M%S) && \
	go run ./cmd/paper -scale tiny -exp all \
		-benchjson BENCH_$$stamp.json -metrics METRICS_$$stamp.json && \
	for n in 1 2 0; do \
		go run ./cmd/paper -scale tiny -exp fig6 -workers 1 \
			-shard-grid 8 -shards $$n -timing=false \
			-benchjson BENCH_$$stamp-shards$$n.json >/dev/null || exit 1; \
	done

# CI perf gate: rerun the tiny-scale sweep and fail if total writes/sec
# falls more than 10% below the committed baseline. The baseline is
# hardware-specific — after a deliberate perf change (or a runner-class
# change) regenerate it with `make bench-baseline` and commit the diff;
# the benchdiff table this prints shows exactly which experiment moved.
benchgate:
	go run ./cmd/paper -scale tiny -exp all -timing=false \
		-benchjson BENCH_gate.json >/dev/null
	go run ./cmd/paper -benchdiff -gate 10 bench/ci-baseline.json BENCH_gate.json

bench-baseline:
	go run ./cmd/paper -scale tiny -exp all -timing=false \
		-benchjson bench/ci-baseline.json >/dev/null

# Go-test microbenchmarks (result-shape metrics + hot-path ns/op).
microbench:
	go test -bench=. -benchmem -run '^$$' ./...

# Brief fuzzing pass over the checkpoint wire format, the engine
# restore path, WL-Reviver's reboot-image decoder, the metrics counter
# decoder, the Start-Gap mapping
# algebra, the PCM device's incremental failure-horizon rescan,
# wlserved's write-body decoder, journal replay and spec.json
# resolution, and the workload calibration's certified replay of its
# bisection. Each target's seed corpus lives in its package's
# testdata/fuzz/ and replays as part of the ordinary test suite (the CI
# smoke run); this target additionally explores new inputs for a few
# seconds each.
fuzz:
	go test ./internal/ckpt -fuzz FuzzCheckpointRoundTrip -fuzztime 10s
	go test ./internal/ckpt -fuzz FuzzDecoderNeverPanics -fuzztime 10s
	go test ./internal/wear -fuzz FuzzStartGapMapInverse -fuzztime 10s
	go test ./internal/wear -fuzz FuzzWoLFRaMMapInverse -fuzztime 10s
	go test ./internal/wear -fuzz FuzzSoftWearPageTable -fuzztime 10s
	go test ./internal/sim -fuzz FuzzRestoreRejectsCorrupt -fuzztime 10s
	go test ./internal/reviver -fuzz FuzzReviverRestore -fuzztime 10s
	go test ./internal/obs -fuzz FuzzMetricsLoadState -fuzztime 10s
	go test ./internal/pcm -fuzz FuzzHorizonSchedule -fuzztime 10s
	go test ./internal/serve -fuzz FuzzWriteBody -fuzztime 10s
	go test ./internal/serve -fuzz FuzzJournalReplay -fuzztime 10s
	go test ./internal/serve -fuzz FuzzDeviceSpec -fuzztime 10s
	go test ./internal/trace -fuzz FuzzCalibrate -fuzztime 10s

# wlserved crash-durability smoke: drive 50 devices with wlload,
# kill -9 the daemon mid-run, restart over the same spill directory and
# prove the topped-up fleet is byte-identical to an uninterrupted run.
serve-smoke:
	sh scripts/serve_smoke.sh

# Regenerate the paper's tables and figures at bench scale on all CPUs.
paper:
	go run ./cmd/paper -scale bench -exp all
