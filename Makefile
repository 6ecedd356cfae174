# Convenience targets; scripts/verify.sh is the canonical gate.

.PHONY: build test verify metrics microbench paper fuzz serve-smoke

build:
	go build ./...

test:
	go test ./...

# Full verification gate: gofmt + vet + wlvet (determinism invariants)
# + build + tests + race over every package. ROADMAP.md's tier-1 line
# points here.
verify:
	sh scripts/verify.sh

# Engine observability dump: every engine's event counters and snapshot
# series from the full experiment suite at the reduced tiny scale, as
# METRICS_<timestamp>.json (schema in EXPERIMENTS.md, "Metrics JSON";
# CI uploads it as an artifact).
metrics:
	go run ./cmd/paper -scale tiny -exp all -metrics METRICS_$$(date +%Y%m%d-%H%M%S).json

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
