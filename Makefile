GO ?= go

.PHONY: build test check bench bench-json bench-contention bench-contention-smoke bench-e21 bench-replay-smoke profile-replay serve-smoke torture clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-commit gate: gofmt cleanliness, vet, the full test
# suite, a race-enabled short pass (the engine/runner/chaos tests are
# where races would hide, and the paper-suite golden test, whose
# experiments run their cells and custom machines concurrently), fuzz
# smokes over the crash-recovery scanner, the invariant auditor and
# the reuse analyzer, the golden-audit gate (the quick experiment
# matrix must be conservation-clean under strict audit) and the
# sampling validation gate (1/8 set sampling within 2% on every
# standard machine).
check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt: needs formatting:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/engine/ ./internal/runner/ ./internal/tracestore/ ./internal/shardlru/ ./internal/sim/ ./internal/sample/ ./internal/checkpoint/ ./internal/faultfs/ ./internal/invariant/ ./internal/jobs/ ./internal/cpu/ ./internal/trace/ ./internal/mem/ ./internal/core/ ./internal/cache/ ./internal/energy/ ./internal/sttram/ ./cmd/mcserved/ ./cmd/mcsweep/
	$(GO) test -race -count=1 -run TestSuiteGolden ./internal/experiments/
	$(GO) test -run '^$$' -fuzz FuzzJournalDecode -fuzztime 5s ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz FuzzAuditReport -fuzztime 5s ./internal/invariant/
	$(GO) test -run '^$$' -fuzz FuzzReuseAnalyzer -fuzztime 5s ./internal/trace/
	$(GO) test -run TestGoldenAuditQuickMatrix -count=1 ./internal/experiments/
	$(GO) test -run TestSampleValidationQuickMatrix -count=1 ./internal/experiments/

bench:
	$(GO) test -bench=. -benchmem

# bench-json regenerates BENCH_PR4.json (pipeline performance: replay
# ns+allocs per access, quick-matrix speedup of the engine's shared
# arena vs a trace-regenerating baseline), BENCH_PR5.json (set
# sampling: quick-matrix speedup and validation errors at 1/8) and
# BENCH_PR10.json (frame-kernel replay: min/median ns per access over
# interleaved rounds — see perf_replay_test.go for the noise protocol).
bench-json:
	MC_BENCH_JSON=1 $(GO) test -run 'TestEmitBenchJSON$$|TestEmitBenchJSONPR5|TestEmitBenchJSONPR10$$' -count=1 -v .

# bench-contention regenerates BENCH_PR7.json: 32 goroutines hammering
# the warm run memo and warm trace arena, global-lock baseline vs the
# lock-striped sharded caches (throughput and aggregate mutex wait;
# see perf_contention_test.go for the methodology).
bench-contention:
	MC_BENCH_JSON=1 $(GO) test -run TestEmitBenchJSONPR7 -count=1 -v .

# bench-contention-smoke is the CI-safe structural pass: tiny op
# counts, no throughput thresholds, verifies the harness and the
# report schema (also part of the ordinary test suite).
bench-contention-smoke:
	$(GO) test -run TestContentionSmoke -short -count=1 -v .

# bench-replay-smoke is the CI perf-regression gate for the replay hot
# path: a short replay must stay allocation-free and under a generous
# structural ns/access budget (~40x the recorded steady state), so it
# catches a reintroduced per-access allocation or a decode regression
# without ever failing on a slow runner (also part of the ordinary
# test suite).
bench-replay-smoke:
	$(GO) test -run TestReplaySmoke -count=1 -v .

# profile-replay captures a CPU profile of the replay benchmark and
# dumps the pprof top table into results/ — the artifact the README's
# profiling notes and DESIGN.md's kernel-floor analysis reference.
profile-replay:
	@mkdir -p results
	$(GO) test -run '^$$' -bench BenchmarkPackedReplay -benchtime 2s \
		-cpuprofile results/replay.prof -o results/replay.test .
	$(GO) tool pprof -top -nodecount 20 results/replay.test results/replay.prof \
		| tee results/replay_pprof_top.txt

# bench-e21 regenerates the retention-fault sensitivity sweep.
bench-e21:
	$(GO) test -bench=BenchmarkE21RetentionFaults -benchmem

# torture is the crash-consistency harness: it enumerates every
# filesystem op of a checkpointed sweep and of the daemon job
# lifecycle, injects ENOSPC / fsync-EIO / short writes / simulated
# power loss at each one, reboots onto healthy storage and requires a
# byte-identical CSV or a structured error — never a silent partial.
# Race-enabled and bounded (single-digit seconds).
torture:
	$(GO) test -race -count=1 ./internal/faultfs/ ./internal/faultfs/torture/

# serve-smoke boots cmd/mcserved against a scratch store, submits a
# tiny sweep over HTTP, streams the results, downloads the CSV, checks
# /healthz, /readyz and /metrics, and requires a clean SIGTERM drain.
serve-smoke:
	sh scripts/serve_smoke.sh

clean:
	$(GO) clean ./...
