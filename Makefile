GO ?= go

.PHONY: check vet build test race bench bench-check bench-engine bench-compare bench-guard stat-smoke fuzz-smoke fuzz-native soak soak-smoke load-bench load-shard-smoke verify-smoke crash-smoke wire-bench wire-smoke trace-smoke

# check is the tier-1 gate: vet, build, full tests, and a short
# race-detector pass over the concurrency-bearing packages.
check: vet build test race

# The second line keeps rtnet's non-Linux sleep (sleep_other.go), which no
# test here can run, compiling.
vet:
	$(GO) vet ./...
	GOOS=darwin $(GO) vet ./internal/rtnet/

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./internal/rtnet/ ./internal/serve/ ./internal/harness/ ./internal/lincheck/ ./internal/sim/ ./internal/adversary/ ./internal/obs/ ./internal/strongcheck/ ./internal/bmc/

bench:
	$(GO) test -bench . -benchmem ./...

# bench-check compiles and tests the repository benchmark (bench/, a
# module of its own that `go build ./...` at the root does not reach)
# against the current code: a change to an API the benchmark imports
# fails here, not in the driver.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-engine reruns the engine-heavy benchmarks (event loop, timer
# churn, fuzz-campaign batch, linearizability checker, table pipeline) and
# folds them into the "after" side of BENCH_engine.json; the checked-in
# "before" side is the pre-optimization baseline (pointer-heap engine, no
# reuse; for the checker, the per-history string-keyed search), so the
# delta_pct section always reads against that fixed reference.
bench-engine:
	$(GO) test -run xxx -bench 'BenchmarkEngineEvents|BenchmarkTimerChurn' -benchmem ./internal/sim/ | $(GO) run ./cmd/benchjson -set after -o BENCH_engine.json
	$(GO) test -run xxx -bench 'BenchmarkFuzzCampaign|BenchmarkRunnerRun' -benchmem ./internal/adversary/ | $(GO) run ./cmd/benchjson -set after -o BENCH_engine.json
	$(GO) test -run xxx -bench 'BenchmarkCheck' -benchmem ./internal/lincheck/ | $(GO) run ./cmd/benchjson -set after -o BENCH_engine.json
	$(GO) test -run xxx -bench 'BenchmarkAllTables/parallel=4' -benchmem . | $(GO) run ./cmd/benchjson -set after -o BENCH_engine.json

# bench-compare is the determinism smoke for the zero-allocation engine:
# a short run of the engine benchmarks (they must still pass), then tables
# and fuzz outputs re-generated at different parallelism levels and
# compared byte for byte.
bench-compare:
	$(GO) test -run xxx -bench 'BenchmarkEngineEvents|BenchmarkTimerChurn' -benchtime 10x -benchmem ./internal/sim/
	$(GO) build -o /tmp/lintime-bench-compare ./cmd/lintime
	/tmp/lintime-bench-compare tables -all -parallel 1 > /tmp/bench-compare-tables-p1.txt
	/tmp/lintime-bench-compare tables -all -parallel 4 > /tmp/bench-compare-tables-p4.txt
	cmp /tmp/bench-compare-tables-p1.txt /tmp/bench-compare-tables-p4.txt
	/tmp/lintime-bench-compare fuzz -budget 500 -seed 1 -parallel 1 > /tmp/bench-compare-fuzz-p1.txt
	/tmp/lintime-bench-compare fuzz -budget 500 -seed 1 -parallel 8 > /tmp/bench-compare-fuzz-p8.txt
	cmp /tmp/bench-compare-fuzz-p1.txt /tmp/bench-compare-fuzz-p8.txt
	@echo "bench-compare: outputs byte-identical across parallelism levels"

# bench-guard asserts the instrumented-but-disabled engine stays on the
# zero-overhead budget recorded in BENCH_engine.json: ns/op within 5% of
# the ledger's after side, and allocs/op not increasing at all. The wire
# round-trip line pins the tracing-off codec floor the same way — an
# untraced binary request must stay byte-identical and allocation-flat
# (2 allocs/op) no matter how much the tracing subsystem grows; the
# looser -pct absorbs sub-200ns wall jitter on shared CI runners. The
# RunnerRun line holds what one schedule allocates end to end (engine run,
# admissibility, pooled linearizability checker) at the recorded floor;
# its ns/op, ≈ 10 µs of mixed work, only has to stay within half again.
bench-guard:
	$(GO) test -run xxx -bench BenchmarkEngineEvents -benchmem -benchtime 2s ./internal/sim/ | \
		$(GO) run ./cmd/benchjson -guard -pct 5 -o BENCH_engine.json
	$(GO) test -run xxx -bench 'BenchmarkWireBinary' -benchmem -benchtime 2s ./internal/serve/ | \
		$(GO) run ./cmd/benchjson -guard -pct 25 -o BENCH_engine.json
	$(GO) test -run xxx -bench 'BenchmarkRunnerRun' -benchmem -benchtime 2s ./internal/adversary/ | \
		$(GO) run ./cmd/benchjson -guard -pct 50 -o BENCH_engine.json

# stat-smoke boots a live load run with the observability endpoint on,
# reads it back with `lintime stat -once -require-slo` (nonzero exit on
# an SLO violation), scrapes /metrics for the labelled latency family,
# and folds the final JSONL snapshot into a throwaway ledger.
stat-smoke:
	$(GO) build -o /tmp/lintime-stat-smoke ./cmd/lintime
	/tmp/lintime-stat-smoke load -n 3 -clients 4 -duration 6s -seed 1 \
		-metrics-addr 127.0.0.1:9173 -obs-out /tmp/stat-smoke.jsonl \
		> /tmp/stat-smoke-load.txt & \
	LOAD_PID=$$!; \
	sleep 3; \
	/tmp/lintime-stat-smoke stat -addr 127.0.0.1:9173 -once -require-slo && \
	wget -qO- http://127.0.0.1:9173/metrics | grep -q 'serve_latency_ticks{class="MOP"' && \
	wait $$LOAD_PID
	$(GO) run ./cmd/benchjson -snapshots /tmp/stat-smoke.jsonl -set after -o /tmp/stat-smoke-ledger.json
	@echo "stat-smoke: live endpoint, stat verdict, and snapshot fold OK"

# trace-smoke is CI's causal-tracing gate: the deterministic `lintime
# trace` goldens (the command itself fails unless every tree's terms sum
# exactly to its measured latency), the attribution-identity property
# tests and the serve/rtnet tracing integrations under the race
# detector, then a live traced load run — flight recorder on — and a
# quorum trace export to prove the Chrome JSON path end to end.
trace-smoke:
	$(GO) test -count=1 -run 'TestGoldenTrace|TestCmdTraceErrors' ./cmd/lintime/
	$(GO) test -race -count=1 -run 'TestAttributionIdentityAllBackends|TestTracingDoesNotPerturbExecution' ./internal/harness/
	$(GO) test -race -count=1 -run 'TestServerTracing|TestSpanLifecycle|TestCollector|TestRingWrapOrder|TestRingPartiallyEvictedSpan' ./internal/serve/ ./internal/rtnet/ ./internal/obs/
	$(GO) run ./cmd/lintime load -n 3 -clients 4 -duration 3s -trace 64 -seed 1 -require-slo
	$(GO) run ./cmd/lintime trace -backend quorum -ops 3 -o /tmp/trace-smoke.json
	@echo "trace-smoke: goldens, race-hardened tracing tests, and live traced load OK"

# fuzz-smoke runs a deterministic adversarial-schedule campaign: the full
# mutant kill matrix (the command exits nonzero when the control row is
# flagged) plus a clean sweep of the corrected algorithm.
fuzz-smoke:
	$(GO) run ./cmd/lintime fuzz -budget 200 -seed 1 -mutant all
	$(GO) run ./cmd/lintime fuzz -budget 500 -seed 1

# soak-smoke is CI's short serving soak: a 5s race-hardened closed-loop
# run (linearizability + graceful drain + leak checks) plus the
# deterministic load-summary golden check.
soak-smoke:
	$(GO) test -race -count=1 -run TestSoakClosedLoop ./internal/serve/ -soak 5s -v
	$(GO) test -count=1 -run "TestGoldenServeDryRun|TestGoldenLoadSim" ./cmd/lintime/

# soak is the full 30-second serving soak under the race detector.
soak:
	$(GO) test -race -count=1 -run TestSoakClosedLoop ./internal/serve/ -soak 30s -v -timeout 300s

# load-bench drives the closed-loop load generator against an in-process
# sharded deployment (4 shards, 32 named objects, 8 clients each keeping
# 8 ops in flight) and records per-class and per-shard latency quantiles
# next to the paper's formulas; -require-slo fails if any class's p99 —
# on any shard — exceeds its formula plus the scheduling-jitter budget,
# and -check-objects verifies routing and per-object linearizability.
# The benchjson serve guard then re-validates the written ledger,
# including the throughput floor (5× the pre-pipelining 173 ops/sec
# baseline; the pipelined run lands around 1400-1500). Keys are uniform
# on purpose: pipelining multiplies the per-key concurrency, and a
# zipf hot key would both concentrate that on one shard and leave long
# runs of concurrent enqueues order-ambiguous, sending the per-object
# linearizability check into exponential backtracking. The mix is
# dequeue-balanced for the same reason (bounded queues).
load-bench:
	$(GO) run ./cmd/lintime load -n 5 -clients 8 -duration 10s -tick 250us \
		-pipeline 8 -shards 4 -keys 32 -check-objects \
		-mix "enqueue=2,dequeue=2,peek=1" -seed 1 -require-slo -o BENCH_serve.json
	$(GO) run ./cmd/benchjson -serve BENCH_serve.json -min-ops 870

# load-shard-smoke is CI's sharded serving gate: a short zipfian keyed
# run across 4 in-process shard clusters with heterogeneous per-shard X,
# the per-shard SLO check, per-object linearizability verification, and
# the benchjson serve guard over the emitted summary. Also runs the
# race-hardened sharded soak (drain under load, routing invariant,
# phase-segmented per-object checks) and the shard goldens.
load-shard-smoke:
	$(GO) test -race -count=1 -run 'TestSoakSharded|TestShardDrainUnderLoad|TestMisroutedWriteCaught' ./internal/serve/ -soak 5s -v
	$(GO) test -count=1 -run 'TestGoldenServeDryRunSharded|TestShardForPinned' ./cmd/lintime/ ./internal/serve/
	$(GO) run ./cmd/lintime load -n 3 -clients 6 -duration 6s \
		-shards 4 -shard-x 5,10,15,20 -keys 32 -zipf 1.3 -check-objects \
		-mix "enqueue=2,dequeue=2,peek=1" -seed 1 -require-slo -o /tmp/load-shard-smoke.json
	$(GO) run ./cmd/benchjson -serve /tmp/load-shard-smoke.json
	@echo "load-shard-smoke: sharded SLO, per-object checks, and serve guard OK"

# fuzz-native runs the Go native fuzzers briefly against their checked-in
# corpora (coverage-guided; not deterministic — a finder, not a gate).
fuzz-native:
	$(GO) test -fuzz FuzzCheck -fuzztime 20s ./internal/lincheck/
	$(GO) test -fuzz FuzzCheckStrong -fuzztime 15s ./internal/strongcheck/
	$(GO) test -fuzz FuzzTimeArith -fuzztime 10s ./internal/simtime/
	$(GO) test -fuzz FuzzQuorum -fuzztime 20s ./internal/adversary/
	$(GO) test -fuzz FuzzFrame -fuzztime 20s ./internal/serve/

# wire-bench measures the two codecs' encode+decode round-trips side by
# side (request and response, JSON vs binary) and folds the numbers into
# the after side of BENCH_engine.json.
wire-bench:
	$(GO) test -run xxx -bench 'BenchmarkWire' -benchmem ./internal/serve/ | \
		$(GO) run ./cmd/benchjson -set after -o BENCH_engine.json

# wire-smoke is CI's wire-protocol gate: the mixed-protocol soak (one
# JSON and one binary client pipelining keyed ops against one sharded
# router under the race detector, with per-object linearizability
# checks), the codec round-trip and oversize/negotiation regressions,
# the FuzzFrame seed-corpus replay against the JSON reference oracle,
# and the benchjson serve guard over the checked-in load ledger with
# the pipelined throughput floor.
wire-smoke:
	$(GO) test -race -count=1 -run 'TestMixedProtocolShardedLoad|TestBinaryClientRoundTrip|TestLegacyJSONRawFrames|TestBinaryVersionRejected|TestOversized' ./internal/serve/ -v
	$(GO) test -count=1 -run 'FuzzFrame|TestWire' ./internal/serve/
	$(GO) run ./cmd/benchjson -serve BENCH_serve.json -min-ops 870
	@echo "wire-smoke: mixed-protocol soak, codec regressions, fuzz corpus, and throughput floor OK"

# crash-smoke is CI's crash-tolerance gate: the rtnet crash regressions
# and serve crash tests under the race detector, the FuzzQuorum seed
# corpus (deterministic replay, no -fuzz), a bounded exhaustive sweep of
# the quorum backend's crash-augmented space with its full mutant kill
# matrix, the fuzzing kill matrix with fault axes, and a live quorum load
# run that crashes a minority mid-run and must still meet the 4d SLO.
crash-smoke:
	$(GO) test -race -count=1 -run 'TestCrash|TestServerQuorum|TestServerAllCrashed|TestRunLoadQuorumCrashMidRun' ./internal/rtnet/ ./internal/serve/ -v
	$(GO) test -count=1 -run 'FuzzQuorum|TestGoldenVerifyQuorum|TestGoldenFuzzQuorumKillMatrix|TestGoldenLoadSimQuorum' ./internal/adversary/ ./cmd/lintime/
	$(GO) run ./cmd/lintime verify -backend quorum -d 8 -u 6 -ops 2
	$(GO) run ./cmd/lintime verify -backend quorum -d 8 -u 6 -ops 2 -mutant all
	$(GO) run ./cmd/lintime fuzz -backend quorum -n 3 -d 8 -u 6 -budget 16384 -seed 1 -mutant all
	$(GO) run ./cmd/lintime load -backend quorum -n 3 -clients 6 -duration 10s \
		-crash 2@5s -seed 1 -require-slo -o /tmp/crash-smoke-load.json
	@echo "crash-smoke: crash regressions, exhaustive quorum sweep, kill matrices, and crashed-minority load OK"

# verify-smoke is CI's bounded-model-check gate: an exhaustive sweep of
# the n=2, 3-op smoke space for the corrected algorithm (must be clean,
# with the four known linearizable-but-not-strongly-linearizable contexts
# reported by the strong sweep), the exhaustive mutant kill matrix over
# the same space, and the pinned goldens for both reports plus the
# strong-linearizability fork hunt.
verify-smoke:
	$(GO) run ./cmd/lintime verify
	$(GO) run ./cmd/lintime verify -mutant all
	$(GO) test -count=1 -run 'TestGoldenVerify|TestGoldenFuzzStrong' ./cmd/lintime/
