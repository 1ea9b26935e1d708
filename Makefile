GO ?= go

.PHONY: check vet build test race bench bench-check bench-compare stat-smoke fuzz-smoke fuzz-native soak soak-smoke load-shard-smoke verify-smoke crash-smoke wire-smoke trace-smoke loc

# check is the tier-1 gate: vet, build, full tests, and a short
# race-detector pass over the concurrency-bearing packages.
check: vet build test race

# The second line keeps rtnet's non-Linux sleep (sleep_other.go), which no
# test here can run, compiling; the third fails on any file gofmt would
# change.
vet:
	$(GO) vet ./...
	GOOS=darwin $(GO) vet ./internal/rtnet/
	@out=$$(gofmt -l *.go bench cmd examples internal); test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./internal/rtnet/ ./internal/serve/ ./internal/harness/ ./internal/lincheck/ ./internal/sim/ ./internal/core/ ./internal/adversary/ ./internal/obs/ ./internal/bmc/

bench:
	$(GO) test -bench . -benchmem ./...

# bench-check compiles and tests the repository benchmark (bench/, a
# module of its own that `go build ./...` at the root does not reach)
# against the current code: a change to an API the benchmark imports
# fails here, not in the driver.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-compare is the determinism smoke for the zero-allocation engine
# and the verifier's pooled kits: a short run of the engine and runner
# benchmarks (they must still pass), then tables, fuzz and verify outputs
# re-generated at different parallelism levels and compared byte for
# byte. Each command's exit status is pinned too: 1 for the aop-no-eps
# fuzz (a single-target run that reports a violation), 0 for the rest. A
# worker reuses one node set, table and checker across schedules, so
# state leaking from one schedule into the next shows as output that
# depends on how schedules fall to workers.
bench-compare:
	$(GO) test -run xxx -bench 'BenchmarkEngineEvents|BenchmarkTimerChurn|BenchmarkRunnerRun$$' -benchtime 10x -benchmem ./internal/sim/ ./internal/adversary/
	$(GO) build -o /tmp/lintime-bench-compare ./cmd/lintime
	/tmp/lintime-bench-compare tables -measured -parallel 1 > /tmp/bench-compare-tables-p1.txt
	/tmp/lintime-bench-compare tables -measured -parallel 4 > /tmp/bench-compare-tables-p4.txt
	cmp /tmp/bench-compare-tables-p1.txt /tmp/bench-compare-tables-p4.txt
	/tmp/lintime-bench-compare fuzz -budget 500 -seed 1 -parallel 1 > /tmp/bench-compare-fuzz-p1.txt
	/tmp/lintime-bench-compare fuzz -budget 500 -seed 1 -parallel 8 > /tmp/bench-compare-fuzz-p8.txt
	cmp /tmp/bench-compare-fuzz-p1.txt /tmp/bench-compare-fuzz-p8.txt
	for entry in "0 verify" "0 verify -mutant all" "0 verify -backend quorum -d 8 -u 6 -ops 2" \
		"0 fuzz -backend sequencer -budget 300 -seed 1" "0 fuzz -strong -n 3 -seed 7 -budget 80" \
		"1 fuzz -mutant aop-no-eps -budget 500 -seed 1" "0 fuzz -mutant all -budget 200 -seed 1"; do \
		want=$${entry%% *}; args=$${entry#* }; \
		/tmp/lintime-bench-compare $$args -parallel 1 > /tmp/bench-compare-p1.txt; s1=$$?; \
		/tmp/lintime-bench-compare $$args -parallel 4 > /tmp/bench-compare-p4.txt; s4=$$?; \
		[ $$s1 = $$want ] && [ $$s4 = $$want ] && cmp /tmp/bench-compare-p1.txt /tmp/bench-compare-p4.txt || \
			{ echo "bench-compare: lintime $$args: exit $$s1 at -parallel 1, $$s4 at 4 (want $$want), or outputs differ"; exit 1; }; \
	done
	@echo "bench-compare: outputs byte-identical across parallelism levels"

# stat-smoke boots a live load run with the observability endpoint on,
# reads it back with `lintime stat -once -require-slo` (nonzero exit on
# an SLO violation), scrapes /metrics for the labelled latency family,
# and requires the final JSONL snapshot (-obs-out) to have been written.
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
	test -s /tmp/stat-smoke.jsonl
	@echo "stat-smoke: live endpoint, stat verdict, and final snapshot OK"

# trace-smoke is CI's causal-tracing gate: the deterministic `lintime
# trace` goldens (the command itself fails unless every tree's terms sum
# exactly to its measured latency), the attribution-identity property
# tests and the serve/rtnet tracing integrations under the race
# detector, then a live traced load run — flight recorder on — and a
# quorum trace export to prove the Chrome JSON path end to end.
trace-smoke:
	$(GO) test -count=1 -run 'TestGoldenTrace|TestCmdTraceErrors' ./cmd/lintime/
	$(GO) test -race -count=1 -run 'TestAttributionIdentityAllBackends|TestTracingDoesNotPerturbExecution' ./internal/harness/
	$(GO) test -race -count=1 -run 'TestServerTracing|TestSpanLifecycle|TestCollector' ./internal/serve/ ./internal/rtnet/ ./internal/obs/
	$(GO) run ./cmd/lintime load -n 3 -clients 4 -duration 3s -trace 64 -seed 1 -require-slo
	$(GO) run ./cmd/lintime trace -backend quorum -ops 3 -o /tmp/trace-smoke.json
	@echo "trace-smoke: goldens, race-hardened tracing tests, and live traced load OK"

# fuzz-smoke runs a deterministic adversarial-schedule campaign: the full
# mutant kill matrix (the command exits nonzero when the control row is
# flagged) plus a sweep of the corrected algorithm, which exits nonzero
# on any violation.
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

# load-shard-smoke is CI's sharded serving gate: a short zipfian keyed
# run across 4 in-process shard clusters with heterogeneous per-shard X,
# the per-shard SLO check (-require-slo: the command fails unless every
# class meets its budget, in aggregate and on every shard) and per-object
# linearizability verification. Also runs the race-hardened sharded soak
# (drain under load, routing invariant, phase-segmented per-object
# checks) and the shard goldens.
load-shard-smoke:
	$(GO) test -race -count=1 -run 'TestSoakSharded|TestShardDrainUnderLoad|TestMisroutedWriteCaught' ./internal/serve/ -soak 5s -v
	$(GO) test -count=1 -run 'TestGoldenServeDryRunSharded|TestShardForPinned' ./cmd/lintime/ ./internal/serve/
	$(GO) run ./cmd/lintime load -n 3 -clients 6 -duration 6s \
		-shards 4 -shard-x 5,10,15,20 -keys 32 -zipf 1.3 -check-objects \
		-mix "enqueue=2,dequeue=2,peek=1" -seed 1 -require-slo -o /tmp/load-shard-smoke.json
	@echo "load-shard-smoke: sharded SLO and per-object checks OK"

# fuzz-native runs the Go native fuzzers briefly against their checked-in
# corpora (coverage-guided; not deterministic — a finder, not a gate).
fuzz-native:
	$(GO) test -fuzz '^FuzzCheck$$' -fuzztime 20s ./internal/lincheck/
	$(GO) test -fuzz '^FuzzCheckStrong$$' -fuzztime 15s ./internal/lincheck/
	$(GO) test -fuzz FuzzTimeArith -fuzztime 10s ./internal/simtime/
	$(GO) test -fuzz FuzzQuorum -fuzztime 20s ./internal/adversary/
	$(GO) test -fuzz FuzzFrame -fuzztime 20s ./internal/serve/

# wire-smoke is CI's wire-protocol gate: the two-client soak (two TCP
# clients pipelining keyed ops against one sharded router under the race
# detector, with per-object linearizability checks), the codec
# round-trip, the hello-refusal (wrong version, legacy JSON client),
# oversize and allocation-floor regressions (the codec's and the
# in-process CallKey's), and the FuzzFrame seed-corpus replay against the
# JSON value reference.
wire-smoke:
	$(GO) test -race -count=1 -run 'TestMixedProtocolShardedLoad|TestBinaryClientRoundTrip|TestBinaryVersionRejected|TestOversized' ./internal/serve/ -v
	$(GO) test -count=1 -run 'FuzzFrame|TestWire|TestCallKeyAllocs' ./internal/serve/
	@echo "wire-smoke: two-client soak, codec regressions, and fuzz corpus OK"

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
# the n=2, 3-op smoke space for the corrected algorithm (the command
# exits nonzero unless it is clean; the strong sweep reports the four
# known linearizable-but-not-strongly-linearizable contexts without
# failing), the exhaustive mutant kill matrix over
# the same space, and the pinned goldens for both reports, the kill
# matrix on every registered data type and the strong-linearizability
# fork hunt. TestGoldenVerifyTimers also checks that a target's Timers
# value reproduces each timers-only core mutant's sweep and fuzz reports.
verify-smoke:
	$(GO) run ./cmd/lintime verify
	$(GO) run ./cmd/lintime verify -mutant all
	$(GO) test -count=1 -run 'TestGoldenVerify|TestGoldenFuzzStrong' ./cmd/lintime/

# loc prints the number the ROADMAP's "net non-test LOC should fall" aim
# tracks: non-test Go lines outside the benchmark module.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l
