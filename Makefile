GO ?= go

.PHONY: all build vet test race check bench

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The race run exercises the sweep engine's parallel fan-out: the root
# package's determinism tests run every registered experiment with
# workers=8, and internal/exp's tests drive Sweep directly.
race:
	$(GO) test -race ./...

check: build vet race

# Benchmark evidence for the data-plane fast path: the Figure 1 macro run
# (events/sec, B/op, allocs/op end to end), the PR5 procedural-topology
# macro cells (100-router grid, 500-router Barabási–Albert with 2000
# mobile nodes), link delivery and multicast fan-out micro-benches,
# scheduler dispatch cost, the PR2 observability benches, and the PR4
# impairment-hook cost (the /off case must match BenchmarkMulticastFanout's
# allocs/op exactly — the hooks are free when Impair == nil), the PR6
# engine head-to-head (one scale cell per registered multicast engine, with
# PIM control KB and convergence time as reported metrics), and the PR7
# telemetry cells: BenchmarkTelemetryOverhead prices the sampler set on the
# Figure 1 macro run (/off must match BenchmarkFigure1Macro) and
# BenchmarkHandleOps prices the metric handles themselves (the nil-registry
# case must stay 0 allocs/op), and the PR9 checkpoint cells:
# BenchmarkRampAmortization prices the chaos warm-prefix fork paths (cold vs
# live-fork vs replay-fork — the live-fork delta is the ramp the daemon's
# checkpoint pool amortizes away). Output is the `go test -json` event
# stream; baseline numbers are documented in EXPERIMENTS.md.
# scripts/compare_bench.sh diffs the two most recent BENCH_PR*.json and
# fails on macro regressions.
# The macro cells get a time-based -benchtime so the multi-second runs
# (ba-r500 is ~7 s/op) average several iterations per result line: a
# single iteration swings ±20% with machine state, which is exactly the
# compare_bench.sh gate threshold.
bench:
	$(GO) test -json -run '^$$' -benchmem -benchtime 15s \
		-bench 'BenchmarkFigure1Macro|BenchmarkScaleTopology|BenchmarkShardedTimeline|BenchmarkEngineComparison|BenchmarkTelemetryOverhead' \
		./bench > BENCH_PR13.json
	$(GO) test -json -run '^$$' -benchmem \
		-bench 'BenchmarkLinkDelivery|BenchmarkMulticastFanout|BenchmarkImpairmentFanout|BenchmarkFragmentationPath|BenchmarkStep|BenchmarkNilRecorderHooks|BenchmarkObsOverhead|BenchmarkSteadyStateForwarding|BenchmarkHandleOps|BenchmarkRampAmortization|BenchmarkApproachComparison' \
		./internal/netem ./internal/sim ./internal/obs ./internal/telemetry ./bench . >> BENCH_PR13.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_PR13.json | sed 's/"Output":"//;s/\\n$$//' || true
