# Developer and CI entry points. `make ci` is what the GitHub Actions
# workflow runs: vet, staticcheck, build, the full test suite under the
# race detector (the incremental AGT-RAM engine shares work with pool
# workers and the cancellation tests exercise every engine's teardown, so
# the race run is load-bearing, not ceremonial), and one pass over every
# benchmark so the perf harness itself cannot rot.

GO ?= go
STATICCHECK ?= staticcheck

.PHONY: all vet staticcheck build test race bench bench-json ci fuzz faultmatrix loadtest scenarios cluster

all: build

vet:
	$(GO) vet ./...

# Skips with a notice when the binary is absent so offline checkouts still
# pass `make ci`; the GitHub workflow installs a pinned version.
staticcheck:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then 		$(STATICCHECK) ./...; 	else 		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2024.1.1)"; 	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of every benchmark: checks the harness runs, not the numbers.
bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# Machine-readable engine benchmarks: the six-method comparison
# (BenchmarkSolve) plus the AGT-RAM engine comparison at Table-1 scale
# (M=48), M=500 and M=1000 — including the incremental kernel's
# w1/w2/w4/w8 worker sweep — the distance-oracle micro-benchmarks, the
# dense/CSR/landmark solve matrix at M=1k and (BENCH_M10K=1, set here)
# M=10k with its rss-MiB peak-memory column, the routing-plane comparison
# (HTTP single vs batch vs client-side, routes/s column), and the cluster
# solve comparison with its per-phase metrics (region-solve-ns,
# assign-bytes, ... — gated in CI via benchjson -gate-metrics) — parsed
# into a JSON artifact (BENCH_*.json, CI regression gate). Tune with
#   make bench-json BENCH_PATTERN='AGTRAMEnginesLarge' BENCHTIME=10x BENCH_OUT=pr.json
BENCH_PATTERN ?= AGTRAMEngines|Solve$$|DistOracle
BENCHTIME ?= 5x
BENCH_OUT ?= BENCH.json
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime $(BENCHTIME) . > bench.out
	BENCH_M10K=1 $(GO) test -run '^$$' -bench 'OracleSolve/M10k' -benchmem -benchtime 1x . >> bench.out
	$(GO) test -run '^$$' -bench 'RoutingPlane' -benchmem -benchtime $(BENCHTIME) ./internal/server >> bench.out
	$(GO) test -run '^$$' -bench 'ClusterSolve' -benchmem -benchtime $(BENCHTIME) ./internal/cluster >> bench.out
	@cat bench.out
	$(GO) run ./cmd/benchjson -o $(BENCH_OUT) < bench.out
	@rm -f bench.out

# The fault-matrix suite: injected crashes, truncated frames, severed and
# slow links against both wire engines, invalid bids from a hand-written
# peer (and the FuzzWireBids seed corpus), plus the fault-free differential
# check, run twice under the race detector so eviction paths and teardown
# cannot hide behind a lucky schedule.
faultmatrix:
	$(GO) test -race -count=2 -run 'TestFault|TestSolveTCP|TestEvicted|TestDifferentialEngines|TestWire|FuzzWireBids' ./internal/agtram
	$(GO) test -race -count=2 ./internal/faultnet

# The daemon's concurrency load tests plus the routing-plane benchmark.
# Load: /route reads race delta batches and background solves; SSE/long-poll
# epoch subscribers verify a gapless version sequence under the same churn;
# the controller-level journal suite and the routing client's differential
# tests run alongside — all under the race detector with goroutine-leak
# checking, twice so the RCU swap cannot pass on one lucky schedule.
# Bench: server-side vs client-side routing throughput (routes/s + tail
# latency), parsed into BENCH_7.json for the CI compare gate.
loadtest:
	$(GO) test -race -count=2 -run 'TestRouteUnderConcurrentDeltas|TestEpochStreamUnderLoad|TestRouteHandlerZeroAlloc' ./internal/server
	$(GO) test -race -count=2 -run 'TestConcurrentSubscribersGapless|TestSubscribe|TestSlowSubscriber|TestDrainSubscribers' ./internal/online
	$(GO) test -race -count=2 ./internal/routing
	$(GO) test -run '^$$' -bench 'RoutingPlane' -benchmem -benchtime 2s ./internal/server | tee routing_bench.out
	$(GO) run ./cmd/benchjson -o BENCH_7.json < routing_bench.out
	@rm -f routing_bench.out

# The adversarial-workload scenario matrix. Tests: every registered method
# through every scenario class (flash crowd, diurnal wave, correlated
# failures, rolling topology) with epoch-stream clients verifying routes
# bit-identically, leak-checked under the race detector, twice so generator
# purity and the controller's churn paths cannot pass on one lucky
# schedule. Bench: the full scenario x method matrix with per-tick
# re-solves (savings-pct + solverwork/op columns), parsed into BENCH_8.json
# for the CI compare gate.
scenarios:
	$(GO) test -race -count=2 -run 'TestScenario|TestRunScenario|TestCompose' ./internal/sim
	$(GO) test -run '^$$' -bench 'ScenarioMatrix' -benchmem -benchtime 1x . | tee scenario_bench.out
	$(GO) run ./cmd/benchjson -o BENCH_8.json < scenario_bench.out
	@rm -f scenario_bench.out

# The cluster plane's differential and fault suites. Differential: a
# 1-shard cluster must reproduce the single daemon bit-identically —
# placements, payments, versions, route answers — across deltas, solves and
# membership churn. Fault matrix: coordinator crash mid-epoch (shards
# degrade to autonomous and recover), shard eviction (re-partition onto the
# survivors, stale-generation fencing over real RPC), plus the RPC/
# membership transports and the hierarchy failure modes the degradation
# switch reuses — all leak-checked under the race detector, twice so probe
# loops and teardown cannot pass on one lucky schedule. Bench: multi-shard
# vs single-daemon solve wall-clock at M=1000 with per-phase metrics
# (partition/ship/regional-solve/merge, wire bytes per assignment), parsed
# into BENCH_10.json. 5 iterations so the steady state — where the merge
# memo and pooled frames pay off — dominates the cold first merge.
cluster:
	$(GO) test -race -count=2 ./internal/cluster
	$(GO) test -race -count=2 -run 'TestTopFails|TestFailedRegions|TestAllRegionsFailed|TestCancelledDuringDegraded' ./internal/hierarchy
	$(GO) test -run '^$$' -bench 'ClusterSolve' -benchmem -benchtime 5x ./internal/cluster | tee cluster_bench.out
	$(GO) run ./cmd/benchjson -o BENCH_10.json < cluster_bench.out
	@rm -f cluster_bench.out

# Short smoke of each fuzz target beyond its checked-in corpus.
fuzz:
	$(GO) test -fuzz FuzzSchemaPlaceRemove -fuzztime 10s ./internal/replication
	$(GO) test -fuzz FuzzReadGraph -fuzztime 10s ./internal/topology
	$(GO) test -fuzz FuzzShortestPaths -fuzztime 10s ./internal/topology
	$(GO) test -fuzz FuzzDeltasDecoder -fuzztime 10s ./internal/server
	$(GO) test -fuzz FuzzCompactRoundTrip -fuzztime 10s ./internal/online
	$(GO) test -fuzz FuzzReadBinary -fuzztime 10s ./internal/trace
	$(GO) test -fuzz FuzzReadCLF -fuzztime 10s ./internal/trace
	$(GO) test -fuzz FuzzTreeOracleLCA -fuzztime 10s ./internal/distoracle
	$(GO) test -fuzz FuzzWireBids -fuzztime 10s ./internal/agtram

ci: vet staticcheck build race loadtest scenarios faultmatrix cluster bench
