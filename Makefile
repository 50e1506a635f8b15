# CI and humans run the same commands: .github/workflows/ci.yml calls these
# targets verbatim.

GO ?= go

.PHONY: all build test examples race lint vet fmt fmt-check staticcheck fuzz-smoke chaos chaos-short bench-smoke bench-test experiments serve-smoke cluster-smoke cluster-chaos clean

STATICCHECK ?= staticcheck

# Seconds of fuzzing per target in fuzz-smoke; CI uses the default.
FUZZTIME ?= 30s

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Runs every example end to end; each exits non-zero on a failed build, query
# or validation, and nothing else runs them.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/graph500
	$(GO) run ./examples/socialnetwork
	$(GO) run ./examples/externalmemory

# Short-mode run under the race detector; slow simulation tests are gated
# behind testing.Short() so this finishes in minutes. The multi-query engine
# and its differential tests additionally run in full (not -short): concurrent
# traversals sharing one message plane are exactly where races hide. So do the
# out-of-core packages: fetch workers write the page cache's residency bits
# that rank goroutines read without its lock. havoqd's recovery ladder and
# the coordinator's HTTP front end run ten times over in full: races between
# a cluster's joins, or between a cancel and its drain, show only when
# repeated.
race:
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/engine ./internal/algos/algotest ./internal/pagecache ./internal/ooc
	$(GO) test -race -count=10 -run '^(TestLadder|TestCoordServerEndpoints)$$' ./cmd/havoqd

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Skips quietly when staticcheck isn't on PATH (the container has no network
# installs); CI installs it with `go install` and fails on findings.
staticcheck:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

lint: vet fmt-check staticcheck

# Brief native-fuzzing runs of every fuzz target (one -fuzz pattern per
# invocation; the toolchain rejects multi-target fuzzing). The committed
# regression corpus under testdata/fuzz/ runs as seeds in plain `make test`
# too; this target actually mutates inputs for FUZZTIME each. Minimizing one
# new-coverage input is capped at 5 s (-fuzzminimizetime): the fuzz
# coordinator counts a minimizing worker's execs only when minimization ends,
# and the default cap is 60 s, so a target that finds new coverage would read
# 0 execs/s for most of a 30 s run.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=^FuzzEnvelopeDecode$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=5s ./internal/mailbox
	$(GO) test -run=^$$ -fuzz=^FuzzTopologyRoute$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=5s ./internal/mailbox
	$(GO) test -run=^$$ -fuzz=^FuzzCacheReadAt$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=5s ./internal/pagecache
	$(GO) test -run=^$$ -fuzz=^FuzzDOHandle$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=5s ./internal/algos/bfs
	$(GO) test -run=^$$ -fuzz=^FuzzPageRankRound$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=5s ./internal/algos/pagerank
	$(GO) test -run=^$$ -fuzz=^FuzzKCoreRound$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=5s ./internal/algos/kcore
	$(GO) test -run=^$$ -fuzz=^FuzzSSSPRound$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=5s ./internal/algos/sssp
	$(GO) test -run=^$$ -fuzz=^FuzzQueryRequest$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=5s ./cmd/havoqd
	$(GO) test -run=^$$ -fuzz=^FuzzResultPartial$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=5s ./internal/cluster

# Chaos harness (DESIGN.md §8): seeded fault plans × every algorithm × every
# routing topology on a fault-injecting transport, plus the engine recovery
# ladder, the termination detector under adversarial control-plane schedules,
# and the device-fault retry paths. Results must match the fault-free
# reference or fail with a typed error — never hang, panic, or silently
# diverge. chaos-short is the reduced fixed-seed sweep CI runs under -race.
chaos:
	$(GO) test -count=1 -run 'TestChaos' ./internal/check
	$(GO) test -count=1 -run 'SurvivesControl|Mux' ./internal/termination
	$(GO) test -count=1 -run 'Reliable|Fault|Torn|Retry' ./internal/mailbox ./internal/pagecache ./internal/extmem ./internal/engine

chaos-short:
	$(GO) test -race -short -count=1 -run 'TestChaos' ./internal/check
	$(GO) test -race -short -count=1 -run 'SurvivesControl|Mux' ./internal/termination

# Allocation-budget smoke (DESIGN.md §9): the TestAllocBudget* suite pins the
# message-plane hot paths to their steady-state allocation budgets, and
# TestLedger checks every query type's counts and per-query allocation
# against the ledger table in golden_test.go, whose rows are the bounds.
# The message-plane micro-benchmarks (BenchmarkVisitorPushRoute: per record,
# and per push by outcome) and the graph build's two (BenchmarkSortEdges,
# BenchmarkBuildEdgeListSimple) run once each so they cannot rot. Nothing
# here times the system: `bash bench/run.sh` does (bench/README.md).
bench-smoke:
	$(GO) test -count=1 -run 'TestAllocBudget' -v ./internal/mailbox
	$(GO) test -count=1 -run 'TestLedger' -v .
	$(GO) test -count=1 -run '^$$' -bench 'BenchmarkMsgPlane' -benchtime=1x ./internal/mailbox
	$(GO) test -count=1 -run '^$$' -bench 'BenchmarkVisitorPushRoute' -benchtime=1x ./internal/engine
	$(GO) test -count=1 -run '^$$' -bench 'BenchmarkSortEdges' -benchtime=1x ./internal/graph
	$(GO) test -count=1 -run '^$$' -bench 'BenchmarkBuildEdgeListSimple|BenchmarkOwnerMaster' -benchtime=1x -benchmem ./internal/partition

# The benchmark (bench/, BENCHMARK.json) is a module of its own that compiles
# against the root facade, so root `go test ./...` does not reach it: vet it
# and run its short tests here.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# Regenerate every figure/table at laptop scale; per-phase obs communication
# profiles land in obs_profiles.json (see -obs-json/-obs-csv flags).
experiments:
	$(GO) run ./cmd/experiments all

# The havoqd and cluster end-to-end checks are tests that run real child
# processes; these targets run exactly those tests. -timeout turns a wedged
# cluster into a loud failure with every goroutine's stack, and a failing
# test prints its child processes' output.

# End-to-end query serving (TestServeSmoke): a havoqd process serves a
# scale-12 RMAT graph on 8 ranks, answers 50 concurrent mixed queries over
# real HTTP, then drains on a real SIGTERM and exits 0.
serve-smoke:
	$(GO) test -count=1 -v -timeout 5m -run '^TestServeSmoke$$' ./cmd/havoqd

# Real multi-process cluster (TestClusterSmoke): a coordinator and 4
# `havoqd -join` worker processes on localhost (rank frames crossing the
# kernel's TCP stack) answer every query type in the engine's table, and every
# result hash must be the in-process engine's on the same scale-12 RMAT graph.
cluster-smoke:
	$(GO) test -count=1 -v -timeout 5m -run '^TestClusterSmoke$$' ./cmd/havoqd

# Cluster self-healing (DESIGN.md §13; TestKillAndRejoin): two kill/heal
# cycles SIGKILL a worker of a live 4-process cluster with queries in flight,
# slot 0 (rank 0's host) and then slot 1, and require (1) every in-flight
# query to resolve with a typed worker-lost error instead of hanging, (2) the
# coordinator to report the dead slot and shed typed while degraded, (3) the
# respawned worker to re-join under a bumped epoch, and (4) post-heal BFS,
# SSSP and CC hashes identical to the in-process engine.
cluster-chaos:
	$(GO) test -count=1 -v -timeout 5m -run '^TestKillAndRejoin$$' ./internal/cluster

clean:
	rm -f obs_profiles.json obs_profiles.csv
	$(GO) clean ./...
