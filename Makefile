GO ?= go

.PHONY: all build test race vet cover fuzz bench bench-evaluate bench-pipeline bench-selector bench-resched bench-service bench-nws bench-jacobi tables clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race coverage of the parallel candidate-evaluation engine. The core
# package holds the worker pool, snapshot, and determinism tests; the
# root package exercises the facade against the same engine.
race:
	$(GO) test -race ./internal/core/... ./internal/mstore/... .

vet:
	$(GO) vet ./...

# Coverage over the decision-critical packages (CI enforces a 70% floor).
cover:
	$(GO) test -coverprofile=cover.out ./internal/core ./internal/nws ./internal/obs ./internal/obs/audit ./internal/mstore
	$(GO) tool cover -func=cover.out | tail -1

# Short fuzz probe of the serialization decoders; the committed corpora
# under testdata/fuzz replay as regular tests on every `make test`.
fuzz:
	$(GO) test -fuzz=FuzzReadPlacement -fuzztime=10s ./internal/partition
	$(GO) test -fuzz=FuzzSegmentDecode -fuzztime=10s ./internal/mstore

# Full reproduction benchmarks (paper figures + ablations).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# Candidate-evaluation engine sweep only: pool size x evaluation mode
# (snapshot on one worker, the worker pool, the pool plus pruning). Short
# and noisy; the bench/ module gives spread-aware end-to-end numbers.
bench-evaluate:
	$(GO) test -bench=BenchmarkEvaluate -benchmem -benchtime=3x .

# Pipeline-blueprint evaluation sweep: pool size x worker-pool width,
# through the same shared Coordinator as bench-evaluate.
bench-pipeline:
	$(GO) test -bench=BenchmarkPipelineEvaluate -benchmem -benchtime=3x .

# Selector-family sweep past the 2^n wall: 128/512/2048-host grids
# under exhaustive, greedy, beam, and LP+GA selection.
bench-selector:
	$(GO) test -bench=BenchmarkSelect -benchmem -benchtime=3x -run '^$$' .

# Delta-aware rescheduling loop: full per-tick round vs session cold
# start vs one-host delta vs quiescent steady state (which must report
# 0 allocs/op — the gate TestSessionSteadyStateAllocFree enforces).
bench-resched:
	$(GO) test -bench=BenchmarkResched -benchmem -benchtime=3x -run '^$$' .

# Simulated Jacobi run on the loaded SDSC/PCL testbed (8 hosts, N=2000,
# 40 iterations): time, sim events and allocations per run of the
# event heap and fluid CPU/network models (gated by TestJacobiRunAllocs).
bench-jacobi:
	$(GO) test -bench='BenchmarkJacobiRun$$' -benchmem -run '^$$' ./internal/jacobi

# Multi-tenant serving: 64 agents round-robin through one SchedService,
# copy-on-write snapshot sharing, greedy vs exhaustive selection.
bench-service:
	$(GO) test -bench=BenchmarkService -benchmem -benchtime=3x -run '^$$' .

# NWS sensing hot path: bank update sweep (window x legacy/incremental)
# and full-service sweep cost at 100/1k/10k watched series.
bench-nws:
	$(GO) test -bench='BenchmarkBankUpdate|BenchmarkServiceTick' -benchmem -run '^$$' ./internal/nws

# Paper-style tables via the experiment driver.
tables:
	$(GO) run ./cmd/expt -quick

clean:
	$(GO) clean ./...
