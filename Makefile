GO ?= go

.PHONY: all build test race vet cover fuzz bench bench-evaluate bench-pipeline bench-selector bench-resched bench-service bench-nws bench-jacobi tables clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race coverage of the candidate-evaluation engine, the NWS forecasting
# hot path, the shared obs instruments and the store: at least CI's Race
# step. The core package holds the snapshot and determinism tests, whose
# pools above 64 hosts run the parallel worker path; the root package
# exercises the facade against the same engine.
race:
	$(GO) test -race ./internal/core/... ./internal/nws/... ./internal/obs/... ./internal/mstore/... .

vet:
	$(GO) vet ./...

# Coverage over the decision-critical packages (CI enforces a 70% floor).
cover:
	$(GO) test -coverprofile=cover.out ./internal/core ./internal/nws ./internal/obs ./internal/obs/audit ./internal/mstore
	$(GO) tool cover -func=cover.out | tail -1

# Short fuzz probe of the serialization decoders, of session rounds
# under hostile availability deltas, of scheduling rounds under
# hostile availability, bandwidth and latency forecasts, and of the
# service's /schedule query (raw tenant and n strings); the committed
# corpora under testdata/fuzz replay as regular tests on every
# `make test`.
fuzz:
	$(GO) test -fuzz=FuzzReadPlacement -fuzztime=10s ./internal/partition
	$(GO) test -fuzz=FuzzSegmentDecode -fuzztime=10s ./internal/mstore
	$(GO) test -fuzz=FuzzSessionDelta -fuzztime=10s ./internal/core
	$(GO) test -fuzz=FuzzInformation -fuzztime=10s ./internal/core
	$(GO) test -fuzz=FuzzScheduleQuery -fuzztime=10s ./internal/obs/obshttp

# Full reproduction benchmarks (paper figures + ablations).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# Candidate-evaluation engine sweep only: pool size (8 to 128 hosts,
# straddling the 64-host boundary above which rounds fan out to workers)
# x Schedule (prunes sets that cannot win) or ScheduleExplained (plans
# every set to rank them). Short and noisy; the bench/ module gives
# spread-aware end-to-end numbers.
bench-evaluate:
	$(GO) test -bench=BenchmarkEvaluate -benchmem -benchtime=3x .

# Pipeline-blueprint evaluation sweep over pool size, through the same
# shared Coordinator as bench-evaluate.
bench-pipeline:
	$(GO) test -bench=BenchmarkPipelineEvaluate -benchmem -benchtime=3x .

# Selector-family sweep past the 2^n wall: 128/512/2048-host grids
# under exhaustive, greedy, and beam selection.
bench-selector:
	$(GO) test -bench=BenchmarkSelect -benchmem -benchtime=3x -run '^$$' .

# Rescheduling loop on the 12-host exhaustive pool, under each user
# metric: full per-tick round vs session cold start vs one-host delta
# (a bounded round: the previous winner seeds the incumbent, sets the
# metric bound rules out are skipped) vs quiescent steady state (which
# must report 0 allocs/op — the gate TestSessionSteadyStateAllocFree
# enforces).
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
