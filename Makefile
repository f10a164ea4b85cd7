GO ?= go

.PHONY: build test bench bench-smoke bench-json bench-check check lint fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The root benchmarks: per-packet and batch timings of the traffic plane
# (-benchmem also asserts the zero-allocation hot path, 0 B/op on the batch
# plane) and four ablations no table prints. The paper's tables and figures
# are `taurus-bench -exp`'s.
bench:
	$(GO) test -run xxx -bench . -benchmem .

# One iteration of every benchmark in the module (no unit tests — CI runs
# those separately): cheap enough for CI, and keeps benchmark code compiling
# and running so it can't silently rot. The end-to-end control-loop smoke
# moved to bench-json, which runs the drift and fleet experiments anyway —
# CI runs both targets, so duplicating them here would double the slow part.
# BenchmarkLoadModel (internal/pipeline) splits an install into its stages
# for both benchmark DNN shapes, so one iteration also smokes every stage.
# The distfit experiment runs here in rendered-table form: it is the one
# experiment whose wall-clock depends on scheduling (task deadlines,
# stragglers), so smoking it on every run keeps the timing honest.
bench-smoke:
	$(GO) test -run xxx -bench=. -benchtime=1x ./...
	$(GO) run ./cmd/taurus-bench -exp distfit
	$(GO) run ./cmd/taurus-bench -exp compile

# Machine-readable benchmark rows — the perf-trajectory artifacts CI uploads
# on every run, so regressions show up as a diffable series over time. Also
# the end-to-end smoke of the control loop (drift) and the fleet loop.
bench-json:
	$(GO) run ./cmd/taurus-bench -exp drift -model svm -json > BENCH_drift.json
	$(GO) run ./cmd/taurus-bench -exp throughput -json > BENCH_throughput.json
	$(GO) run ./cmd/taurus-bench -exp fleet -model svm -json > BENCH_fleet.json
	$(GO) run ./cmd/taurus-bench -exp latency -json > BENCH_latency.json
	$(GO) run ./cmd/taurus-bench -exp distfit -json > BENCH_distfit.json
	$(GO) run ./cmd/taurus-bench -exp compile -json > BENCH_compile.json

# The gated benchmark (bench/, a module of its own that BENCHMARK.json points
# the driver at) is built by nothing above, so an API change could break it
# silently. Its tests, then a four-second run of each of its four workloads: a
# run checks every decision against Graph.Eval and audits the conservation
# laws (no packet off the packed matvec path among them), and exits non-zero
# on any mismatch. wide-bulk is the workload whose packet is nearly all tape;
# dnn-small's 32-packet batches are the only ones that sweep partial fills.
# Timings from runs this short mean nothing.
bench-check:
	cd bench && $(GO) test ./...
	bash bench/run.sh --workload dnn-bulk --seed 1 --seconds 4 --trace 0
	bash bench/run.sh --workload mixed-edge --seed 1 --seconds 4 --trace 0
	bash bench/run.sh --workload wide-bulk --seed 1 --seconds 4 --trace 0
	bash bench/run.sh --workload dnn-small --seed 1 --seconds 4 --trace 0

check:
	@fmtout=$$(gofmt -l .); \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi
	$(GO) vet ./...

# Repo-local vet passes: the taurus-lint multichecker runs hotpathcheck
# (zero-alloc hot paths) and obsnames (metric names) over the production tree
# (see internal/lint). Then the orphan check: every internal package must be
# reached from the facade, a command or an example — one that only its own
# tests import is dead code.
lint: check
	$(GO) run ./cmd/taurus-lint .
	@reached=$$($(GO) list -deps . ./cmd/... ./examples/...) || exit 1; \
	orphans=$$($(GO) list ./internal/... | while read -r p; do \
		echo "$$reached" | grep -qxF "$$p" || echo "$$p"; done); \
	if [ -n "$$orphans" ]; then \
		echo "internal packages no facade, command or example imports:"; echo "$$orphans"; exit 1; \
	fi

fmt:
	gofmt -w .
