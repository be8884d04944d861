# Tier-1 gate: `make` (= build + vet + test + lint) must stay green on
# every change.

GO ?= go

.PHONY: all build fmt test race vet lint bench bench-smoke kernel-bench bench-json bench-compare perfbench perfbench-selftest paper-check serve-smoke slo-smoke trace-demo clean

all: build fmt vet test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over every package at small sizes (-short). It
# covers the shared-Multiplier concurrency tests, the top-step fan-out,
# the parallel row loops, the collector's concurrent aggregation and
# the serving layer. -short skips the analyzer suite's slow repo-wide
# pass, which `make lint` runs directly. Tests whose allocation or
# arena-reuse checks the detector skews skip only those checks
# (raceEnabled).
race:
	$(GO) test -race -short ./...

# The 386 pass type-checks code and tests for a 32-bit int. The arm64
# pass type-checks the !amd64 files (the Go micro-kernel, packs and row
# routines, the CPU probe stub) on the 64-bit target they ship for;
# 386 sees them only with a 32-bit int. The benchmark module
# (_perfbench, its own go.mod) is vetted the same way: it calls the
# library's exported functions, so deleting one it uses fails here
# instead of only in perfbench-selftest.
vet:
	$(GO) vet ./...
	GOARCH=386 $(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	cd _perfbench && $(GO) vet . && GOARCH=386 $(GO) vet . && GOARCH=arm64 $(GO) vet .

# Formatting gate; testdata is excluded because the lint fixtures pin
# their line numbers.
fmt:
	test -z "$$(gofmt -l $$(git ls-files '*.go' | grep -v /testdata/))"

# Repository-specific static analysis (see DESIGN.md §2c and §2h):
# type-checks every package and enforces the kernel invariants
# (hotpath-alloc, atomic-consistency, atomic-alignment,
# float-discipline, rat-aliasing, import-allowlist) and the serving-
# layer invariants (resource-pairing, ctx-discipline, lock-discipline,
# goroutine-lifecycle, metric-cardinality), with unjustified-allow
# keeping every suppression accountable. Nonzero exit on any finding.
lint:
	$(GO) run ./cmd/abmmvet ./...

# Allocation-tracking benchmarks for the plan/execute split and the
# observability overhead guard (0 allocs/op with a recorder attached).
bench:
	$(GO) test -run xxx -bench 'BenchmarkMultiplyInto' -benchmem .

# Every benchmark in the module, run once each (-benchtime 1x): CI
# executes the benchmark code instead of only type-checking it. About
# 15 s on a 2-core host. CI runs this step after Test.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Base-case kernel benchmarks: packed register-tiled kernel vs the
# blocked reference loop (ns/op, GFLOPS via -benchmem MB/s, allocs),
# the micro-kernel's measured ceiling (BenchmarkMicroPeak: GFLOP/s of
# each routine the host runs on L1-resident panels, kc 64/128/256,
# alone and with the in-place tile write-out), the A/B packs
# (BenchmarkPack: GB/s of each routine with one and two terms on
# deep-1023's 64×64 leaf block and square-2048's 128×256 A block and
# 256×512 B panel) and the row routines of the encode/decode and
# transform passes (BenchmarkLinearCombine: GB/s of each routine on an
# L2-resident and an LLC-sized block) and the stacking passes
# (BenchmarkLayout: GB/s of ToRecursiveInto and FromRecursiveInto at 1
# and 2 workers on deep-1023's and square-2048's operands), and the
# kernel against its own ceiling on the arena's row strides
# (BenchmarkGEMMStride: one-worker GFLOP/s at n = 128..1024 with
# stride n and with pool.Arena.Mat's padded stride, direct and with
# two accumulating outputs).
# The full trajectory version (durable JSON cells at 256/1024/4096) is
# `make bench-json`; this is the quick in-place comparison.
kernel-bench:
	$(GO) test -run xxx -bench 'BenchmarkBaseCase|BenchmarkMicroPeak|BenchmarkPack|BenchmarkLinearCombine|BenchmarkLayout|BenchmarkGEMMStride' -benchmem ./internal/kernel/ ./internal/matrix/ ./internal/bilinear/

# Durable benchmark trajectory (cmd/bench): run the fixed matrix and
# write the next BENCH_<k>.json, or re-run and diff against the newest
# committed baseline — BENCH_1.json, which includes the kernel-level
# cells — with nonzero exit on regression. CI runs bench-compare.
# The comparison runs at the GOMAXPROCS the baseline recorded: its
# workers=0 cells ran that many workers, and bench -compare refuses
# (exit 2) a run made at any other.
bench-json:
	$(GO) run ./cmd/bench

bench-compare:
	GOMAXPROCS=$$(sed -n 's/^ *"gomaxprocs": *\([0-9]*\),$$/\1/p' BENCH_1.json) \
		$(GO) run ./cmd/bench -o /tmp/abmm-bench-head.json -compare BENCH_1.json

# The repository benchmark (BENCHMARK.json, _perfbench/METRICS.md):
# ARGS go straight to bash _perfbench/run.sh, e.g.
#   make perfbench ARGS='--workload square-2048 --seed 1 --seconds 20 --trace 0'
perfbench:
	bash _perfbench/run.sh $(ARGS)

# The benchmark's self-test at tiny sizes (about 9 s). CI runs this step.
perfbench-selftest:
	cd _perfbench && $(GO) test .

# The paper's error figures against their committed numbers:
# regenerate Figures 2(C), 2(D), 3 and 4 at cmd/experiments' default
# sizes and seed and require each section to equal its section of
# experiments_output.txt byte for byte (awk's paragraph mode splits
# both at blank lines). It takes about 60-90 s on a 2-core host, so it
# runs here and in CI rather than in go test, where
# TestDeterministicTablesMatchCommittedOutput holds the fast sections
# (Tables I-III, Figure 1, the distributed table) the same way. A
# change that moves a product's rounding regenerates these sections
# (go run ./cmd/experiments -exp fig2c,fig2d,fig3,fig4) in the same
# commit. CI runs this step.
paper-check:
	mkdir -p .bench_build
	$(GO) run ./cmd/experiments -exp fig2c,fig2d,fig3,fig4 > .bench_build/paper-check.txt
	awk -v RS= -v ORS='\n\n' '/^== Figure (2\(C\)|2\(D\)|3|4):/' experiments_output.txt | \
		diff -u - .bench_build/paper-check.txt

# End-to-end serving smoke test: build abmmd, drive it with loadgen for
# a few seconds over a small shape mix, then send a one-second burst of
# strassen at L=2 on 128² so a recursion runs through the server too.
# Require at least one success per burst, zero hard errors, and a clean
# traceparent round-trip on every response (loadgen -trace, the
# default, exits nonzero on any X-Abmm-Trace-Id mismatch); check that
# /debug/requests serves filed span trees, among them the burst's L=2
# traces with their 49 leaf kernel calls, and that the live /metrics
# exposition carries the engine, server and per-plan families of the
# traffic just served; then drain via SIGTERM. Binaries and fetched
# files stay under the git-ignored .bench_build/smoke/. CI runs this
# step.
SMOKE_ADDR ?= 127.0.0.1:18080
serve-smoke:
	mkdir -p .bench_build/smoke
	$(GO) build -o .bench_build/smoke/abmmd ./cmd/abmmd
	$(GO) build -o .bench_build/smoke/loadgen ./cmd/loadgen
	.bench_build/smoke/abmmd -addr $(SMOKE_ADDR) -algs ours,strassen & \
	pid=$$!; \
	for i in $$(seq 1 50); do \
		if wget -q -O /dev/null http://$(SMOKE_ADDR)/healthz 2>/dev/null; then break; fi; \
		sleep 0.1; \
	done; \
	.bench_build/smoke/loadgen -target http://$(SMOKE_ADDR) -c 4 -d 3s -shapes 64,128,256 -min-ok 1; \
	status=$$?; \
	if [ $$status -eq 0 ]; then \
		.bench_build/smoke/loadgen -target http://$(SMOKE_ADDR) -alg strassen -levels 2 -shapes 128 -d 1s -min-ok 1; \
		status=$$?; \
	fi; \
	if [ $$status -eq 0 ]; then \
		wget -q -O .bench_build/smoke/requests.json "http://$(SMOKE_ADDR)/debug/requests?format=json" && \
		grep -q '"outcome": "ok"' .bench_build/smoke/requests.json && \
		grep -q '"name": "exec"' .bench_build/smoke/requests.json || \
		{ echo "serve-smoke: /debug/requests missing traced spans" >&2; status=1; }; \
	fi; \
	if [ $$status -eq 0 ]; then \
		grep -q '"levels": 2' .bench_build/smoke/requests.json && \
		grep -q '"kernel_calls": 49' .bench_build/smoke/requests.json || \
		{ echo "serve-smoke: /debug/requests missing the L=2 traces and their 49 kernel calls" >&2; status=1; }; \
	fi; \
	if [ $$status -eq 0 ]; then \
		wget -q -O .bench_build/smoke/plans.json "http://$(SMOKE_ADDR)/debug/plans?format=json" && \
		grep -q '"plan": "ours/' .bench_build/smoke/plans.json || \
		{ echo "serve-smoke: /debug/plans missing the served plans" >&2; status=1; }; \
	fi; \
	if [ $$status -eq 0 ]; then \
		wget -q -O .bench_build/smoke/metrics.txt http://$(SMOKE_ADDR)/metrics && \
		grep -Eq '^abmm_mults_total [1-9]' .bench_build/smoke/metrics.txt && \
		grep -Eq '^abmm_server_requests_total\{code="200"\} [1-9]' .bench_build/smoke/metrics.txt && \
		grep -q '^abmm_plan_execs_total{plan="ours/' .bench_build/smoke/metrics.txt || \
		{ echo "serve-smoke: /metrics missing the served engine, request or plan series" >&2; status=1; }; \
	fi; \
	kill -TERM $$pid; wait $$pid; \
	exit $$status

# SLO smoke test: run abmmd with an unmeetable 1ms latency objective and
# a tight admission gate, push it past the limit with loadgen, and
# assert the burn-rate readiness contract end to end — /readyz must
# report 503 right after the overload and recover to 200 once the short
# window (1/12th of -slo-window) clears with no further traffic.
# Binaries stay under .bench_build/smoke/, as in serve-smoke. CI runs
# this step next to serve-smoke.
slo-smoke:
	mkdir -p .bench_build/smoke
	$(GO) build -o .bench_build/smoke/abmmd ./cmd/abmmd
	$(GO) build -o .bench_build/smoke/loadgen ./cmd/loadgen
	.bench_build/smoke/abmmd -addr $(SMOKE_ADDR) -algs ours -max-in-flight 1 -max-queued 2 \
		-slo-latency-p99 1ms -slo-window 24s & \
	pid=$$!; \
	for i in $$(seq 1 50); do \
		if wget -q -O /dev/null http://$(SMOKE_ADDR)/healthz 2>/dev/null; then break; fi; \
		sleep 0.1; \
	done; \
	.bench_build/smoke/loadgen -target http://$(SMOKE_ADDR) -c 8 -d 3s -shapes 256 -min-ok 1; \
	status=$$?; \
	if [ $$status -eq 0 ]; then \
		if wget -q -O /dev/null "http://$(SMOKE_ADDR)/readyz" 2>/dev/null; then \
			echo "slo-smoke: /readyz still 200 right after the overload" >&2; status=1; \
		fi; \
	fi; \
	if [ $$status -eq 0 ]; then \
		sleep 3; \
		wget -q -O /dev/null "http://$(SMOKE_ADDR)/readyz" || \
		{ echo "slo-smoke: /readyz did not recover after the short window cleared" >&2; status=1; }; \
	fi; \
	kill -TERM $$pid; wait $$pid; \
	exit $$status

# Record an execution trace of one multiplication and open the viewer:
# task "abmm.multiply", regions per pipeline phase, and per-node
# bilinear.L<k> regions showing the recursion tree.
trace-demo:
	$(GO) run ./cmd/abmm -alg ours -n 1024 -levels 2 -reps 1 -check=false -trace trace.out
	$(GO) tool trace trace.out

clean:
	$(GO) clean ./...
