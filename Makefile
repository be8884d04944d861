# Tier-1 gate: `make` (= build + vet + test + lint) must stay green on
# every change.

GO ?= go

.PHONY: all build fmt test race vet lint bench kernel-bench bench-json bench-compare perfbench perfbench-selftest serve-smoke slo-smoke tune-smoke tune-experiments trace-demo clean

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

# The 386 pass type-checks code and tests for a 32-bit int.
vet:
	$(GO) vet ./...
	GOARCH=386 $(GO) vet ./...

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

# Base-case kernel benchmarks: packed register-tiled kernel vs the
# blocked reference loop (ns/op, GFLOPS via -benchmem MB/s, allocs),
# and the micro-kernel's measured ceiling (BenchmarkMicroPeak: GFLOP/s
# of each routine the host runs on L1-resident panels, kc 64/128/256).
# The full trajectory version (durable JSON cells at 256/1024/4096) is
# `make bench-json`; this is the quick in-place comparison.
kernel-bench:
	$(GO) test -run xxx -bench 'BenchmarkBaseCase|BenchmarkMicroPeak' -benchmem ./internal/kernel/

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

# End-to-end serving smoke test: build abmmd, drive it with loadgen for
# a few seconds over a small shape mix, require at least one success,
# zero hard errors, and a clean traceparent round-trip on every
# response (loadgen -trace, the default, exits nonzero on any
# X-Abmm-Trace-Id mismatch), check that /debug/requests serves filed
# span trees and that the live /metrics exposition carries the engine,
# server and per-plan families of the traffic just served, then drain
# via SIGTERM. CI runs this step.
SMOKE_ADDR ?= 127.0.0.1:18080
serve-smoke:
	$(GO) build -o /tmp/abmmd ./cmd/abmmd
	$(GO) build -o /tmp/abmm-loadgen ./cmd/loadgen
	/tmp/abmmd -addr $(SMOKE_ADDR) -algs ours,strassen & \
	pid=$$!; \
	for i in $$(seq 1 50); do \
		if wget -q -O /dev/null http://$(SMOKE_ADDR)/healthz 2>/dev/null; then break; fi; \
		sleep 0.1; \
	done; \
	/tmp/abmm-loadgen -target http://$(SMOKE_ADDR) -c 4 -d 3s -shapes 64,128,256 -min-ok 1; \
	status=$$?; \
	if [ $$status -eq 0 ]; then \
		wget -q -O /tmp/abmm-requests.json "http://$(SMOKE_ADDR)/debug/requests?format=json" && \
		grep -q '"outcome": "ok"' /tmp/abmm-requests.json && \
		grep -q '"name": "exec"' /tmp/abmm-requests.json || \
		{ echo "serve-smoke: /debug/requests missing traced spans" >&2; status=1; }; \
	fi; \
	if [ $$status -eq 0 ]; then \
		wget -q -O /tmp/abmm-plans.json "http://$(SMOKE_ADDR)/debug/plans?format=json" && \
		grep -q '"plan": "ours/' /tmp/abmm-plans.json || \
		{ echo "serve-smoke: /debug/plans missing the served plans" >&2; status=1; }; \
	fi; \
	if [ $$status -eq 0 ]; then \
		wget -q -O /tmp/abmm-metrics.txt http://$(SMOKE_ADDR)/metrics && \
		grep -Eq '^abmm_mults_total [1-9]' /tmp/abmm-metrics.txt && \
		grep -Eq '^abmm_server_requests_total\{code="200"\} [1-9]' /tmp/abmm-metrics.txt && \
		grep -q '^abmm_plan_execs_total{plan="ours/' /tmp/abmm-metrics.txt || \
		{ echo "serve-smoke: /metrics missing the served engine, request or plan series" >&2; status=1; }; \
	fi; \
	kill -TERM $$pid; wait $$pid; \
	exit $$status

# SLO smoke test: run abmmd with an unmeetable 1ms latency objective and
# a tight admission gate, push it past the limit with loadgen, and
# assert the burn-rate readiness contract end to end — /readyz must
# report 503 right after the overload and recover to 200 once the short
# window (1/12th of -slo-window) clears with no further traffic. CI
# runs this step next to serve-smoke.
slo-smoke:
	$(GO) build -o /tmp/abmmd ./cmd/abmmd
	$(GO) build -o /tmp/abmm-loadgen ./cmd/loadgen
	/tmp/abmmd -addr $(SMOKE_ADDR) -algs ours -max-in-flight 1 -max-queued 2 \
		-slo-latency-p99 1ms -slo-window 24s & \
	pid=$$!; \
	for i in $$(seq 1 50); do \
		if wget -q -O /dev/null http://$(SMOKE_ADDR)/healthz 2>/dev/null; then break; fi; \
		sleep 0.1; \
	done; \
	/tmp/abmm-loadgen -target http://$(SMOKE_ADDR) -c 8 -d 3s -shapes 256 -min-ok 1; \
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

# Autotuning smoke test: offline-tune one tiny shape with `bench
# -tune`, boot abmmd with the written profile, and assert the decision
# is visible end to end — X-Abmm-Plan reports the tuned identity,
# /metrics reports abmm_tune_profile_loaded 1, and /debug/plans marks
# the plan tuned. CI runs this step next to serve-smoke/slo-smoke.
tune-smoke:
	$(GO) build -o /tmp/abmmd ./cmd/abmmd
	$(GO) build -o /tmp/abmm-bench ./cmd/bench
	/tmp/abmm-bench -tune 8x8x8 -tune-out /tmp/abmm-tune-smoke.json
	/tmp/abmmd -addr $(SMOKE_ADDR) -algs ours -tune-profile /tmp/abmm-tune-smoke.json & \
	pid=$$!; \
	for i in $$(seq 1 50); do \
		if wget -q -O /dev/null http://$(SMOKE_ADDR)/healthz 2>/dev/null; then break; fi; \
		sleep 0.1; \
	done; \
	status=0; \
	ROW='[1,1,1,1,1,1,1,1]'; \
	A="[$$ROW,$$ROW,$$ROW,$$ROW,$$ROW,$$ROW,$$ROW,$$ROW]"; \
	wget -q -S -O /dev/null --header='Content-Type: application/json' \
		--post-data="{\"alg\":\"ours\",\"a\":$$A,\"b\":$$A}" \
		http://$(SMOKE_ADDR)/v1/multiply 2>/tmp/abmm-tune-headers || \
		{ echo "tune-smoke: multiply request failed" >&2; status=1; }; \
	if [ $$status -eq 0 ]; then \
		grep -q 'X-Abmm-Plan: ours/L0/seq/tuned' /tmp/abmm-tune-headers || \
		{ echo "tune-smoke: X-Abmm-Plan missing the tuned identity" >&2; \
		  cat /tmp/abmm-tune-headers >&2; status=1; }; \
	fi; \
	if [ $$status -eq 0 ]; then \
		wget -q -O /tmp/abmm-tune-metrics http://$(SMOKE_ADDR)/metrics && \
		grep -q '^abmm_tune_profile_loaded 1' /tmp/abmm-tune-metrics || \
		{ echo "tune-smoke: abmm_tune_profile_loaded != 1" >&2; status=1; }; \
	fi; \
	if [ $$status -eq 0 ]; then \
		wget -q -O /tmp/abmm-tune-plans.json "http://$(SMOKE_ADDR)/debug/plans?format=json" && \
		grep -q '"tuned": true' /tmp/abmm-tune-plans.json || \
		{ echo "tune-smoke: /debug/plans missing a tuned plan" >&2; status=1; }; \
	fi; \
	kill -TERM $$pid; wait $$pid; \
	exit $$status

# Tuned-vs-default acceptance run behind the EXPERIMENTS.md table:
# tune the odd/non-square shape set and require at least two of the
# shapes to gain >= 10% over the shape-blind default plan (the two
# odd non-square shapes and the odd square clear it; the even
# rectangle is the honest control that mostly doesn't). Takes a few
# minutes of real measurement — not part of the tier-1 gate; run it
# uncontended when touching the tuner, the kernel, or the engine
# schedules.
tune-experiments:
	$(GO) run ./cmd/bench \
		-tune 1023x2047x2047,2047x1023x2047,1536x512x1536,1023x1023x1023 \
		-reps 5 \
		-tune-out /tmp/abmm-tune-experiments.json -tune-min-gain 10 -tune-min-gained 2

# Record an execution trace of one multiplication and open the viewer:
# task "abmm.multiply", regions per pipeline phase, and per-node
# bilinear.L<k> regions showing the recursion tree.
trace-demo:
	$(GO) run ./cmd/abmm -alg ours -n 1024 -levels 2 -reps 1 -check=false -trace trace.out
	$(GO) tool trace trace.out

clean:
	$(GO) clean ./...
