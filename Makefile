# WebWave build / test entry points. CI invokes exactly these targets so
# local runs and the workflow agree.

GO ?= go
BENCH_JSON ?= bench-smoke.json
BENCH_WIRE_JSON ?= BENCH_wire.json
# Gated scenarios: `make bench-NAME` runs one and holds its report,
# BENCH_NAME.json (dashes become underscores), against the committed
# bench/BENCH_NAME_baseline.json; `make bench-NAME-baseline` regenerates that
# baseline after an intentional behavior change (commit the result). CI
# loops over SCENARIOS; the 101-process swarm shares the rules but runs
# nightly. RUN_NAME is the command that produces each report: the figures
# it passes are pinned by the baseline's spec, so change both together or
# the gate rejects the pair as different workloads.
SCENARIOS = cache scaling chaos hotkey restart bigram update storm session swarm-smoke
GATED = $(SCENARIOS) swarm
WEBWAVE_BENCH = $(GO) run ./cmd/webwave-bench -seed 1
RUN_cache = $(WEBWAVE_BENCH) -scenario cache-pressure
RUN_scaling = $(WEBWAVE_BENCH) -scenario core-scaling -procs $(SCALING_PROCS) -duration $(SCALING_DURATION)
# The scaling baseline keeps, per core count, the lowest efficiency of
# three full 1/2/4/8 sweeps: a floor one noisy wall-clock run cannot distort.
BASELINE_RUN_scaling = $(WEBWAVE_BENCH) -scenario core-scaling -procs 1,2,4,8 -duration 3 -repeat 3
RUN_chaos = $(WEBWAVE_BENCH) -scenario chaos
RUN_hotkey = $(WEBWAVE_BENCH) -scenario hot-key
RUN_restart = $(WEBWAVE_BENCH) -scenario restart -duration $(RESTART_DURATION)
RUN_bigram = $(WEBWAVE_BENCH) -scenario bigger-than-ram
RUN_update = $(WEBWAVE_BENCH) -scenario update-heavy
RUN_storm = $(WEBWAVE_BENCH) -scenario invalidation-storm
RUN_session = $(WEBWAVE_BENCH) -scenario session
RUN_swarm = ./bin/webwave-swarm -seed 1
RUN_swarm-smoke = ./bin/webwave-swarm $(SWARM_SMOKE_FLAGS)
# The CI-sized swarm: 2 racks x 8 processes, 5-deep tree, rack 0 SIGKILLed
# mid-run.
SWARM_SMOKE_FLAGS = -seed 1 -racks 2 -rack-nodes 8 -rack-depth 4 \
	-rate 120 -duration 8 -kill-rack 0
# The restart scenario replays the chaos workload twice (cold + warm), so
# the gated schedule is shorter than chaos's.
RESTART_DURATION ?= 6
WIRE_THROUGHPUT_JSON ?= wire-throughput.json
BENCHTIME ?= 0.3s
# CI sweeps a subset of the committed baseline's core counts; local full
# sweeps can set SCALING_PROCS=1,2,4,8.
SCALING_PROCS ?= 1,4
SCALING_DURATION ?= 2
# The single source of truth for the pinned staticcheck release: both the
# local `make staticcheck-install` and CI's lint job read this variable, so
# bumping the linter is a one-line change that cannot drift between the two.
STATICCHECK_VERSION ?= 2025.1
# Total-coverage floor (percent) enforced by cover-check; raise it as
# coverage grows, never lower it to make a PR pass.
COVER_FLOOR ?= 77.0

.PHONY: all build test race fmt vet staticcheck staticcheck-install vulncheck \
	cover cover-check cover-summary bench-smoke bench-micro bench-wire \
	$(GATED:%=bench-%) $(GATED:%=bench-%-baseline) fuzz-smoke swarm-bins \
	docs-check profile clean

all: build test

build:
	$(GO) build ./...

# Tests run shuffled (-shuffle=on) and uncached (-count=1) so hidden
# inter-test ordering dependencies fail fast instead of lurking.
test:
	$(GO) test -shuffle=on -count=1 ./...

race:
	$(GO) test -race -shuffle=on -count=1 ./...

vet:
	$(GO) vet ./...

# staticcheck must be on PATH; `make staticcheck-install` puts the pinned
# release there (CI runs exactly that, so local and CI lint agree).
staticcheck:
	staticcheck ./...

staticcheck-install:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

# vulncheck scans the module against the Go vulnerability database.
# govulncheck must be on PATH (CI installs it; locally:
# go install golang.org/x/vuln/cmd/govulncheck@latest).
vulncheck:
	govulncheck ./...

# cover runs the full suite once with coverage accounting; cover-check then
# fails if total statement coverage fell below $(COVER_FLOOR)%. The floor is
# committed here so coverage can only ratchet up deliberately.
cover:
	$(GO) test -shuffle=on -count=1 -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | tail -1

cover-check: cover
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	if awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(t+0 < f+0) }'; then \
		echo "FAIL total coverage $$total% is below the committed floor $(COVER_FLOOR)%"; exit 1; \
	else \
		echo "ok   total coverage $$total% (floor $(COVER_FLOOR)%)"; \
	fi

# cover-summary prints a per-package statement-coverage table (markdown)
# from the profile `make cover` left behind; CI appends it to the job's step
# summary so a coverage drop is visible per package, not just in the total.
cover-summary:
	@echo "| package | statements | coverage |"; echo "|---|---|---|"; \
	awk 'NR > 1 { \
		split($$1, p, ":"); file = p[1]; n = split(file, d, "/"); \
		pkg = d[1]; for (i = 2; i < n; i++) pkg = pkg "/" d[i]; \
		stmts[pkg] += $$2; total += $$2; \
		if ($$3 > 0) { hit[pkg] += $$2; hitTotal += $$2 } \
	} END { \
		for (k in stmts) printf "| %s | %d | %.1f%% |\n", k, stmts[k], 100 * hit[k] / stmts[k] | "sort"; \
		close("sort"); \
		printf "| **total** | **%d** | **%.1f%%** |\n", total, 100 * hitTotal / total \
	}' coverage.out

# fmt fails when any file needs formatting (CI mode); run `gofmt -w .` to fix.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# A short deterministic benchmark: small tree, reduced rate, full virtual
# duration (so the flash event actually fires), JSON report written to
# $(BENCH_JSON). Runs in well under a second of wall time.
bench-smoke:
	$(GO) run ./cmd/webwave-bench -scenario flash-crowd -seed 1 \
		-n 15 -rate 100 -json $(BENCH_JSON)

# bench-micro runs the hot-path micro-benchmarks (wire codec, server
# handlers, transport round trips) with -benchmem, records ns/op and
# allocs/op into $(BENCH_WIRE_JSON), and fails on a >2x allocs/op
# regression against the committed baseline (bench/BENCH_wire_baseline.json).
bench-micro:
	$(GO) test -run 'TestNothing^' -bench . -benchmem -benchtime $(BENCHTIME) \
		./internal/netproto/ ./internal/server/ ./internal/transport/ \
		> bench-micro.out || { cat bench-micro.out; exit 1; }
	@cat bench-micro.out
	$(GO) run ./cmd/benchwire -in bench-micro.out \
		-baseline bench/BENCH_wire_baseline.json -out $(BENCH_WIRE_JSON)

# bench-wire measures the live TCP serving stack on the v1 (JSON) and v2
# (binary) wire protocols and reports sustained req/s and the speedup.
# Wall-clock: NOT deterministic.
bench-wire:
	$(GO) run ./cmd/webwave-bench -scenario wire-throughput -seed 1 \
		-duration 3 -json $(WIRE_THROUGHPUT_JSON)

# The gated scenarios (see SCENARIOS above): run, then gate against the
# committed baseline; or regenerate that baseline.
report = BENCH_$(subst -,_,$(1)).json
baseline = bench/BENCH_$(subst -,_,$(1))_baseline.json

$(GATED:%=bench-%): bench-%:
	$(RUN_$*) -json $(call report,$*)
	$(GO) run ./cmd/benchgate -report $(call report,$*) -baseline $(call baseline,$*)

$(GATED:%=bench-%-baseline): bench-%-baseline:
	$(or $(BASELINE_RUN_$*),$(RUN_$*)) -json $(call baseline,$*)

bench-swarm bench-swarm-baseline bench-swarm-smoke bench-swarm-smoke-baseline: swarm-bins

# fuzz-smoke runs the wire-codec round-trip fuzzer for a bounded slice of CI
# time: every frame kind, both codec versions, v2 re-encode byte equality.
# Corpus finds land in internal/netproto/testdata/fuzz and should be
# committed.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzRoundTrip -fuzztime 30s ./internal/netproto/

# swarm-bins builds the two binaries the multi-process scenario needs: the
# node binary every swarm process execs, and the runner that spawns them.
swarm-bins:
	$(GO) build -o bin/webwave-cluster ./cmd/webwave-cluster
	$(GO) build -o bin/webwave-swarm ./cmd/webwave-swarm

# docs-check verifies every relative markdown link (and heading anchor) in
# all top-level markdown and docs/ resolves; CI's docs job runs exactly this.
docs-check:
	$(GO) run ./cmd/doccheck README.md ROADMAP.md PAPER.md PAPERS.md \
		CHANGES.md ISSUE.md SNIPPETS.md docs

# profile runs the core-scaling scenario under the CPU and heap profilers,
# leaving pprof artifacts next to the report so scaling regressions are
# diagnosable (`go tool pprof cpu.pprof`).
profile:
	$(GO) run ./cmd/webwave-bench -scenario core-scaling -seed 1 \
		-procs $(SCALING_PROCS) -duration $(SCALING_DURATION) \
		-cpuprofile cpu.pprof -memprofile mem.pprof -json BENCH_scaling.json

clean:
	rm -f $(BENCH_JSON) $(BENCH_WIRE_JSON) $(foreach n,$(GATED),$(call report,$(n))) \
		$(WIRE_THROUGHPUT_JSON) bench-micro.out cpu.pprof mem.pprof coverage.out
	rm -rf bin
