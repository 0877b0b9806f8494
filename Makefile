# Build, verify, and benchmark targets. `make check` is the tier-1 gate
# (build + vet + tests); `make bench` records the executor perf trajectory
# that PERFORMANCE.md tracks across PRs.

GO ?= go

.PHONY: check check-bench build vet test test-race cover fuzz-smoke bench bench-exec bench-engine bench-ivm bench-version bench-topk bench-serve bench-wal bench-cube bench-obs obs-gate bench-smoke clean

check: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# check-bench vets and tests bench/, the benchmark harness BENCHMARK.json
# names. It is a module of its own (so that it can import repro/internal/...
# for the traced run), which means `make check` above never compiles it: a
# rename in internal/ that breaks the harness shows up only here.
check-bench:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# test-race is the CI data-race gate (vet runs there alongside it).
test-race:
	$(GO) test -race ./...

# cover is the CI coverage gate: combined internal/exec + internal/plan
# statement coverage must not drop below the floor, last raised (84.8 → 85.0;
# measured 85.2) when PR 13 replaced the row-at-a-time tile fold with the
# batch kernel and its parity wall.
COVER_MIN ?= 85.0
cover:
	$(GO) test -coverprofile=cover.out ./internal/exec ./internal/plan
	@$(GO) tool cover -func=cover.out | tail -1
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | grep -o '[0-9.]*%' | tr -d '%'); \
	ok=$$(awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN { print (t >= m) ? 1 : 0 }'); \
	if [ "$$ok" != "1" ]; then \
		echo "coverage $$total% is below the $(COVER_MIN)% floor"; exit 1; \
	fi

# fuzz-smoke gives each fuzz target a short CI run; longer local runs
# (-fuzztime 5m+) are how to hunt for real corpus finds.
fuzz-smoke:
	$(GO) test ./internal/exec -run '^$$' -fuzz '^FuzzOrdStat$$' -fuzztime 20s
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzParseRequest$$' -fuzztime 10s

# bench runs the executor microbenchmarks with allocation stats and writes
# the experiment-series snapshot to BENCH_exec.json via cmd/dvms-bench.
bench: bench-exec bench-engine bench-ivm bench-version bench-topk bench-serve bench-wal bench-cube bench-obs

bench-exec:
	$(GO) test ./internal/exec -run '^$$' -bench . -benchmem | tee BENCH_exec_micro.txt
	$(GO) run ./cmd/dvms-bench -experiment e2e -format json > BENCH_exec.json
	@echo "wrote BENCH_exec_micro.txt and BENCH_exec.json"

bench-engine:
	$(GO) test . -run '^$$' -bench 'BenchmarkQueryEngine|BenchmarkEndToEndInteraction|BenchmarkFig1Crossfilter' -benchmem | tee BENCH_engine_micro.txt

# bench-ivm records the incremental-vs-full trajectory of the delta-driven
# dataflow (per-event brush latency + engine counters) to BENCH_ivm.json.
bench-ivm:
	$(GO) test . -run '^$$' -bench 'BenchmarkIVMBrush' -benchmem | tee BENCH_ivm_micro.txt
	$(GO) run ./cmd/dvms-bench -experiment ivm -n 100000 -format json > BENCH_ivm.json
	@echo "wrote BENCH_ivm_micro.txt and BENCH_ivm.json"

# bench-version records the version-history trajectory: MarkEvent cost under
# the delta log vs the snapshot baseline at 10k/100k/1M rows (micro), plus
# the long-drag engine measurement with versioning counters (BENCH_version.json).
bench-version:
	$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkVersioning' -benchmem | tee BENCH_version_micro.txt
	$(GO) run ./cmd/dvms-bench -experiment version -n 1000000 -format json > BENCH_version.json
	@echo "wrote BENCH_version_micro.txt and BENCH_version.json"

# bench-topk records the incremental ORDER BY/LIMIT trajectory: top-k brush
# and single-row tick latency vs RecomputeAll at 10k/100k/1M (micro + the
# BENCH_topk.json series with order-statistic counters and per-event
# delta-row distributions).
bench-topk:
	$(GO) test . -run '^$$' -bench 'BenchmarkTopKBrush' -benchmem | tee BENCH_topk_micro.txt
	$(GO) run ./cmd/dvms-bench -experiment topk -n 1000000 -format json > BENCH_topk.json
	@echo "wrote BENCH_topk_micro.txt and BENCH_topk.json"

# bench-serve records the multi-client serving trajectory: ≥10 sessions at
# 1M shared rows, per-session steady-state brush vs the single-tenant delta
# path, shared-state instantiation counters, and the shared-vs-private
# memory split (BENCH_serve.json), plus the session-rotation micro.
bench-serve:
	$(GO) test ./internal/server -run '^$$' -bench 'BenchmarkServeFanout' -benchmem | tee BENCH_serve_micro.txt
	$(GO) run ./cmd/dvms-bench -experiment serve -n 1000000 -sessions 10 -format json > BENCH_serve.json
	@echo "wrote BENCH_serve_micro.txt and BENCH_serve.json"

# bench-wal records the durability trajectory: per-event WAL append
# overhead by fsync policy against the in-memory baseline, log sizes, and
# crash-recovery time from the delta log — including the 100k-event
# replay-dominated recovery measurement (BENCH_wal.json).
bench-wal:
	$(GO) test ./internal/wal -run '^$$' -bench 'BenchmarkAppend' -benchmem | tee BENCH_wal_micro.txt
	$(GO) run ./cmd/dvms-bench -experiment wal -n 1000000 -format json > BENCH_wal.json
	@echo "wrote BENCH_wal_micro.txt and BENCH_wal.json"

# bench-cube records the data-cube trajectory: steady brush-move latency on
# the index-tile path vs the ordinary delta pipeline at 10k/100k/1M (the
# headline claim is flat µs/event across sizes), plus tile memory and the
# events-to-break-even amortization of the tile build (BENCH_cube.json).
bench-cube:
	$(GO) run ./cmd/dvms-bench -experiment cube -n 1000000 -format json > BENCH_cube.json
	@echo "wrote BENCH_cube.json"

# bench-obs records the observability-overhead trajectory: steady cube-brush
# µs/event with the full obs layer (stage histograms, event traces, slow log)
# vs the Config.DisableObs ablation arm at 10k/1M, the instrumented arm's
# latency quantiles, and its Prometheus metrics snapshot (BENCH_obs.json),
# plus the on/off micro pair.
bench-obs:
	$(GO) test ./internal/experiments -run '^$$' -bench 'BenchmarkObsO' -benchmem | tee BENCH_obs_micro.txt
	$(GO) run ./cmd/dvms-bench -experiment obs -n 1000000 -format json > BENCH_obs.json
	@echo "wrote BENCH_obs_micro.txt and BENCH_obs.json"

# obs-gate is the CI overhead gate: a small-n obs run must show the
# instrumented arm within OBS_GATE_MAX/100 of the DisableObs arm (the ISSUE
# acceptance bound is 105 = 5%; the default leaves headroom for shared-runner
# timing noise at smoke sizes — the committed full-size BENCH_obs.json is the
# honest record). The smoke snapshot lands in BENCH_obs_smoke.json
# (gitignored) and CI publishes it as the metrics-snapshot artifact.
OBS_GATE_MAX ?= 110
obs-gate:
	$(GO) run ./cmd/dvms-bench -experiment obs -n 2000 -format json > BENCH_obs_smoke.json
	@x=$$(grep -o '"n2000_overhead_x100": [0-9]*' BENCH_obs_smoke.json | grep -o '[0-9]*$$'); \
	echo "obs overhead x100 = $$x (gate $(OBS_GATE_MAX))"; \
	if [ -z "$$x" ]; then echo "obs-gate: no overhead stat in BENCH_obs_smoke.json"; exit 1; fi; \
	if [ "$$x" -gt "$(OBS_GATE_MAX)" ]; then \
		echo "obs-gate: instrumentation overhead $$x > $(OBS_GATE_MAX) (x100)"; exit 1; \
	fi

# bench-smoke is the short-form CI benchmark: proves the benchmark harness
# runs end to end without committing CI minutes to full sizes. The small-n
# top-k and serve runs land in *_smoke.json (gitignored) so they never
# clobber the committed full-size trajectories; CI publishes both.
bench-smoke:
	$(GO) run ./cmd/dvms-bench -experiment ivm -n 2000 -format json > /dev/null
	$(GO) run ./cmd/dvms-bench -experiment a1 -n 300 -format json > /dev/null
	$(GO) run ./cmd/dvms-bench -experiment version -n 2000 -format json > /dev/null
	$(GO) run ./cmd/dvms-bench -experiment wal -n 2000 -format json > /dev/null
	$(GO) run ./cmd/dvms-bench -experiment topk -n 2000 -format json > BENCH_topk_smoke.json
	$(GO) run ./cmd/dvms-bench -experiment serve -n 2000 -sessions 4 -format json > BENCH_serve_smoke.json
	$(GO) run ./cmd/dvms-bench -experiment cube -n 2000 -format json > BENCH_cube_smoke.json
	$(GO) test . -run '^$$' -bench 'BenchmarkIVMBrush/n10000$$/' -benchtime 1x > /dev/null
	$(GO) test . -run '^$$' -bench 'BenchmarkTopKBrush/n10000/tick' -benchtime 1x > /dev/null
	$(GO) test ./internal/server -run '^$$' -bench 'BenchmarkServeFanout/n10000/s10' -benchtime 1x > /dev/null
	$(GO) test ./internal/exec -run '^$$' -bench 'BenchmarkCubeTileBuild' -benchtime 1x -benchmem > /dev/null
	@echo "benchmark smoke OK"

# clean removes generated local artifacts: coverage profiles, smoke-run
# benchmark snapshots, and the build/fuzz caches' repo-local leavings. The
# committed BENCH_*.json trajectories are records, not build products, and
# are left alone.
clean:
	rm -f cover.out BENCH_*_smoke.json
	$(GO) clean -fuzzcache
