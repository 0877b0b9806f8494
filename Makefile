# Build, verify, and benchmark targets. `make check` is the tier-1 gate
# (gofmt + build + vet + tests); `make bench` runs bench/, the one benchmark.

GO ?= go

.PHONY: check fmt check-bench build vet test test-race cover coverage-serve fuzz-smoke bench bench-smoke bench-counts clean

check: fmt build vet test

# fmt fails, listing the files, when any Go file is not gofmt-formatted.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

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

# coverage-serve reports which production functions no serve-level run
# reaches: the traced benchmark smoke run, the dvms-serve and server tests,
# and the six examples, merged (scripts/coverage-serve.sh). It prints the
# zero-hit functions and statement coverage per package; it gates nothing.
coverage-serve:
	bash scripts/coverage-serve.sh

# fuzz-smoke gives each fuzz target a short CI run; longer local runs
# (-fuzztime 5m+) are how to hunt for real corpus finds.
fuzz-smoke:
	$(GO) test ./internal/exec -run '^$$' -fuzz '^FuzzOrdStat$$' -fuzztime 20s
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzParseRequest$$' -fuzztime 10s
	$(GO) test ./internal/expr -run '^$$' -fuzz '^FuzzExprCompile$$' -fuzztime 10s
	$(GO) test ./internal/exec -run '^$$' -fuzz '^FuzzFilterKernel$$' -fuzztime 10s
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzRecover$$' -fuzztime 10s
	$(GO) test ./internal/parser -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s

# bench runs the repository's one benchmark, the socket-level harness that
# BENCHMARK.json names: every workload once, end to end (bench/README.md).
bench:
	bash bench/run.sh

# bench-smoke proves the harness and every in-package Go benchmark still run,
# at smoke size: all four workloads end to end and traced (each run exits 1
# on a wrong answer or a view on the wrong executor path), then each
# Benchmark* function once.
bench-smoke:
	bash bench/run.sh --quick
	bash bench/run.sh --quick --trace 1
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	@echo "benchmark smoke OK"

# bench-counts is the CI work-per-event gate: it runs the traced smoke
# benchmark at one seed in this checkout and in the merge base with BASE,
# and fails if this checkout's run is incorrect, or if a count or byte
# metric changed whose name the lines added to CHANGES.md do not mention.
# Timings are not compared: unpaired runs disagree by up to 40%.
bench-counts:
	bash scripts/bench-counts.sh "$(BASE)"

# clean removes generated local artifacts: coverage profiles and the fuzz
# cache.
clean:
	rm -f cover.out
	$(GO) clean -fuzzcache
