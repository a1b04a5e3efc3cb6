GO ?= go

.PHONY: all build vet test race bench-smoke bench benchcheck audit fuzz ci

all: build

build:
	$(GO) build ./...

# The benchmark under perfbench/ is a module of its own, so the root
# ./... skips it; vetting it compiles it against this module's API.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

test:
	$(GO) test ./...

# Every test under the race detector: the soak, recovery, observability,
# load, critical-path, transport-dynamics and fabric suites included.
race:
	$(GO) test -race -count 1 ./...

# One pass over the Figure 5 sweep; the simulation is deterministic, so a
# single iteration gives the full virtual-time result set.
bench-smoke:
	$(GO) test -run - -bench BenchmarkFigure5 -benchtime 1x .

# Regenerate every committed BENCH_*.json baseline in place. Run this (and
# commit the result) when a change intentionally moves the numbers.
bench:
	$(GO) run ./cmd/experiments -exp bench

# The regenerate-and-diff gate: run every row of the experiment table into
# a scratch directory and diff each committed BENCH_*.json against its
# fresh copy. The simulation is deterministic, so any drift in a
# deterministic field is a real behavior change; advisory wall-clock
# fields are reported but never fail the gate.
benchcheck:
	rm -rf .benchfresh && mkdir -p .benchfresh
	$(GO) run ./cmd/experiments -exp bench -benchdir .benchfresh
	$(GO) run ./cmd/benchdiff -baseline . -fresh .benchfresh

# The single-copy auditor: run both stack variants with the data-touch
# ledger on, print the measured copy-count table, and fail unless the
# oracles hold (single-copy: exactly one checksum-in-flight host-bus DMA
# and zero CPU touches per sender byte). A standing invariant: this must
# stay green.
audit:
	mkdir -p .benchfresh
	$(GO) run ./cmd/experiments -exp touches -benchdir .benchfresh

# Generated inputs: run each fuzz target for 30 s (not part of ci; the
# committed seed corpora under testdata/fuzz/ replay in every go test).
fuzz:
	$(GO) test -run - -fuzz '^FuzzParsePlan$$' -fuzztime 30s ./internal/fault
	$(GO) test -run - -fuzz '^FuzzChecksum$$' -fuzztime 30s ./internal/checksum

ci: vet build race bench-smoke audit benchcheck
