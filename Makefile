# parallel-semisort — build, test and reproduction targets.

GO ?= go

.PHONY: all build fmt-check vet bigendian test race cover bench bench-smoke fuzz check stress sweep sample-sweep soak-smoke outofcore-smoke repro repro-quick examples clean

all: build vet test

# check is the CI gate: gofmt cleanliness, build, vet, the big-endian
# build, and the full test suite (including the fault-injection matrix)
# under the race detector, then vet and unit tests of perfbench, which is
# its own Go module and so outside ./...
check: fmt-check build vet bigendian
	$(GO) test -race -short ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

build:
	$(GO) build ./...

# fmt-check fails, listing the files, when any Go source (perfbench
# included; dot-directories such as .bench_build excluded) is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l $$(find . -name '*.go' -not -path './.*')); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# bigendian vets the record codec's users and compiles internal/rec's
# tests for s390x: little-endian hosts copy records as one memmove, so
# only a big-endian target builds the portable per-field codec.
bigendian:
	GOARCH=s390x $(GO) vet ./internal/rec ./external ./server
	GOARCH=s390x $(GO) test -c -o /dev/null ./internal/rec

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# stress mirrors the CI race-stress matrix: core + parallel under the race
# detector at several GOMAXPROCS, repeated, so both scatter strategies see
# varied interleavings.
stress:
	for p in 1 2 8; do \
		GOMAXPROCS=$$p $(GO) test -race -count=3 -short ./internal/core/... ./internal/parallel/... || exit 1; \
	done

# sweep runs the duplication-spectrum differential suite twice (the
# second pass exercises warm-workspace reuse on the same process) plus
# the planner-resolution tests and the radix kernel's own dovetail tests
# (width-rule determinism, cancellation, allocation bounds) — the
# acceptance gate for the skew-adaptive dovetail route — and the Phase 3
# classifier tests (range filter, heavy directory, shared-slot fallback
# to the heavy table, every route at several worker counts).
sweep:
	$(GO) test -race -count=2 -run 'Spectrum|Dovetail|Classif' ./internal/core/ ./internal/sortint/ .

# sample-sweep mirrors the CI Phase 1 sample step: the one-round
# sample's shape and its byte-determinism across proc counts and boosted
# retries, the sample-rate differential matrix, and the sampled-vs-kernel
# route split, under the race detector with warm-workspace repetition.
sample-sweep:
	$(GO) test -race -count=2 -run 'Sampl' ./internal/core/ .

# soak-smoke mirrors the CI job of the same name: a short leak-gated soak
# of the resident server under the race detector — mixed distributions,
# SIGTERM mid-run, gates on p99/zero-drops/tenant-budgets/goroutines.
# The full acceptance run is `go run ./cmd/soaksemi` with defaults (60s).
soak-smoke:
	$(GO) run -race ./cmd/soaksemi -duration 30s -concurrency 4 -pool 2 \
		-batch 2048 -report SOAK_semisort.json

# outofcore-smoke mirrors the CI job of the same name: the external
# shuffle's fault/resume suite under the race detector, then the
# out-of-core experiment at a small size — serial ablation vs pipelined
# vs compressed, plus the injected-fault resume demonstration.
outofcore-smoke:
	$(GO) test -race -count=2 ./external/
	$(GO) run ./cmd/semibench -experiment outofcore -n 2e5 -procs 2 -reps 2

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke mirrors the CI job of the same name: every benchmark for
# one iteration, gating compilation and setup, not speed.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Short fuzzing passes over the five fuzz targets.
fuzz:
	$(GO) test -fuzz=FuzzRecords -fuzztime=30s -run=^$$ .
	$(GO) test -fuzz=FuzzBy -fuzztime=30s -run=^$$ .
	$(GO) test -fuzz=FuzzAgg -fuzztime=30s -run=^$$ .
	$(GO) test -fuzz=FuzzConfigs -fuzztime=30s -run=^$$ .
	$(GO) test -fuzz=FuzzDovetailFrom -fuzztime=30s -run=^$$ ./internal/sortint/

# Full reproduction of the paper's evaluation (Section 5) at laptop scale.
repro:
	$(GO) run ./cmd/semibench -experiment all -n 4m -reps 3 -procs 1,2,4,8 -csv results.csv

# Fast smoke reproduction (~1 minute).
repro-quick:
	$(GO) run ./cmd/semibench -experiment all -n 2e5 -reps 1 -procs 1,2

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/wordcount -docs 500
	$(GO) run ./examples/hashjoin -orders 20000 -customers 2000
	$(GO) run ./examples/graphgroup -vertices 5000 -edges 30000
	$(GO) run ./examples/analytics -events 50000
	$(GO) run ./examples/outofcore -records 500000

clean:
	$(GO) clean ./...
	rm -f results.csv test_output.txt bench_output.txt
