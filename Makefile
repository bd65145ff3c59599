GO ?= go

.PHONY: all build vet fmt lint test race alloc-check ci obs-demo fuzz-smoke

# Seconds of coverage-guided fuzzing per codec target in fuzz-smoke.
FUZZTIME ?= 5s

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails when any file outside the lint fixtures is not gofmt-clean.
fmt:
	@test -z "$$(gofmt -l . | grep -v testdata)" || { gofmt -l . | grep -v testdata; exit 1; }

# lint enforces formatting, the determinism invariants (DESIGN.md §8) and the
# one-value rule for config fields (§7):
# gofmt, go vet, and the repo's own stdlib-only lint, which is a test.
lint: fmt vet
	$(GO) test ./cmd/searchlint

test:
	$(GO) test ./...

# The compressed view hands each decode window to a goroutine and back, a
# serving cluster's drives hand its scratch, cache tier and pending metrics
# from holder to holder of one mutex, an open loop hands issue batches
# from its generator goroutine to the serving one and back, and a split
# measured run hands each window to the helper that runs the upper's second
# set partition; a single race pass rarely hits a bad interleaving, so the
# view's, the drives', the pipeline's and the partitions' tests run 20
# times more.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run 'Compressed|Spilled|WindowReuse' ./internal/trace
	$(GO) test -race -count=20 -run 'During|Concurrent|Recount|Pipeline' ./internal/serving
	$(GO) test -race -count=20 -run 'Partition' ./internal/cache ./internal/workload

# alloc-check is the allocation gate (DESIGN.md §17): the AllocsPerRun
# oracles that pin every replay, cache, memory-tier, top-k and serving
# kernel at zero allocations in steady state (the open loop's generator
# fill and a split measured run's windows included), and two allocation laws
# (TestCaptureAllocLaw: a recording allocates what it keeps, so no event
# buffer is regrown and re-copied; TestRunScenarioAllocLaw: a day and a day
# ten times as long allocate the same number of times). It runs WITHOUT -race: race
# instrumentation allocates, so the tests build-tag themselves out of
# `make race`.
alloc-check:
	$(GO) test -run 'ZeroAlloc|AllocLaw' ./internal/cache ./internal/trace ./internal/workload ./internal/mem ./internal/search ./internal/serving

# obs-demo exercises the observability stack end to end: the fleetprof
# experiment at fast scale with distributed-trace and metrics-registry
# exports (DESIGN.md §16). Both files are deterministic for a fixed seed.
obs-demo:
	$(GO) run ./cmd/searchsim -fast -trace fleetprof-trace.json -metrics fleetprof-metrics.json fleetprof

# fuzz-smoke runs each fuzz target briefly (seed corpus plus
# $(FUZZTIME) of coverage-guided exploration per target). The contract under
# test: the trace file reader and the block decoder never panic and fail
# only with ErrBadTrace; valid streams, every thread id included, round-trip
# identically through the block codec, in memory and through a trace file,
# and branch streams through the branch-log codec. FuzzInverter differential-fuzzes the
# index inverter against its map-based reference; FuzzHierarchyMatchesReference
# does the same for the cache kernel — one access at a time, an upper draining
# into several tails, their replay from its recorded stream, and the upper
# split into two set partitions whose merged port drains into tails —
# against a naive reference hierarchy, level for level and line for line;
# FuzzStackDistMatchesNaive for the stack-distance profiler's Fenwick tree
# against a move-to-front list, bucket for bucket. FuzzTopKMatchesSort runs
# any mix of top-k pushes, batches, resets and drains against a full sort,
# FuzzArrivalsMatchSort the fleet engine's bucket sort of first arrivals
# against slices.SortFunc, and FuzzScenarioMatchesNaive whole open- and
# closed-loop scenarios against a linear-scan reference engine, FleetStats
# for FleetStats. FuzzZipfTableMatchesFormula holds the Zipf sampler's
# inversion table to the rejection-inversion formula, draw for draw and RNG
# state for RNG state, over fuzzed (n, s) and around every tabulated bound.
fuzz-smoke:
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzFileCodecDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzBlockDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzCodecRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/workload -run '^$$' -fuzz '^FuzzBranchLogRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/search -run '^$$' -fuzz '^FuzzInverter$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/search -run '^$$' -fuzz '^FuzzTopKMatchesSort$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cache -run '^$$' -fuzz '^FuzzHierarchyMatchesReference$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cache -run '^$$' -fuzz '^FuzzStackDistMatchesNaive$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serving -run '^$$' -fuzz '^FuzzArrivalsMatchSort$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serving -run '^$$' -fuzz '^FuzzScenarioMatchesNaive$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stats -run '^$$' -fuzz '^FuzzZipfTableMatchesFormula$$' -fuzztime $(FUZZTIME)

ci: build lint test race alloc-check fuzz-smoke
