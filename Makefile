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

# lint enforces formatting and the determinism invariants (DESIGN.md §8):
# gofmt, go vet, and the repo's own stdlib-only lint, which is a test.
lint: fmt vet
	$(GO) test ./cmd/searchlint

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# alloc-check is the allocation gate (DESIGN.md §17): the AllocsPerRun
# oracles that pin every replay, cache, memory-tier, top-k and serving
# kernel at zero allocations in steady state, and the capture path's
# allocation law
# (TestCaptureAllocLaw: a recording allocates what it keeps, so no event
# buffer is regrown and re-copied). It runs WITHOUT -race: race
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
# test: decoders never panic and fail only with ErrBadTrace; valid streams
# round-trip identically through the file and block codecs, and branch
# streams through the branch-log codec. FuzzInverter differential-fuzzes the
# index inverter against its map-based reference; FuzzOwnerFilter does the
# same for the inclusive L3's core-valid filter against probe-every-core
# back-invalidation, FuzzStackDistMatchesNaive for the stack-distance
# profiler's Fenwick tree against a move-to-front list, bucket for bucket,
# and FuzzTailsMatchStandalone for one upper draining into several tails (and
# their replay from its recorded stream) against a standalone hierarchy per
# tail, state for state. FuzzTopKMatchesSort runs any mix of top-k pushes,
# batches, resets and drains against a full sort, and FuzzArrivalsMatchSort
# the fleet engine's bucket sort of first arrivals against slices.SortFunc.
fuzz-smoke:
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzFileCodecDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzBlockDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzCodecRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/workload -run '^$$' -fuzz '^FuzzBranchLogRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/search -run '^$$' -fuzz '^FuzzInverter$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/search -run '^$$' -fuzz '^FuzzTopKMatchesSort$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cache -run '^$$' -fuzz '^FuzzOwnerFilter$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cache -run '^$$' -fuzz '^FuzzStackDistMatchesNaive$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cache -run '^$$' -fuzz '^FuzzTailsMatchStandalone$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serving -run '^$$' -fuzz '^FuzzArrivalsMatchSort$$' -fuzztime $(FUZZTIME)

ci: build lint test race alloc-check fuzz-smoke
