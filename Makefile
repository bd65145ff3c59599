GO ?= go

.PHONY: all build vet fmt lint test race alloc-check ci obs-demo fuzz-smoke traffic

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
# one-value rule for exported struct fields (§7):
# gofmt, go vet, and the repo's own stdlib-only lint, which is a test.
lint: fmt vet
	$(GO) test ./cmd/searchlint

test:
	$(GO) test ./...

# The compressed view hands each decode window to a goroutine and back, a
# serving cluster's drives hand its scratch, cache tier and pending metrics
# from holder to holder of one mutex, an open loop hands issue batches
# from its generator goroutine to the serving one and back, a split
# measured run hands each window to the helper that runs the upper's second
# set partition, and an index build runs each stage's second half on a
# helper; a single race pass rarely hits a bad interleaving, so the view's,
# the drives', the pipeline's, the partitions' and the concurrent builds'
# tests run 20 times more. internal/experiments takes 134-138 s under race
# instrumentation (2-vCPU amd64 host, go1.24.0); the whole-module pass keeps
# explicit headroom over the 10m per-package default for slower runners.
race:
	$(GO) test -race -timeout 20m ./...
	$(GO) test -race -count=20 -run 'Compressed|Spilled|WindowReuse' ./internal/trace
	$(GO) test -race -count=20 -run 'During|Concurrent|Recount|Pipeline' ./internal/serving
	$(GO) test -race -count=20 -run 'Partition' ./internal/cache ./internal/workload
	$(GO) test -race -count=20 -run 'BuildIndexConcurrent' ./internal/search

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
# index inverter against its map-based reference, and
# FuzzBuildIndexMatchesReference the whole index build, section by section,
# against a one-loop corpus generator, that inverter and an append-based
# serializer; FuzzHierarchyMatchesReference
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
	$(GO) test ./internal/search -run '^$$' -fuzz '^FuzzBuildIndexMatchesReference$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/search -run '^$$' -fuzz '^FuzzTopKMatchesSort$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cache -run '^$$' -fuzz '^FuzzHierarchyMatchesReference$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cache -run '^$$' -fuzz '^FuzzStackDistMatchesNaive$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serving -run '^$$' -fuzz '^FuzzArrivalsMatchSort$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serving -run '^$$' -fuzz '^FuzzScenarioMatchesNaive$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stats -run '^$$' -fuzz '^FuzzZipfTableMatchesFormula$$' -fuzztime $(FUZZTIME)

ci: build lint test race alloc-check fuzz-smoke traffic

# traffic checks which functions the shipped entry points never reach. It
# builds searchsim, bench, cachesim, tracegen and the three examples with
# coverage of the whole module into a temporary directory and, from another,
# at GOMAXPROCS=2 (so the split and decode helpers run on any host), runs
# what CI runs: `searchsim -fast -v -metrics -trace all`, one `-trace-spill`
# run, `bench -smoke`, the examples, `tracegen` and `cachesim` with each
# golden's flags. The functions at 0.0 % must be exactly the ones
# traffic.allow lists, each with its reason (DESIGN.md §7's reachability
# rule); any difference, either way, fails. It writes nothing inside the
# checkout.
traffic:
	@set -e; allow="$$(pwd)/traffic.allow"; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	mkdir "$$d/bin" "$$d/cov" "$$d/run" "$$d/spill"; \
	$(GO) build -cover -coverpkg=./... -o "$$d/bin/" ./cmd/searchsim ./cmd/cachesim ./cmd/tracegen ./bench ./examples/...; \
	export GOCOVERDIR="$$d/cov" GOMAXPROCS=2; cd "$$d/run"; \
	"$$d/bin/searchsim" -fast -v -metrics m.json -trace t.json all > /dev/null 2>&1; \
	"$$d/bin/searchsim" -fast -trace-spill "$$d/spill" fig6a > /dev/null; \
	"$$d/bin/bench" -smoke > /dev/null 2>&1; \
	for ex in quickstart design-explorer serving-tree; do "$$d/bin/$$ex" > /dev/null; done; \
	"$$d/bin/tracegen" -profile s1-leaf -shrink 64 -o t.smtr > /dev/null 2>&1; \
	for flags in "" "-l4 64 -scale 64" "-predict" "-policy drrip -seed 7" "-inclusive=false" "-ways 6"; do \
		"$$d/bin/cachesim" -trace t.smtr $$flags > /dev/null; \
	done; \
	$(GO) tool covdata func -i "$$d/cov" | awk '$$NF == "0.0%" { sub(/:[0-9]+:$$/, "", $$1); print $$1, $$2 }' | sort > "$$d/never"; \
	sed -e 's/ *#.*//' -e '/^$$/d' "$$allow" | sort > "$$d/allowed"; \
	if ! diff "$$d/allowed" "$$d/never" > "$$d/diff"; then \
		echo "traffic: the never-run functions differ from traffic.allow (< listed but now run, > never run and not listed):"; \
		cat "$$d/diff"; exit 1; \
	fi; \
	echo "traffic: $$(wc -l < "$$d/never") never-run functions, all listed in traffic.allow"
