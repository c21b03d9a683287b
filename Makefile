# Build/test/bench entry points. `make bench` runs the repository
# benchmark (bench/, the command BENCHMARK.json names); the kernel and
# fabric micro-benchmarks are `go test -bench` in their packages, and their
# allocation gates are tests that plain `go test` runs.

GO ?= go

# Worker-goroutine count for the spill-stress run (the nightly shard job
# overrides this; results are bit-identical at every setting).
SPILL_SHARDS ?= 4

# Wall-clock bound for the spill-stress cell: generous for the nightly
# runner, but a hung run now dies with a PARTIAL(deadline) report and a
# flushed stats dump instead of eating the job's 120-minute budget.
SPILL_TIMEOUT ?= 90m

# Out-of-core stress knobs: a streamed container processed with the nova
# SSD tier on and the extmem baseline under a DRAM budget ~1/4 of the
# edge data (in OOC_PART_EDGES-edge vertex intervals), so both simulated
# paging paths run under real pressure.
OOC_VERTICES   ?= 500000
OOC_DEGREE     ?= 16
OOC_PART_EDGES ?= 1000000
OOC_CSR        ?= /tmp/ooc_stress.csr
OOC_STATS_OUT  ?= ooc_stress_stats.json
OOC_TIMEOUT    ?= 90m

.PHONY: all build vet test race bench golden fmt-check stats-md \
	staticcheck spill-stress outofcore-stress chaos

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	bash bench/run.sh

# Run the spill-stress workload (delta PageRank on the large tier, active
# buffers shrunk far below the active set) at 4 GPNs and dump its stats;
# SPILL_SHARDS sets the worker-goroutine count (wall-clock lands in the
# dump's metadata, so the nightly artifact carries the scaling signal).
spill-stress: build
	$(GO) run ./cmd/novasim -engine nova -workload prdelta -graph twitter \
		-scale large -gpns 4 -shards $(SPILL_SHARDS) \
		-timeout $(SPILL_TIMEOUT) \
		-stats-out spill_stress_stats.json

# Out-of-core stress (DESIGN.md §18): stream-build a container and run
# the spill-heavy prdelta cell on both paging engines — nova with the SSD
# tier on, extmem under a tight DRAM budget. The stats dump carries
# partition_loads / bytes_paged / io_stall_ticks for both engines (the
# nightly job uploads it as an artifact).
outofcore-stress: build
	$(GO) run ./cmd/graphgen -kind uniform -vertices $(OOC_VERTICES) \
		-degree $(OOC_DEGREE) -seed 7 -stream -o $(OOC_CSR)
	$(GO) run ./cmd/novasim -engine nova,extmem -workload prdelta \
		-graph-file $(OOC_CSR) -scale large \
		-out-of-core -ssd-resident-pages 64 \
		-extmem-ram 16777216 -extmem-part-edges $(OOC_PART_EDGES) \
		-timeout $(OOC_TIMEOUT) -stats-out $(OOC_STATS_OUT)

# Randomized fault-injection sweep (DESIGN.md §15): 100+ injected faults
# per run, seed logged for replay via CHAOS_SEED.
chaos:
	$(GO) test -race -run 'TestChaos' -v -timeout 20m ./internal/chaos

# staticcheck is optional locally (not vendored); CI installs it.
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 || { \
		echo "staticcheck not installed; go install honnef.co/go/tools/cmd/staticcheck@latest"; exit 1; }
	staticcheck ./...

# Refresh the golden matrix (testdata/golden.json) after an intentional
# behavior change. Review its diff before committing: each row's headline
# counters say what moved.
golden:
	$(GO) test -run TestGolden . -update

# Regenerate the STATS.md metrics reference from live dumps.
stats-md:
	$(GO) generate ./internal/stats

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
