GO ?= go

.PHONY: build test check bench bench-faults bench-repair bench-rebalance bench-restart bench-dedup bench-frontdoor bench-autobalance bench-storm docs-check loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full verification: static analysis plus the test suite under the race
# detector, a 1-iteration smoke run of the tracked bulk benchmarks so the
# suite can't rot, the replica-repair convergence scenario (kill a
# replica mid-workload, heal, assert digests converge with zero lost
# refcount deltas), the elasticity scenario (drain a provider and join a
# spare mid-workload with zero failed requests), the crash-recovery
# scenario (kill -9 a provider, reopen its directory, assert the durable
# catalog replays and repair only moves the divergence tail), a
# scaled-down dedup lineage run (verifies every restored model
# bit-identical), the gray-failure storm scenario (rolling slow nodes, a
# flapping partition, and a kill/restart under zipfian load: zero failed
# reads, hedged p99 bounded), and the docs-vs-code identifier check. This
# is what CI should run.
check:
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -run '^$$' -bench Bulk -benchtime 1x ./internal/bulkbench
	$(GO) run ./cmd/evostore-bench faults -repair -models 10
	$(GO) run ./cmd/evostore-bench faults -rebalance -models 10
	$(GO) run ./cmd/evostore-bench faults -restart -models 10
	$(GO) run ./cmd/evostore-bench faults -autobalance -models 16 -reads 600
	$(GO) run ./cmd/evostore-bench dedup -steps 4 -layers 8 -dim 128
	$(GO) run ./cmd/evostore-bench frontdoor -smoke
	$(GO) run ./cmd/evostore-bench storm -smoke
	./scripts/docscheck.sh

# Fail if a `pkg.Identifier` code span in docs/ARCHITECTURE.md or
# README.md names an exported identifier that no longer exists.
docs-check:
	./scripts/docscheck.sh

# Size of the program as ROADMAP counts it: non-test Go lines per package
# and in total (bench/ excluded), plus the option surface (client.With*
# options, core.Options fields, server and ctl flags).
loc:
	./scripts/loc.sh

# End-to-end repair proof on its own: partial writes during an outage,
# anti-entropy convergence after healing.
bench-repair:
	$(GO) run ./cmd/evostore-bench faults -repair

# Refresh the tracked bulk data path benchmarks (BENCH_bulk.json). The
# "before" baseline entries are preserved; "after" entries are replaced.
bench:
	$(GO) run ./cmd/evostore-bench bulk -out BENCH_bulk.json -benchtime 2s

# Crash-recovery proof on its own: kill -9 one provider mid-workload,
# reopen its data directory, validate the manifest, replay the durable
# catalog, and assert one repair pass moves only the outage-era bytes.
bench-restart:
	$(GO) run ./cmd/evostore-bench faults -restart

# End-to-end resilience proof: store/load/partition/retire through a
# fault-injecting fabric; fails on any refcount drift.
bench-faults:
	$(GO) run ./cmd/evostore-bench faults

# Elasticity proof + tracked migration throughput (BENCH_rebalance.json):
# drain one provider and join a spare under live load, recording models/s
# and MB/s moved per epoch change.
bench-rebalance:
	$(GO) run ./cmd/evostore-bench faults -rebalance -models 64 -out BENCH_rebalance.json

# Tracked front-door numbers (BENCH_frontdoor.json): zipfian fan-in
# reduction from coalescing + the client segment cache, throttled-tenant
# isolation (noisy tenant held at its bucket rate, quiet tenant p99 flat),
# and read-path allocations with pooled receive frames vs BENCH_bulk.json.
bench-frontdoor:
	$(GO) run ./cmd/evostore-bench frontdoor -out BENCH_frontdoor.json -benchtime 2s

# Heat-driven autobalance proof + tracked numbers (BENCH_autobalance.json):
# a zipfian workload skews per-model heat, the controller widens hot models
# and packs cold ones under live load with zero failed reads, p99 within
# 20% of the no-migration baseline, and migration bytes within budget.
bench-autobalance:
	$(GO) run ./cmd/evostore-bench faults -autobalance -out BENCH_autobalance.json

# Gray-failure storm proof + tracked tail numbers (BENCH_storm.json):
# rolling 20x slow-node episodes, a flapping partition, and one provider
# kill/restart under zipfian load, run unhedged then hedged. Contract:
# zero failed reads in every phase, hedged storm p99 within 2x the hedged
# healthy baseline, hedge volume within the token budget.
bench-storm:
	$(GO) run ./cmd/evostore-bench storm -out BENCH_storm.json

# Tracked dedup numbers (BENCH_dedup.json): the 10-step fine-tune lineage
# stored raw vs delta-encoded + content-addressed, with bit-identical
# restore verification. Targets: >= 3x bytes reduction, <= 2x restore
# slowdown.
bench-dedup:
	$(GO) run ./cmd/evostore-bench dedup -out BENCH_dedup.json
