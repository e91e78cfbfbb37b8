GO ?= go

.PHONY: build test check bench scenarios docs-check loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full verification, and what CI runs (.github/workflows/ci.yml): a gofmt
# gate (fails if `gofmt -l .` lists any file); static analysis; the test suite under the race detector, which includes every
# evostore-bench scenario at smoke size with its invariant contracts
# (cmd/evostore-bench/scenario_test.go); a 1-iteration smoke run of the
# bulk data path, LSM point-read, LSM sustained-write, LSM flush-and-compact,
# provider-local LCP query (the 2k-model catalog, 2k aged-evolution NAS
# candidates, and a full scan of 1k near-identical chains), LCP scanner,
# chunk-store put, chunk-store segment read and tensor fingerprint
# benchmarks so they can't rot; 10 s of
# fuzzing the SSTable reader (-fuzzminimizetime bounds the time Go would
# otherwise spend shrinking the seed table, which looks like a hang) and 5 s
# each of the value-log reader, the WAL replay, the manifest and the
# `.sst.compact` marker (all four bounded the same way), the TCP frame
# readers, the strict control decoders, the placement-state decoder, the
# chunk-recipe decoder and the provider's durable catalog loader; a guard that no non-test code under internal/ or cmd/
# hands an error's text to a strings. function (failures are matched by
# type and status, never by text); the
# same scenarios from the CLI, which also evaluates their wall-clock ratio
# contract (hedged storm p99 vs healthy); and the docs-vs-code check.
check:
	@unformatted=$$(gofmt -l .); [ -z "$$unformatted" ] || \
		{ echo "gofmt -l lists unformatted files (run gofmt -w on them):" >&2; echo "$$unformatted" >&2; exit 1; }
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -run '^$$' -bench Bulk -benchtime 1x ./internal/bulkbench
	$(GO) test -run '^$$' -bench 'LSM(Get|PutSustained|FlushCompact)' -benchtime 1x ./internal/kvstore
	$(GO) test -run '^$$' -bench '^BenchmarkLCPQueryCatalog$$/^(2k|evolution2k|chains1k-full)$$' -benchtime 1x ./internal/provider
	$(GO) test -run '^$$' -bench '^BenchmarkLCPScannerCatalog$$' -benchtime 1x ./internal/graph
	$(GO) test -run '^$$' -bench '^BenchmarkKV(PutShared|GetSegment)$$' -benchtime 1x ./internal/dedup
	$(GO) test -run '^$$' -bench '^BenchmarkTensorFingerprint$$' -benchtime 1x ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzSSTableGet -fuzztime 10s -fuzzminimizetime 200x ./internal/kvstore
	$(GO) test -run '^$$' -fuzz FuzzValueLog -fuzztime 5s -fuzzminimizetime 200x ./internal/kvstore
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 5s -fuzzminimizetime 200x ./internal/kvstore
	$(GO) test -run '^$$' -fuzz FuzzManifest -fuzztime 5s -fuzzminimizetime 200x ./internal/kvstore
	$(GO) test -run '^$$' -fuzz FuzzCompactMarker -fuzztime 5s -fuzzminimizetime 200x ./internal/kvstore
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime 5s ./internal/rpc
	$(GO) test -run '^$$' -fuzz FuzzDecodeControl -fuzztime 5s ./internal/proto
	$(GO) test -run '^$$' -fuzz FuzzDecodeState -fuzztime 5s ./internal/placement
	$(GO) test -run '^$$' -fuzz FuzzParseRecipe -fuzztime 5s ./internal/dedup
	$(GO) test -run '^$$' -fuzz FuzzLoadCatalog -fuzztime 5s ./internal/provider
	! grep -rnE --include='*.go' --exclude='*_test.go' 'strings\.[A-Za-z]+\(.*\.Error\(\)' internal cmd || \
		{ echo 'error text passed to strings.*: match errors with errors.Is or an rpc status' >&2; exit 1; }
	$(GO) run ./cmd/evostore-bench check
	./scripts/docscheck.sh

# Bulk data path micro-benchmarks (raw TCP flat/vectored, end-to-end Load
# with the segment cache warm and off). The tracked end-to-end benchmark is
# BENCHMARK.json + bench/ (see bench/README.md), not this.
bench:
	$(GO) test -run '^$$' -bench Bulk -benchmem ./internal/bulkbench

# Every failure scenario at full size (faults, repair, rebalance, restart,
# storm, frontdoor, dedup): each asserts its own contract and
# ends in the shared invariant check. `evostore-bench <name> -seed N`
# replays one.
scenarios:
	$(GO) run ./cmd/evostore-bench check -smoke=false

# Fail if a `pkg.Identifier`, `evostore-bench <subcommand> [-flag]`,
# `evostore-server -flag`, `evostore-ctl -flag` or `make <target>` code
# span in the checked documents names something that no longer exists.
docs-check:
	./scripts/docscheck.sh

# Size of the program as ROADMAP counts it: non-test Go lines per package
# and in total (bench/ excluded), plus the option surface (client.With*
# options, core.Options and resilient.Options fields, server, ctl and
# evostore-bench scenario flags, make targets).
loc:
	./scripts/loc.sh
