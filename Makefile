# Local mirror of .github/workflows/ci.yml: `make ci` runs what the
# pipeline's checks, race and bench-check jobs run.  The fuzz-smoke job
# (`make fuzz-smoke` runs its targets), the ingest-smoke job and the
# serve-smoke job run only in CI.

GO ?= go

.PHONY: build test race examples smoke bench bench-check fuzz-smoke lint doccheck report ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/runner/... ./internal/cli/... ./internal/experiments/... ./internal/tracestore/... ./internal/store/... ./internal/exp/... ./internal/trace/... ./internal/cache/... ./internal/serve/...

# Run every example end to end: each must exit 0 and print no panic on
# stderr.
examples:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		if ! err=$$($(GO) run ./$$d 2>&1 >/dev/null); then echo "$$err" >&2; exit 1; fi; \
		if echo "$$err" | grep -q '^panic'; then echo "$$err" >&2; exit 1; fi; \
	done

# The checks job's invariance smokes, on a repro binary built at the
# root (CI runs this target).  One trace file is one runner job, so the
# derived shard count is GOMAXPROCS (capped at sweep's 18 consumers and
# missratio's 8): the first loop takes the production sharding path at
# 1, 2 and 8 shards.  stddev runs 18 runner jobs and ablate 14, so in
# the second loop GOMAXPROCS, which sizes the runner pool, is what
# varies.  Setting it at process start also covers a pool or shard size
# read into a package variable at init, which the in-process tests
# would not vary.  Last, a process simulates each core configuration
# once: in a batch, table3 reads table2's simulations, and options31 and
# ablate share cells with table2.  Each single run is a process of its
# own, so comparing the batch's CPU reports with theirs checks every
# memo hit against a fresh simulation.
smoke:
	$(GO) build -o repro ./cmd/repro
	./repro tracegen -bench tomcatv -n 50000 -mem -o t.din
	@set -e; for e in sweep missratio; do \
		for p in 1 2 8; do \
			echo "GOMAXPROCS=$$p ./repro $$e -tracefile t.din"; \
			GOMAXPROCS=$$p ./repro $$e -tracefile t.din -instructions 8000 -seed 7 -no-cache -json > "$$e-procs-$$p.json"; \
		done; \
		cmp $$e-procs-1.json $$e-procs-2.json; \
		cmp $$e-procs-1.json $$e-procs-8.json; \
	done
	@set -e; for e in stddev ablate; do \
		for p in 1 2 8; do \
			echo "GOMAXPROCS=$$p ./repro $$e"; \
			GOMAXPROCS=$$p ./repro $$e -instructions 8000 -seed 7 -no-cache -json > "$$e-procs-$$p.json"; \
		done; \
		cmp $$e-procs-1.json $$e-procs-2.json; \
		cmp $$e-procs-1.json $$e-procs-8.json; \
	done
	./repro all -json -no-cache -instructions 8000 -maxstride 512 -seed 7 > cores-all.json
	@set -e; for e in ablate options31 table2 table3; do \
		echo "./repro $$e: batch report = single run"; \
		jq -S --arg e $$e '.reports[] | select(.experiment == $$e)' cores-all.json > "cores-batch-$$e.json"; \
		./repro $$e -json -no-cache -instructions 8000 -seed 7 | jq -S . > "cores-single-$$e.json"; \
		cmp "cores-batch-$$e.json" "cores-single-$$e.json"; \
	done

# The repository benchmark (perfbench/): builds the repro CLI from this
# checkout and runs the reproduce, serve and replay workloads end to
# end.  BENCHMARK.json declares its metrics and regression bounds.
bench:
	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0

# The benchmark's self-test.  perfbench/ is a module of its own, so the
# root module's build, vet and tests skip it.
bench-check:
	cd perfbench && test -z "$$(gofmt -l .)" && $(GO) vet ./... && $(GO) test ./...

# Short native-fuzz smoke over the din parser and trace-file sniffing,
# the digest memo's on-disk entries, the trace store's packed frames, the
# single-cache engine against its reference, the other simulation
# engines, the compiled placement, the out-of-order core against its
# oracle and the experiment config decoder (one target per invocation,
# as `go test -fuzz` requires).  FuzzOpenFile bounds input
# minimization: by default each new input derived from its large seeds
# is minimized for up to a minute, which stalls the whole run.
fuzz-smoke:
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzDin -fuzztime 10s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzOpenFile -fuzztime 10s -fuzzminimizetime 50x
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzDigestEntry -fuzztime 10s
	$(GO) test ./internal/tracestore -run '^$$' -fuzz FuzzPackedFrame -fuzztime 10s
	$(GO) test ./internal/cache -run '^$$' -fuzz FuzzCacheVsReference -fuzztime 10s
	$(GO) test ./internal/cache -run '^$$' -fuzz FuzzGridAccess -fuzztime 10s
	$(GO) test ./internal/cache -run '^$$' -fuzz FuzzShardedGrid -fuzztime 10s
	$(GO) test ./internal/cache/stackdist -run '^$$' -fuzz FuzzEngineVsNaive -fuzztime 10s
	$(GO) test ./internal/index -run '^$$' -fuzz FuzzCompiledPlacement -fuzztime 10s
	$(GO) test ./internal/cpu -run '^$$' -fuzz FuzzCoreVsOracle -fuzztime 10s
	$(GO) test ./internal/experiments -run '^$$' -fuzz FuzzDecodeConfig -fuzztime 10s

# Documentation gate: every exported symbol in the library packages
# carries a doc comment, and README <-> docs cross-links resolve.
doccheck:
	$(GO) run ./cmd/doccheck ./internal/... ./cmd/...
	$(GO) run ./cmd/doccheck -links README.md docs/ARCHITECTURE.md

lint: doccheck
	$(GO) vet ./...
	@diff=$$(gofmt -l .); if [ -n "$$diff" ]; then \
		echo "gofmt needed on:" >&2; echo "$$diff" >&2; exit 1; \
	fi

# Machine-readable registry spec and report envelope, mirroring the CI
# artifact step: repro-list.current.json (the real binary's output) is
# schema-checked byte-for-byte by TestListJSONSchema via REPRO_LIST_JSON,
# repro-report.current.json is the reduced-scale `repro all -json`
# envelope CI uploads for diffing across PRs.  Both are gitignored.
report:
	$(GO) run ./cmd/repro list -json > repro-list.current.json
	REPRO_LIST_JSON=$(CURDIR)/repro-list.current.json $(GO) test ./internal/cli -run TestListJSONSchema
	$(GO) run ./cmd/repro all -instructions 20000 -maxstride 512 -json > repro-report.current.json
	@wc -c repro-list.current.json repro-report.current.json

ci: build lint test race examples smoke bench-check report
