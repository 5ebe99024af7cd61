# Local mirror of .github/workflows/ci.yml: `make ci` runs exactly what
# the pipeline runs.

GO ?= go

.PHONY: build test race examples bench bench-check fuzz-smoke lint doccheck report ci

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
# simulation engines, the compiled placement, the out-of-order core
# against its oracle and the experiment config decoder (one target per
# invocation, as `go test -fuzz` requires).  FuzzOpenFile bounds input
# minimization: by default each new input derived from its large seeds
# is minimized for up to a minute, which stalls the whole run.
fuzz-smoke:
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzDin -fuzztime 10s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzOpenFile -fuzztime 10s -fuzzminimizetime 50x
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzDigestEntry -fuzztime 10s
	$(GO) test ./internal/tracestore -run '^$$' -fuzz FuzzPackedFrame -fuzztime 10s
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

ci: build lint test race examples bench-check report
