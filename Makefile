# Local mirror of .github/workflows/ci.yml: `make ci` runs what the
# pipeline's checks, race, ingest-smoke and bench-check jobs run, and
# those jobs and the fuzz-smoke job call the targets below (lint,
# examples, smoke, report, race, ingest-smoke, bench-check, fuzz-smoke)
# rather than repeat them.  The serve-smoke job runs only in CI.

GO ?= go

.PHONY: build test race examples smoke ingest-smoke bench bench-check fuzz-smoke lint doccheck report ci

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

# The checks job's invariance smokes, in a temporary directory removed
# on exit (CI runs this target).  One trace file is one runner job, so the
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
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	echo "$(GO) build -o $$d/repro ./cmd/repro"; \
	$(GO) build -o "$$d/repro" ./cmd/repro; \
	cd "$$d"; \
	./repro tracegen -bench tomcatv -n 50000 -mem -o t.din; \
	for e in sweep missratio; do \
		for p in 1 2 8; do \
			echo "GOMAXPROCS=$$p ./repro $$e -tracefile t.din"; \
			GOMAXPROCS=$$p ./repro $$e -tracefile t.din -instructions 8000 -seed 7 -no-cache -json > "$$e-procs-$$p.json"; \
		done; \
		cmp $$e-procs-1.json $$e-procs-2.json; \
		cmp $$e-procs-1.json $$e-procs-8.json; \
	done; \
	for e in stddev ablate; do \
		for p in 1 2 8; do \
			echo "GOMAXPROCS=$$p ./repro $$e"; \
			GOMAXPROCS=$$p ./repro $$e -instructions 8000 -seed 7 -no-cache -json > "$$e-procs-$$p.json"; \
		done; \
		cmp $$e-procs-1.json $$e-procs-2.json; \
		cmp $$e-procs-1.json $$e-procs-8.json; \
	done; \
	echo "./repro all -json -no-cache -instructions 8000 -maxstride 512 -seed 7"; \
	./repro all -json -no-cache -instructions 8000 -maxstride 512 -seed 7 > cores-all.json; \
	for e in ablate options31 table2 table3; do \
		echo "./repro $$e: batch report = single run"; \
		jq -S --arg e $$e '.reports[] | select(.experiment == $$e)' cores-all.json > "cores-batch-$$e.json"; \
		./repro $$e -json -no-cache -instructions 8000 -seed 7 | jq -S . > "cores-single-$$e.json"; \
		cmp "cores-batch-$$e.json" "cores-single-$$e.json"; \
	done

# The ingest-smoke job's checks on one exported memory trace, in a
# temporary directory removed on exit (CI runs this target; needs gzip
# and jq).  tracesim's statistics (all but its first line, which names
# the file) are identical on din and gzipped din.  An impossible
# geometry exits 2 with no panic or fatal error on stderr, and a
# replay of the external trace matches the synthetic run in every
# numeric column, at 1, 2 and 8 time shards alike.  A second geometry
# loads the packed trace the first persisted and reports what a run
# without a store reports (JSON is compared: the text report carries
# the run's wall-clock time).  A trace file a run cannot use (the
# retired native binary format, or a missing path) exits 2 with empty
# stdout, from replay and from tracesim.  The gzipped trace drives
# threec.  Last, the digest memo never serves a stale digest: it trusts
# an entry only for a file whose mtime and ctime are more than 2 s
# older than the entry, so the copy settles first and the second
# replay is served without reading it; then one hex digit is
# overwritten in place (same size, same inode) with the mtime
# restored, so only the ctime shows the edit, and the replay must
# report the new file's digest.
ingest-smoke:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	echo "$(GO) build -o $$d/repro ./cmd/repro"; \
	$(GO) build -o "$$d/repro" ./cmd/repro; \
	cd "$$d"; \
	./repro tracegen -bench tomcatv -n 50000 -mem -o t.din; \
	gzip -k t.din; \
	echo "./repro tracesim: din = gzipped din"; \
	./repro tracesim -trace t.din | tail -n +2 > sim-din.txt; \
	./repro tracesim -trace t.din.gz | tail -n +2 > sim-din-gz.txt; \
	cmp sim-din.txt sim-din-gz.txt; \
	for args in "-ways 0" "-block 0" "-addrbits 100" \
			"-scheme a2-Hp -size 64 -block 32 -ways 2" \
			"-scheme a2-Hp-Sk -size 256 -block 32 -ways 4" \
			"-scheme a2 -size 68719476736 -ways 8"; do \
		echo "./repro tracesim -trace t.din $$args: exit 2"; \
		set +e; ./repro tracesim -trace t.din $$args 2> err.txt; code=$$?; set -e; \
		if [ "$$code" != 2 ] || grep -qE '^(panic|fatal error)' err.txt; then \
			echo "tracesim $$args: exit $$code" >&2; cat err.txt >&2; exit 1; \
		fi; \
	done; \
	echo "./repro replay: external trace = synthetic run"; \
	./repro replay -bench tomcatv -instructions 50000 -no-cache -json > synth.json; \
	./repro replay -tracefile t.din.gz -instructions 50000 -no-cache -json > ext.json; \
	jq '.tables[0].columns[2:]' synth.json > synth-counters.json; \
	jq '.tables[0].columns[2:]' ext.json > ext-counters.json; \
	cmp synth-counters.json ext-counters.json; \
	for s in 1 2 8; do \
		echo "./repro replay -tracefile t.din.gz -timeshards $$s"; \
		./repro replay -tracefile t.din.gz -instructions 50000 -timeshards $$s -no-cache -json \
			| jq .tables > "replay-shards-$$s.json"; \
	done; \
	cmp replay-shards-1.json replay-shards-2.json; \
	cmp replay-shards-1.json replay-shards-8.json; \
	echo "./repro replay -scheme a2: loads the persisted packed trace"; \
	./repro replay -tracefile t.din.gz -instructions 50000 -cache-dir .replay-cache -json > /dev/null; \
	./repro replay -tracefile t.din.gz -instructions 50000 -scheme a2 -cache-dir .replay-cache -json \
		> replay-warm.json 2> replay-warm.err; \
	cat replay-warm.err; \
	grep -F 'traces: 1 disk hits, 0 disk puts' replay-warm.err; \
	./repro replay -tracefile t.din.gz -instructions 50000 -scheme a2 -no-cache -json > replay-nocache.json; \
	cmp replay-warm.json replay-nocache.json; \
	printf 'IPOLYTR1%020d' 0 > native.trace; \
	for f in native.trace missing.din; do \
		for cmd in "replay -tracefile $$f -no-cache" "replay -tracefile $$f -no-cache -json" "tracesim -trace $$f"; do \
			echo "./repro $$cmd: exit 2, empty stdout"; \
			set +e; ./repro $$cmd > out.txt 2> err.txt; code=$$?; set -e; \
			if [ "$$code" != 2 ] || [ -s out.txt ]; then \
				echo "$$cmd: exit $$code" >&2; cat out.txt err.txt >&2; exit 1; \
			fi; \
		done; \
	done; \
	echo "./repro threec -tracefile t.din.gz"; \
	./repro threec -tracefile t.din.gz -instructions 50000 -no-cache -json > threec.json; \
	jq -e '.tables | length > 0' threec.json; \
	echo "./repro replay: the digest memo never serves a stale digest"; \
	cp t.din memo.din; \
	sleep 3; \
	for i in 1 2; do \
		./repro replay -tracefile memo.din -instructions 50000 -cache-dir .memo-cache -json > "memo-$$i.json"; \
	done; \
	cmp memo-1.json memo-2.json; \
	touch -r memo.din memo.stamp; \
	c=$$(head -c 3 memo.din | tail -c 1); \
	if [ "$$c" = a ]; then x=b; else x=a; fi; \
	printf %s "$$x" | dd of=memo.din bs=1 seek=2 count=1 conv=notrunc status=none; \
	touch -r memo.stamp memo.din; \
	./repro replay -tracefile memo.din -instructions 50000 -cache-dir .memo-cache -json > memo-3.json; \
	want=$$(sha256sum memo.din | cut -d' ' -f1); \
	jq -e --arg note "trace file sha256 $$want" '.notes | index($$note) != null' memo-3.json

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

ci: build lint test race examples smoke ingest-smoke bench-check report
