#!/usr/bin/env bash
# Builds the repro CLI and the benchmark binary from the checkout this
# script sits in, then runs the benchmark:
#
#   bash perfbench/run.sh --workload reproduce|serve|replay|all \
#        --seed N --seconds S --trace 0|1
#
# Every file the build and the run write stays under .bench_build/ at
# the checkout root (Go build cache, temp files, binaries, fixtures,
# artifact stores, span files).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/repro" ]]; then
	echo "perfbench: $root holds no repro sources (go.mod, cmd/repro); nothing to build" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off
# With telemetry in its default mode the go command forks a detached
# sidecar that can outlive the build; "off" makes it start none.
echo off >"$build/config/go/telemetry/mode"
cd "$root"
go build -o "$build/repro" ./cmd/repro >&2
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -root "$root" "$@"
