#!/usr/bin/env bash
# Builds piibench and runs it from the repository root, passing every
# argument through:
#
#   bash bench/run.sh --workload cold-cli --seed 2021 --seconds 10 --trace 0
#
# Build caches, temporary files, binaries and run scratch all live under
# .bench_build in the checkout, so a run reads and writes nothing else.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/piicrawl" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "run.sh: run from the piileak repository root (go.mod, cmd/piicrawl and bench/go.mod are required)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CACHE_HOME="$build/home/.cache" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C "$root/bench" build -o "$build/piibench" ./piibench
exec "$build/piibench" -root "$root" "$@"
