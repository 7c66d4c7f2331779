#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with
# the given arguments. The Go build cache and temporary files stay under
# .bench_build/ at the checkout root, and the toolchain never goes to the
# network: the benchmark needs nothing the checkout does not hold.
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 15 --trace 0
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --spans-out "$out/spans.json" "$@"
