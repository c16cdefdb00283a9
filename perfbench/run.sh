#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# (the working directory must be the repository root) and runs it with
# the given arguments. Build products, the Go build cache and the
# scan-disk segment files all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOTELEMETRY=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" -workdir "$out" "$@"
