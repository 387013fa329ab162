#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments (see README.md). Every file the build writes stays under
# .bench_build/ in the directory this is started from: the Go build cache,
# the module cache, the toolchain's own config, and the binary.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

go build -C "$root/perfbench" -buildvcs=false -o "$out/ccxbench" .
exec "$out/ccxbench" --spans-dir "$out/spans" "$@"
