#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the repository
# root; every argument goes to the binary (see main.go, or -h).
#
# Nothing is written outside the checkout: the Go build cache, Go's own
# config directory and temporary files all live under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOCACHE="$build/home/.cache/go-build" GOPATH="$build/home/go" GOTMPDIR="$build/tmp" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off \
	go -C "$root/bench" build -o "$build/apbench" .
cd "$root"
exec "$build/apbench" "$@"
