#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout root. Everything the go tool writes (build cache, temp files, its
# own config) is pointed into bench/out/build, so a run touches nothing
# outside the checkout and nothing git does not already ignore.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/bench/out/build"
mkdir -p "$build/tmp"
(
	cd "$root/bench"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$build/havoq-bench" . >&2
)
cd "$root"
exec "$build/havoq-bench" "$@"
