#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it with the given arguments (see README.md). Every build
# artifact, including the Go build cache, stays inside the checkout, and the
# build never touches the network.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
# The go command keeps its caches under GOPATH and GOCACHE and its
# settings and telemetry under the user config directory; all go here.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
