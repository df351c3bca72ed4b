#!/usr/bin/env bash
# Builds indiss-bench from this checkout's sources and runs it with the
# given arguments, from the checkout's root:
#
#   bash cmd/indiss-bench/run.sh --workload bridge-warm --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary and the gateways' view stores.
# The build needs the rest of the repository (the benchmark imports its
# packages), so outside a full checkout it fails and the script exits
# non-zero without running anything.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/cmd/indiss-bench" && go build -o "$out/indiss-bench" .)
exec "$out/indiss-bench" "$@"
