#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds N --trace 0|1
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, durable-store files) stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the root of a locble checkout (go.mod and internal/ not found)" >&2
	exit 2
fi
mkdir -p "$out/gocache" "$out/tmp" "$out/run"
# A hermetic, offline build: the local toolchain only, no module
# downloads, no workspace or inherited flags, no C toolchain needed.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out/run" "$@"
