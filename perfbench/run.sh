#!/usr/bin/env bash
# Builds qcoordd, repro and the benchmark from source, then runs one
# benchmark invocation. Run it from the repository root:
#
#   bash perfbench/run.sh --workload hot-pair --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository root: the Go build cache, temporary files and the binaries.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are needed)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/home" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
# The go command's config and telemetry files live under the user's config
# directory; keep them in the build directory too.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go build -o "$out/bin/" ./cmd/qcoordd ./cmd/repro
(cd "$root/perfbench" && go build -o "$out/bin/" . ./qtrace)
exec "$out/bin/perfbench" "$@"
