#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
# Usage (from the repository root):
#
#   bash bench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Every build artefact (Go build cache, temporary build files, the
# binary) and every run artefact (audit trails, span files) stays under
# .bench_build/ in the working directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the root of a cloudmon checkout (go.mod, internal/ and bench/ must exist)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOENV=off GOWORK=off

(cd bench && go build -o "$out/cloudbench" .)
exec "$out/cloudbench" "$@"
