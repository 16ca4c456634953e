#!/usr/bin/env bash
# Builds faqd and the benchmark from the checkout's sources, then runs the
# benchmark with the arguments given.  Run it from the repository root:
#
#   bash perfbench/run.sh --workload adhoc-inline --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare base.txt head.txt
#
# Everything it builds or writes stays under .bench_build/ in the checkout:
# the Go build cache, the binaries, the daemon's data directories and the
# span dumps of traced runs.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/faqd" ]]; then
	echo "perfbench: run from the repository root (go.mod and cmd/faqd not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

go build -o "$out/faqd" ./cmd/faqd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -faqd "$out/faqd" -workdir "$out" "$@"
