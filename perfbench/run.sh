#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
if [ -d "$root/.git" ]; then
	PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	export PERFBENCH_COMMIT
fi
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
