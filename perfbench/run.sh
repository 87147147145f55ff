#!/usr/bin/env bash
# Builds the benchmark and the wbserved daemon from this checkout's
# sources, then runs one benchmark invocation. Run it from the
# repository root; every build product and cache stays in .bench_build.
#
#   bash perfbench/run.sh --workload wire-replay --seed 1 --seconds 10 --trace 0
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/wbserved ] || [ ! -d internal/serve ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/wbserved and internal/serve are missing here)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
# Keep the toolchain's caches and temporary files inside the checkout,
# and never let it reach for the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" HOME="$out/home" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/perfbench" ./perfbench
go build -o "$out/wbserved" ./cmd/wbserved
exec "$out/perfbench" -wbserved "$out/wbserved" -out "$out" "$@"
