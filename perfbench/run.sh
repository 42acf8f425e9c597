#!/usr/bin/env bash
# Builds the benchmark and the mcserved daemon from this checkout, then
# runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Binaries, the Go build cache and the
# benchmark's working files stay under .bench_build/, so compiling is
# not part of any timing (the first run in a fresh checkout compiles
# everything and takes longer).
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/mcserved ] || [ ! -d perfbench ]; then
	echo "run.sh: run from the repository root (go.mod, cmd/mcserved and perfbench are missing)" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/work"
# Keep the toolchain's caches, temporary files and telemetry inside the
# checkout, and off the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/bin/perfbench" ./perfbench
go build -o "$out/bin/mcserved" ./cmd/mcserved
exec "$out/bin/perfbench" --mcserved "$out/bin/mcserved" --workdir "$out/work" "$@"
