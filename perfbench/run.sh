#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload fast-weeks --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build writes (compiler
# cache, binary, traced-run output) stays under .bench_build (or
# $CARGO_TARGET_DIR when set) in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod and perfbench/go.mod)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" = /* ]] || build="$root/$build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"
# The go command's cache, temporary files and local telemetry (kept under
# the user config directory) all land in the build directory.
(
	export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
	export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
	export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off
	cd "$root/perfbench" && go build -o "$build/perfbench" .
)
exec "$build/perfbench" --out "$build/trace" "$@"
