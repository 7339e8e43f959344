#!/usr/bin/env bash
# Builds ridserve and the benchmark from this tree, then runs the benchmark.
# Run from the repository root; arguments pass through, e.g.
#   bash perfbench/run.sh --workload wire-detect --seed 1 --seconds 10 --trace 0
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/xdg"

# Keep the Go toolchain's caches, temporary files and settings inside the
# checkout; sources only, no downloads.
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath \
	GOTMPDIR=$build/tmp TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/xdg \
	GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$build/ridserve" ./cmd/ridserve
go -C perfbench build -o "$build/perfbench" .

workload=unknown seed=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	case ${args[i]} in
	--workload | -workload) workload=${args[i + 1]:-} ;;
	--seed | -seed) seed=${args[i + 1]:-} ;;
	esac
done
exec "$build/perfbench" -server "$build/ridserve" \
	-spans "$build/spans-$workload-seed$seed.json" "$@"
