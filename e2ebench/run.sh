#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is
# run from, then runs it with the given arguments, for example
#
#   bash e2ebench/run.sh --workload edit-stream --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build writes (Go build
# and module caches, toolchain settings, the binary) and every trace the
# benchmark writes stays under $CARGO_TARGET_DIR, or .bench_build when
# that is unset. The build needs no network: the module's only
# dependency is the repository itself.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/go-build GOMODCACHE=$out/go-mod GOPATH=$out/go-path
export XDG_CONFIG_HOME=$out/config GOENV=off GOWORK=off GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

(cd "$root/e2ebench" && go build -trimpath -o "$out/e2ebench" .)
exec "$out/e2ebench" -out "$out" "$@"
