#!/usr/bin/env bash
# Builds the benchmark (perfbench), its set-up probe and cmd/beerd from the
# checkout's sources, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload recover-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/beerd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/beerd and perfbench/ not found)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin"
# Keep the Go build cache, module cache and telemetry inside the checkout;
# the build needs nothing beyond the standard library and this module.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/bin/beerd" ./cmd/beerd
(cd perfbench && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/setupprobe" ./setupprobe)
exec "$out/bin/perfbench" -beerd "$out/bin/beerd" -setupprobe "$out/bin/setupprobe" -out "$out/runs" "$@"
