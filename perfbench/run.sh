#!/usr/bin/env bash
# Builds the benchmark and seedservd from the checkout it is run in and
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload tblastn-genome --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout. Outside a seedblast checkout it fails without a result.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/seedservd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a seedblast checkout" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# benchfmt's provenance asks git for the commit; keep it inside the checkout.
GIT_CEILING_DIRECTORIES=$(dirname "$root")
export GIT_CEILING_DIRECTORIES

go build -o "$out/seedservd" ./cmd/seedservd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/seedservd" "$@"
