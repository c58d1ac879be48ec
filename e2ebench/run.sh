#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the root
# of the checkout:
#
#   bash e2ebench/run.sh --workload ring5-tcp --seed 1 --seconds 20 --trace 0
#
# Build outputs (binary, Go build cache, span files) stay under
# .bench_build/ in the checkout. The build needs the enclosing repository
# module (replace repro => ../ in e2ebench/go.mod), so from a directory
# that holds only the benchmark it fails and the script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local \
	GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
cd "$root"
exec "$out/e2ebench" "$@"
