#!/usr/bin/env bash
# Builds the benchmark inside its own directory (build cache included,
# so nothing is written outside the checkout) and runs it with the given
# arguments. See README.md.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p .build
export GOCACHE="$PWD/.build/gocache" GOMODCACHE="$PWD/.build/gomod" GOTOOLCHAIN=local
go build -buildvcs=false -o .build/benchmark .
exec .build/benchmark "$@"
