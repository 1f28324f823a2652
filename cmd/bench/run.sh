#!/bin/sh
# Builds the serving benchmark and runs it from the repository root, keeping
# the Go build cache, temporary files and binaries under .bench_build/.
# Arguments pass through to the benchmark; see doc.go for them.
#
#	sh cmd/bench/run.sh -seed 1 -out results.json
#	sh cmd/bench/run.sh --workload sweep --seed 1 --seconds 12 --trace 0
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$build/bench" ./cmd/bench
exec "$build/bench" -root "$root" "$@"
