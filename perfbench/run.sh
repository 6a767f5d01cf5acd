#!/usr/bin/env bash
# Builds the perfbench command and the huffduffd daemon from this checkout's
# sources, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload resnet18_attack --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build product, Go cache and temporary
# file stays under .bench_build/ in the current directory (or under
# $CARGO_TARGET_DIR when that is set, relative paths taken from the root).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/bin" "$out/work"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath \
	GOMODCACHE=$out/gopath/pkg/mod XDG_CONFIG_HOME=$out/config TMPDIR=$out/gotmp \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

# Build output goes to stderr: the last line of stdout is the result.
go build -C perfbench -o "$out/bin/perfbench" . >&2
go build -C perfbench -o "$out/bin/huffduffd" github.com/huffduff/huffduff/cmd/huffduffd >&2

exec "$out/bin/perfbench" -huffduffd "$out/bin/huffduffd" -workdir "$out/work" "$@"
