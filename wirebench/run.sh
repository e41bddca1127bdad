#!/usr/bin/env bash
# Builds wirebench from this checkout and runs it with the given arguments.
# Run from the repository root:
#
#   bash wirebench/run.sh --workload star_pop --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache, the build's temporary files and the go
# command's own configuration all go to .bench_build/ in the current
# directory, so nothing is written outside the checkout. The build needs the
# repository's own module one directory up; without it the build, and so
# the run, fails.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

(
	cd "$here"
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
		XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
	go build -o "$out/wirebench" .
)

commit=$(git --git-dir="$root/.git" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
exec "$out/wirebench" --commit "$commit" "$@"
