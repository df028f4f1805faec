#!/usr/bin/env bash
# Builds the glitchlab benchmark from source and runs it from the root of
# the checkout that holds this directory:
#
#   bash glitchbench/run.sh --workload table6 --seed 1 --seconds 15 --trace 0
#
# Every build artifact, the Go build cache included, stays under
# .bench_build/ in the checkout; temporary daemon state and trace files go
# to .bench_out/. Outside a full glitchlab checkout the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOTOOLCHAIN=local
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"

(cd "$here" && go build -o "$build/glitchbench" .)
cd "$root"
exec "$build/glitchbench" "$@"
