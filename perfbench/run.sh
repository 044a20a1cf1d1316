#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload figures|serve|serve-durable|all \
#       --seed N --seconds S --trace 0|1
#
# Run it from the root of the checkout. Every file the build and the run
# write (Go build cache, binary, spans, per-layer tables, WAL files) stays
# under .bench_build in that directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
# The module depends only on the repository and the standard library.
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

go_bin=$(command -v go || true)
if [ -z "$go_bin" ] && [ -x /usr/local/go/bin/go ]; then
	go_bin=/usr/local/go/bin/go
fi
if [ -z "$go_bin" ]; then
	echo "perfbench: no go toolchain on PATH" >&2
	exit 1
fi

(cd "$here" && "$go_bin" build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
