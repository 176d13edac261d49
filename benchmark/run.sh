#!/usr/bin/env bash
# Builds the benchmark binary from the checkout's sources and replaces this
# shell with it. Everything the build writes (binary, Go build cache, Go's
# per-user config) is redirected under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
bin="$out/phoebebench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
# Rebuild only when a source file is newer than the binary: the staleness
# check `go build` does itself costs about a second on every run.
if [ ! -x "$bin" ] || [ -n "$(find "$root" -name .bench_build -prune -o \
	\( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	(cd "$here" && go build -o "$bin" .)
fi
cd "$root"
exec "$bin" "$@"
