#!/usr/bin/env bash
# Builds owlperf from the checkout this script lives in and runs it with
# the given arguments. Every build artifact, the Go build cache and the Go
# tool's own state stay under .bench_build/ at the checkout root, and the
# build uses only the standard library and the checkout: no module fetch.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
out="$root/.bench_build"
export GOCACHE="$out/go-cache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false

(cd "$root/cmd/owlperf" && go build -o "$out/owlperf" .)
exec "$out/owlperf" "$@"
