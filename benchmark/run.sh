#!/usr/bin/env bash
# The one command of the wall-clock PDC-Query benchmark. Run it from the
# root of a checkout:
#
#   bash benchmark/run.sh --workload point-auto --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh --aa [--workload W] [--seed N] [--seconds S]
#
# It builds cmd/pdc-server and the harness from source into
# benchmark/bin/ (the Go build, module and temp directories are kept
# inside the checkout too), runs the harness, and leaves no pdc-server
# behind on exit or signal. Every flag is passed through; see README.md.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
bin="$here/bin"
mkdir -p "$bin/tmp" "$here/out"

export GOCACHE="$bin/gocache" GOMODCACHE="$bin/gomodcache" GOTMPDIR="$bin/tmp" TMPDIR="$bin/tmp"
export GOTOOLCHAIN=local GOPROXY=off

# The generator opens at most as many sessions as there are processors,
# and never more than the two the workloads are sized for.
sessions="$(nproc)"
if [ "$sessions" -gt 2 ]; then sessions=2; fi

(cd "$root" && go build -o "$bin/pdc-server" ./cmd/pdc-server)
(cd "$here" && go build -o "$bin/harness" .)

harness_pid=""
cleanup() {
  if [ -n "$harness_pid" ] && kill -0 "$harness_pid" 2>/dev/null; then
    # TERM lets the harness reap its pdc-server children; KILL follows
    # if it has not gone within 5 s.
    kill -TERM "$harness_pid" 2>/dev/null || true
    for _ in $(seq 50); do
      kill -0 "$harness_pid" 2>/dev/null || break
      sleep 0.1
    done
    kill -KILL "$harness_pid" 2>/dev/null || true
    wait "$harness_pid" 2>/dev/null || true
  fi
  # Whatever the harness could not reap itself.
  pkill -KILL -f "^$bin/pdc-server " 2>/dev/null || true
}
trap cleanup EXIT
trap 'exit 130' INT TERM

cd "$root"
"$bin/harness" -server "$bin/pdc-server" -sessions "$sessions" -out "$here/out" "$@" &
harness_pid=$!
wait "$harness_pid"
