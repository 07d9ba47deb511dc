#!/usr/bin/env bash
# The benchmark's one command. Run it from the root of a checkout:
#
#   bash bench/run.sh --workload region-hit-64b --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh            # all four workloads, default seed, one JSON document each
#
# It builds the harness, sailfish-gw and the null reflector (untimed) and runs
# the harness. Everything it writes — Go's build cache included — stays under
# .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
# Without the program there is nothing to measure: say so before anything is
# started or written.
if [ ! -f go.mod ] || [ ! -d cmd/sailfish-gw ]; then
	echo "bench/run.sh: no sailfish module here (go.mod, cmd/sailfish-gw): nothing to benchmark" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/out" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod
# With a config directory of its own the go command would find no upload token
# and start its telemetry sidecar, a detached process that outlives the build.
echo off >"$build/config/go/telemetry/mode"

# bench/ is a module of its own (bench/go.mod) that replaces sailfish with the
# checkout around it, so the daemon is built from there too.
(
	cd bench
	go build -o "$build/bin/bench" .
	go build -o "$build/bin/echo" ./cmd/echo
	go build -o "$build/bin/sailfish-gw" sailfish/cmd/sailfish-gw
)

harness=("$build/bin/bench" --gw "$build/bin/sailfish-gw" --echo "$build/bin/echo" --workdir "$build/run")

if [ $# -gt 0 ]; then
	# exec: a signal meant for the benchmark reaches the harness, which owns
	# the daemon and the reflector (both die with it).
	exec "${harness[@]}" "$@"
fi
for w in region-hit-64b region-lpm-churn region-ladder-zipf wire-64b; do
	"${harness[@]}" --workload "$w" --out "$build/out/$w.json"
done
echo "run documents: $build/out/"
