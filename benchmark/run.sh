#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build outputs, the Go build cache and the
# go command's own configuration stay under .bench_build/ in the working
# directory, so the build writes nothing outside it. With no --workload,
# each workload runs in turn, each in its own process.
set -euo pipefail

root=$(pwd)
dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local XDG_CONFIG_HOME="$out/config"
(cd "$dir" && go build -o "$out/benchmark" .) >&2

case " $* " in
*" --workload "*) exec "$out/benchmark" "$@" ;;
esac
for w in oneshot-table1 qsimd-repeat qsimd-fresh12; do
	"$out/benchmark" --workload "$w" "$@"
done
