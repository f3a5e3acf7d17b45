#!/usr/bin/env bash
# profile.sh [--under <frame>] <binary> [args...]
#
# A sampling profile with nothing but cc, nm and python3: runs <binary>
# with scripts/profile_shim.c preloaded (SIGPROF every millisecond of CPU
# time, the interrupted instruction plus a frame-pointer walk), then
# prints the top 15 functions by self and by inclusive share of samples
# (scripts/profile_report.py). With --under, only the samples that have
# a function whose name contains <frame> on the stack count, e.g.
# `--under PlanpLayer::on_packet`. The binary's own output goes to stderr.
#
# Inclusive shares need frame pointers; build the binary for it into a
# target directory of its own, so the benchmark's build is not disturbed:
#   RUSTFLAGS="-C force-frame-pointers=yes" cargo build --release --offline \
#       --manifest-path perf/Cargo.toml --target-dir /tmp/fp
#   scripts/profile.sh --under on_packet /tmp/fp/release/planp_perf \
#       --workload http_gateway --seconds 3
# Without them self shares are still exact and stacks stop early.
# Informational: samples are wall-clock facts and never gate anything.
set -euo pipefail

under=()
if [ "${1:-}" = "--under" ]; then
    under=("${2:?--under needs a frame name}")
    shift 2
fi
bin=${1:?usage: profile.sh [--under <frame>] <binary> [args...]}
shift
[ -x "$bin" ] || { echo "profile: cannot run $bin" >&2; exit 2; }
here=$(cd "$(dirname "$0")" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cc -O2 -shared -fPIC -o "$tmp/shim.so" "$here/profile_shim.c"
LD_PRELOAD="$tmp/shim.so" "$bin" "$@" 3>"$tmp/samples" >&2
python3 "$here/profile_report.py" "$tmp/samples" "$bin" "${under[@]}"
