#!/usr/bin/env bash
# Builds planp_perf and runs the benchmark: every workload, plain run
# then layers run, one process each. Prints every report and writes one
# result set (the last line of every process, and for a plain run the
# uncorrected line before it) to perf/out/<name>.json for --agree.
#
#   perf/run.sh                              # all five workloads at seed 11
#   perf/run.sh --name a && perf/run.sh --name b
#   perf/out/planp_perf --agree perf/out/a.json perf/out/b.json
#   perf/run.sh --seeds "1 2 3 4 5 6 7 8 9 10" --plain-only --name steady
#
# Exits non-zero if any process fails an output check.
set -euo pipefail
cd "$(dirname "$0")/.."

out="perf/out"
workloads="relay_grid relay_grid_telemetry http_gateway cluster_flash download"
seeds="11"
name="result"
traces="0 1"
while [ $# -gt 0 ]; do
  case "$1" in
    --seeds) seeds="$2"; shift 2 ;;
    --name) name="$2"; shift 2 ;;
    --plain-only) traces="0"; shift ;;
    -h|--help) sed -n '2,12p' "$0"; exit 0 ;;
    *) echo "run.sh: unknown argument $1 (try --help)" >&2; exit 2 ;;
  esac
done

cargo build --release --offline --manifest-path perf/Cargo.toml
mkdir -p "$out"
# A stable path to the binary, wherever cargo put it.
cp "${CARGO_TARGET_DIR:-perf/target}/release/planp_perf" "$out/planp_perf"
bin="$out/planp_perf"

set_file="$out/$name.json"
status=0
sep=""
printf '{"runs": [' > "$set_file"
for seed in $seeds; do
  for w in $workloads; do
    for trace in $traces; do
      log="$out/$name.$w.seed$seed.trace$trace.txt"
      echo "=== $w, seed $seed, $([ "$trace" = 1 ] && echo layers || echo plain) run"
      if ! "$bin" --workload "$w" --seed "$seed" --trace "$trace" --out "$out" > "$log"; then
        status=1
        echo "run.sh: $w (seed $seed, trace $trace) failed its output checks" >&2
      fi
      # The report, without the machine-readable lines at its end.
      grep -v '^{' "$log" || true
      printf '%s\n  {"workload": "%s", "trace": %s, "seed": %s, ' "$sep" "$w" "$trace" "$seed" >> "$set_file"
      if [ "$trace" = 0 ]; then
        printf '"wall_clock": %s, ' "$(tail -n 2 "$log" | head -n 1)" >> "$set_file"
      fi
      printf '"result": %s}' "$(tail -n 1 "$log")" >> "$set_file"
      sep=","
    done
  done
done
printf '\n]}\n' >> "$set_file"
echo "wrote $set_file"
exit $status
