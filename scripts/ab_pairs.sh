#!/usr/bin/env bash
# Alternating parent/change pairs of the benchmark driver's command.
#
#   scripts/ab_pairs.sh <parent-checkout> <change-checkout> <workloads> <seed> <pairs>
#
# <workloads> is one workload, a comma-separated list, or `all` (every
# workload `BENCHMARK.json` declares). Runs the command `BENCHMARK.json`
# declares (read from the change checkout; `--seconds` is its
# `run_seconds`, `--trace 0`) once per side per workload per pair, each
# side inside its own checkout, alternating which side goes first — every
# workload of a pair in the same order — after one discarded 1-second run
# per side that builds it. Prints every run, then per workload and
# end-to-end metric each side's median and quartiles, the ratio of the
# medians, and how many pairs the change won (ties count for neither) —
# the table choosing-metrics §8 asks a claimed gain for. A metric every run
# of a side reported the same value of (`peak_state_bytes`, `ok_share` at a
# fixed seed) is a count, not a sample: its row is marked `exact` and shows
# the two values and their difference instead. Exit 1 if any run reported
# `correct: false` or a failed operation.
#
# The host is shared: run nothing else beside it.
set -euo pipefail

if [ "$#" -ne 5 ]; then
  sed -n '2,6p' "$0" >&2
  exit 2
fi
PARENT="$(cd "$1" && pwd)"
CHANGE="$(cd "$2" && pwd)"
WORKLOADS="$3"
SEED="$4"
PAIRS="$5"

MANIFEST="$CHANGE/BENCHMARK.json"
mapfile -t CMD < <(python3 -c 'import json,sys; print("\n".join(json.load(open(sys.argv[1]))["command"]))' "$MANIFEST")
SECONDS_PER_RUN="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$MANIFEST")"
if [ "$WORKLOADS" = all ]; then
  WORKLOADS="$(python3 -c 'import json,sys; print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$MANIFEST")"
fi
IFS=, read -r -a WORKLOAD_LIST <<< "$WORKLOADS"

RUNS="$(mktemp)"
trap 'rm -f "$RUNS"' EXIT

# One run of one side; appends "<workload> <side> <result JSON>" to $RUNS.
run_side() {
  local side="$1" dir="$2" workload="$3" seconds="$4" line
  line="$(cd "$dir" && "${CMD[@]}" --workload "$workload" --seed "$SEED" --seconds "$seconds" --trace 0 | tail -n 1)"
  if [ "$seconds" = "$SECONDS_PER_RUN" ]; then
    echo "$workload $side $line" >> "$RUNS"
    echo "$workload $side $line"
  fi
}

run_side parent "$PARENT" "${WORKLOAD_LIST[0]}" 1
run_side change "$CHANGE" "${WORKLOAD_LIST[0]}" 1
for ((i = 0; i < PAIRS; i++)); do
  for workload in "${WORKLOAD_LIST[@]}"; do
    if ((i % 2 == 0)); then
      run_side parent "$PARENT" "$workload" "$SECONDS_PER_RUN"
      run_side change "$CHANGE" "$workload" "$SECONDS_PER_RUN"
    else
      run_side change "$CHANGE" "$workload" "$SECONDS_PER_RUN"
      run_side parent "$PARENT" "$workload" "$SECONDS_PER_RUN"
    fi
  done
done

python3 - "$RUNS" "$MANIFEST" "$SEED" <<'PY'
import json, statistics, sys

runs, manifest, seed = sys.argv[1:4]
by_workload = {}
for line in open(runs):
    workload, side, result = line.split(" ", 2)
    sides = by_workload.setdefault(workload, {"parent": [], "change": []})
    sides[side].append(json.loads(result))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

end_to_end = json.load(open(manifest))["end_to_end"]
for workload, sides in by_workload.items():
    pairs = list(zip(sides["parent"], sides["change"]))
    print(f"\n{workload} seed {seed}: {len(pairs)} pairs")
    print(f"{'metric':<18}{'parent q1 / median / q3':>40}{'change q1 / median / q3':>40}{'change/parent':>15}{'wins':>8}")
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        a = [p["metrics"][name]["value"] for p, _ in pairs]
        b = [c["metrics"][name]["value"] for _, c in pairs]
        if len(pairs) > 1 and len(set(a)) == 1 and len(set(b)) == 1:
            num = lambda v: str(int(v)) if float(v).is_integer() else f"{v:.10g}"
            diff = b[0] - a[0]
            rel = f" ({diff / a[0]:+.2%})" if a[0] else ""
            print(f"{name:<18}{num(a[0]):>40}{num(b[0]):>40}{num(diff) + rel:>25}   exact")
            continue
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        fmt = lambda q: " / ".join(f"{v:.6g}" for v in q)
        qa, qb = quartiles(a), quartiles(b)
        ratio = qb[1] / qa[1] if qa[1] else float("nan")
        print(f"{name:<18}{fmt(qa):>40}{fmt(qb):>40}{ratio:>15.3f}{wins:>5}/{len(pairs)}")

bad = [r for sides in by_workload.values() for rs in sides.values() for r in rs if not r["correct"] or r["failed"]]
if bad:
    print(f"{len(bad)} run(s) incorrect or with failed operations", file=sys.stderr)
    sys.exit(1)
PY
