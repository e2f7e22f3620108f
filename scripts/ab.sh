#!/usr/bin/env bash
# Paired A/B runs: a base commit against the work tree.
#
#   scripts/ab.sh [--json OUT] [--require METRIC:RATIO]...
#                 BASE_REF WORKLOAD K [SECONDS] [SEED]
#
# Exports BASE_REF (git archive) and the work tree (tracked and
# untracked, non-ignored files) into .bench_build/ab/base and
# .bench_build/ab/change, builds both with -falign-functions=64 (on
# top of $CXXFLAGS), then runs K pairs, alternating which side runs
# first (base first in odd pairs).
#
# WORKLOAD is either an e2ebench workload (replay_lesl_serial,
# sweep_fig8_remote, trace_random_sharded), run as
#   python3 e2ebench/run.py --workload W --seed SEED --seconds SECONDS
# (defaults: SECONDS 30, SEED 3), or the name of a bench binary
# (bench_encode_hot_path, ...), whose WLCRC_BENCH_JSON_OUT report
# gives one metric per scheme row. A run that prints no metrics, or
# an e2ebench run that is not correct, stops the script.
#
# Output, per metric: base and change medians, the base runs' IQR,
# the change/base ratio of medians, how many of the K pairs the
# change won (in the metric's better direction) and each side's
# min..max. Raw per-run metrics go to .bench_build/ab/runs.jsonl.
#   --json OUT      also write the paired record (workload, base ref,
#                   K, seconds, seed, simd and the per-metric figures)
#                   to OUT as JSON.
#   --require M:R   same-session gate: exit 1 unless the change is at
#                   least R times better than the base on metric M
#                   (change/base medians for higher-is-better metrics,
#                   base/change for lower-is-better ones) and wins at
#                   least 9 of every 10 pairs. May be repeated.
# The script changes no gate, bound or baseline of the repository.
set -euo pipefail

usage() {
    sed -n '2,34p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
}
json_out="" requires=()
while [[ $# -gt 0 && $1 == --* ]]; do
    case $1 in
    --json) [[ $# -ge 2 ]] || usage; json_out=$(realpath -m "$2"); shift 2 ;;
    --require)
        [[ $# -ge 2 && $2 =~ ^[^:]+:[0-9]*\.?[0-9]+$ ]] ||
            { echo "ab.sh: --require takes METRIC:RATIO" >&2; exit 2; }
        requires+=("$2"); shift 2 ;;
    *) usage ;;
    esac
done
[[ $# -ge 3 ]] || usage
base_ref=$1 workload=$2 pairs=$3 seconds=${4:-30} seed=${5:-3}
[[ $pairs =~ ^[1-9][0-9]*$ ]] || { echo "ab.sh: K must be a positive integer" >&2; exit 2; }

root=$(git rev-parse --show-toplevel)
ab=$root/.bench_build/ab
base_sha=$(git -C "$root" rev-parse --verify "$base_ref^{commit}")
export CXXFLAGS="${CXXFLAGS:-} -falign-functions=64"

# Sources are replaced on every call; build directories (.bench_build
# inside the e2ebench tree, build/ for bench binaries) are kept, so a
# repeat call rebuilds incrementally. The base tree is wiped whole
# when BASE_REF moves: archive mtimes would not mark its files dirty.
export_tree() { # dir
    mkdir -p "$1"
    find "$1" -mindepth 1 -maxdepth 1 ! -name .bench_build ! -name build \
        ! -name .ab_ref -exec rm -rf {} +
}
if [[ "$(cat "$ab/base/.ab_ref" 2>/dev/null)" != "$base_sha" ]]; then
    rm -rf "$ab/base"
fi
export_tree "$ab/base"
git -C "$root" archive "$base_sha" | tar -x -C "$ab/base"
echo "$base_sha" > "$ab/base/.ab_ref"
export_tree "$ab/change"
(cd "$root" && git ls-files -z -co --exclude-standard |
    tar --null --ignore-failed-read -T - -cf - 2>/dev/null) |
    tar -x -C "$ab/change"

run_one() { # side -> one JSON object of metrics on stdout
    local dir=$ab/$1
    if [[ $workload == bench_* ]]; then
        local out=$ab/$1.bench.json
        rm -f "$out"
        WLCRC_BENCH_JSON_OUT=$out "$dir/build/$workload" > /dev/null
        python3 - "$out" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
metrics = {}
for row in report.get("schemes", []):
    for key, value in row.items():
        if key in ("writes_per_sec", "ns_per_write", "mb_per_s"):
            metrics[f"{row['scheme']}.{key}"] = value
print(json.dumps(metrics))
EOF
    else
        python3 "$dir/e2ebench/run.py" --workload "$workload" \
            --seed "$seed" --seconds "$seconds" --trace 0 2> "$ab/$1.log" |
            tail -n 1 | python3 -c '
import json, sys
out = json.loads(sys.stdin.read())
if not out["correct"]:
    sys.exit("ab.sh: a run was not correct (see .bench_build/ab/*.log)")
print(json.dumps({k: m["value"] for k, m in out["metrics"].items()}))'
    fi
}

for side in base change; do
    echo "ab.sh: building $side" >&2
    if [[ $workload == bench_* ]]; then
        cmake -S "$ab/$side" -B "$ab/$side/build" -DCMAKE_BUILD_TYPE=Release \
            > /dev/null
        cmake --build "$ab/$side/build" -j 4 --target "$workload" > /dev/null
    else
        # run.py builds on first use; a 1 s smoke run does that here so
        # that no build lands inside a timed pair.
        python3 "$ab/$side/e2ebench/run.py" --smoke --workload "$workload" \
            --seconds 1 > /dev/null 2> "$ab/$side.log"
    fi
done

runs=$ab/runs.jsonl
: > "$runs"
for ((i = 1; i <= pairs; i++)); do
    order="base change"
    ((i % 2)) || order="change base"
    for side in $order; do
        m=$(run_one "$side")
        echo "{\"pair\": $i, \"side\": \"$side\", \"metrics\": $m}" >> "$runs"
    done
    echo "ab.sh: pair $i/$pairs done" >&2
done

python3 - "$runs" "$base_ref" "$base_sha" "$workload" "$seconds" "$seed" \
    "${WLCRC_SIMD:-auto}" "$json_out" ${requires[@]+"${requires[@]}"} <<'EOF'
import json, statistics, sys
(runs_path, base_ref, base_sha, workload, seconds, seed, simd,
 json_out, *requires) = sys.argv[1:]
runs = [json.loads(line) for line in open(runs_path)]
LOWER = ("cpu_s", "peak_rss", "setup_s", "ns_per")
def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]
pairs = {}
for r in runs:
    pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
names = list(runs[0]["metrics"])
k = len(pairs)
print(f"{workload}: {k} pairs, base {base_ref} vs work tree")
print(f"{'metric':32} {'base med':>12} {'change med':>12} "
      f"{'base IQR':>12} {'ratio':>7} {'wins':>7}  "
      f"{'base min..max':>23}  {'change min..max':>23}")
metrics = {}
for name in names:
    lower = any(tag in name for tag in LOWER)
    b = [p["base"][name] for p in pairs.values()]
    c = [p["change"][name] for p in pairs.values()]
    q1, q3 = quartiles(b)
    wins = sum((x < y) if lower else (x > y)
               for x, y in zip(c, b))
    mb, mc = statistics.median(b), statistics.median(c)
    ratio = mc / mb if mb else float("nan")
    metrics[name] = {
        "better": "lower" if lower else "higher",
        "base_median": mb, "change_median": mc, "base_iqr": q3 - q1,
        "ratio": ratio, "wins": wins,
        "base_min": min(b), "base_max": max(b),
        "change_min": min(c), "change_max": max(c)}
    print(f"{name:32} {mb:12.6g} {mc:12.6g} {q3 - q1:12.4g} "
          f"{ratio:7.3f} {wins:>3}/{k:<3}  "
          f"{min(b):11.5g}..{max(b):<11.5g} "
          f"{min(c):11.5g}..{max(c):<11.5g}")
failed = []
for req in requires:
    name, bound = req.rsplit(":", 1)
    if name not in metrics:
        sys.exit(f"ab.sh: --require names unknown metric {name}")
    m = metrics[name]
    gain = (m["base_median"] / m["change_median"]
            if m["better"] == "lower" else m["ratio"])
    ok = gain >= float(bound) and 10 * m["wins"] >= 9 * k
    print(f"require {name} x{float(bound):g}: gain x{gain:.3f}, "
          f"wins {m['wins']}/{k}: {'pass' if ok else 'FAIL'}")
    if not ok:
        failed.append(name)
if json_out:
    bench = workload.startswith("bench_")
    record = {"workload": workload, "base_ref": base_ref,
              "base_sha": base_sha, "pairs": k,
              "seconds": None if bench else float(seconds),
              "seed": None if bench else int(seed),
              "simd": simd, "metrics": metrics}
    with open(json_out, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
sys.exit(1 if failed else 0)
EOF
