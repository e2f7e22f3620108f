#!/usr/bin/env python3
"""End-to-end benchmark of the wlcrc simulator.

Builds the simulator library, wlcrc_worker and the e2e_bench binary
from the checkout's sources into .bench_build/, runs one workload
through the public runner API, checks every point's simulated
statistics, and prints the metrics. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 the per-layer ones from a separate traced run.

Correctness: for the seeds in expected.json (the default seed and one
held-out seed) every point's writes, compressed writes and exact
energy / updated-cell / disturb-error means must equal the checked-in
values. For any other seed the gate is self-consistency: every
repetition, and the traced run, reproduce the first repetition's
statistics exactly, and every point replays exactly its line count.
The model is unvalidated against hardware, so no accuracy error is
reported.

Other modes:
    --smoke             tiny inputs (see smoke_test.py)
    --update-expected   regenerate expected.json on the serial backend
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD, "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOADS = ("replay_lesl_serial", "sweep_fig8_remote", "trace_random_sharded")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
END_TO_END = ("writes_per_s", "cpu_s_per_mwrite", "peak_rss_mb", "setup_s")
# Seconds the binary may run past its time budget (set-up, standalone
# layer timings, teardown) before it is killed.
SLACK_S = 100


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output to stderr."""
    if not os.path.exists(os.path.join(ROOT, "src", "runner", "runner.hh")):
        log("e2ebench: simulator sources (src/) not found next to e2ebench/")
        sys.exit(2)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4"],
                   check=True, stdout=sys.stderr)


def reap_orphans():
    """Wait for workers orphaned by a killed e2e_bench (see main)."""
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def run_binary(args, timeout):
    """Run e2e_bench with a private temp dir; return its JSON output."""
    tmp_root = os.path.join(BUILD, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    env = dict(os.environ, TMPDIR=tmp)
    err_path = os.path.join(tmp, "stderr.txt")
    try:
        with open(err_path, "w") as err:
            # Its own process group, so the workers it spawns can be
            # stopped with it if it has to be killed.
            proc = subprocess.Popen([BINARY, *args, "--tmp", tmp],
                                    stdout=subprocess.PIPE, stderr=err,
                                    env=env, text=True,
                                    start_new_session=True)
            try:
                out, _ = proc.communicate(timeout=timeout)
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
                    reap_orphans()
        with open(err_path) as err:
            errors = [line for line in err
                      if not line.startswith("wlcrc_worker: served")]
        if proc.returncode != 0:
            sys.stderr.writelines(errors[-40:])
            log(f"e2ebench: e2e_bench exited with {proc.returncode}")
            sys.exit(1)
        return json.loads(out.strip().splitlines()[-1]), errors
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def expected_points(workload, smoke, seed):
    if not os.path.exists(EXPECTED):
        return None
    with open(EXPECTED) as f:
        table = json.load(f)
    size = "smoke" if smoke else "full"
    return table.get(workload, {}).get(size, {}).get(str(seed))


def update_expected():
    table = {}
    for workload in WORKLOADS:
        for size, smoke in (("full", False), ("smoke", True)):
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                args = ["--workload", workload, "--seed", str(seed),
                        "--seconds", "1", "--trace", "0", "--reference"]
                if smoke:
                    args.append("--smoke")
                out, _ = run_binary(args, timeout=600)
                table.setdefault(workload, {}).setdefault(size, {})[
                    str(seed)] = out["points"]
                log(f"reference {workload} {size} seed {seed}: "
                    f"{len(out['points'])} points")
    with open(EXPECTED, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--update-expected", action="store_true")
    opts = parser.parse_args()
    if not opts.update_expected and not opts.workload:
        parser.error("--workload is required")
    if opts.seconds < 1:
        parser.error("--seconds must be at least 1")

    # A terminated run still removes its temp dir and child processes:
    # workers orphaned by a killed e2e_bench are re-parented to this
    # process (PR_SET_CHILD_SUBREAPER), which reaps them.
    ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build()
    if opts.update_expected:
        update_expected()
        return

    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    if opts.smoke:
        args.append("--smoke")
    out, errors = run_binary(args, timeout=opts.seconds + SLACK_S)

    points = out["points"]
    attempted = out["attempted"]
    failed = out["failed"]
    correct = out["consistent"] and out["spans_accounted"]
    expected = expected_points(opts.workload, opts.smoke, opts.seed)
    if expected is not None:
        # Repetitions reproduce the first one (checked above), so a
        # point that differs from expectations differs in every one.
        mismatched = [p for p, e in zip(points, expected) if p != e]
        if len(points) != len(expected):
            mismatched = points
        for p in mismatched:
            log(f"e2ebench: statistics differ from expected.json: {p}")
        failed += len(mismatched) * (attempted // max(1, len(points)))
    failed = min(failed, attempted)
    correct = correct and failed == 0
    if not correct:
        sys.stderr.writelines(errors[-40:])

    if opts.trace:
        metrics = out["metrics"]
    else:
        metrics = {k: out["metrics"][k] for k in END_TO_END}
        metrics["ok_ratio"] = {"value": 1 - failed / attempted,
                               "unit": "ratio"}

    print("provenance: " + json.dumps(out["provenance"], sort_keys=True))
    print("gate: " + ("expected.json seed %d" % opts.seed if expected
                      is not None else "self-consistency (seed not shipped)"))
    for name, m in metrics.items():
        print(f"{opts.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
