"""glg attack benchmark: one command, every metric by name and unit.

Usage (from the repository root):
    python3 bench/run.py --workload node1_tree --seed 0 --seconds 30 --trace 0

Each workload runs in its own single-threaded worker process with BLAS
pinned to one thread; see bench/README.md for the workloads and metrics.
With ``--trace 0`` the last line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run. Run records
and span files go to ``bench/out/``.
"""

import os

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("node1_tree", "node2a_gcn", "graph_a_sage")
# Set-up is sampled in this many fresh processes besides the measured one.
SETUP_PROBES = 2
# A run must end within 180 s; workers share this budget.
RUN_BUDGET_S = 170
# The reference kernel's time on a quiet host of the kind the benchmark was
# tuned on (2-vCPU Xeon); it turns set-up time in reference units back into
# seconds. See bench/README.md.
REF_NOMINAL_S = 0.045


def _steal_ticks():
    """The machine's cumulative steal ticks, from the cpu line of /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" else None
    except (OSError, IndexError, ValueError):
        return None


def _worker(args, env, deadline, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(time.time()), *extra]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        sys.exit("worker ran past the run's time budget")
    if proc.returncode != 0:
        sys.exit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _plain(result):
    return [r for r in result["reps"] if not r["traced"]]


def end_to_end(result, setups):
    """Times are in units of the reference kernel timed around each
    repetition (``ref``), which cancels much of the host's drift; set-up
    time is scaled the same way and given in seconds at REF_NOMINAL_S."""
    plain = _plain(result)
    ref = statistics.median(r["ref_s"] for r in plain)
    return {
        "setup_s": _metric(
            statistics.median(setups) * REF_NOMINAL_S / ref, "s"),
        "rep_ref_p50": _metric(statistics.median(
            r["wall_s"] / r["ref_s"] for r in plain), "ref"),
        "attack_iters_per_ref": _metric(
            sum(r["iters"] for r in plain)
            / sum(r["attack_s"] / r["ref_s"] for r in plain), "1/ref"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MiB"),
    }


def wall_clock(result, setups):
    """The same figures in seconds, for the record; they carry host drift."""
    plain = _plain(result)
    return {
        "setup_s": statistics.median(setups),
        "rep_s_p50": statistics.median(r["wall_s"] for r in plain),
        "attack_iters_per_s": sum(r["iters"] for r in plain)
        / sum(r["attack_s"] for r in plain),
        "ref_s_p50": statistics.median(r["ref_s"] for r in plain),
    }


def per_layer(result):
    out = {}
    for name, value in result["layers"].items():
        out[name] = _metric(value, "count" if name.endswith(".calls") else "s")
    walls, refs = {}, {}
    for traced in (False, True):
        reps = [r for r in result["reps"] if r["traced"] == traced]
        walls[traced] = statistics.median(r["wall_s"] for r in reps)
        refs[traced] = statistics.median(r["wall_s"] / r["ref_s"] for r in reps)
    out["rep_s_p50.plain"] = _metric(walls[False], "s")
    out["rep_s_p50.traced"] = _metric(walls[True], "s")
    # in reference units, like rep_ref_p50, so host drift cancels
    out["trace_overhead_pct"] = _metric(
        100.0 * (refs[True] / refs[False] - 1.0), "%")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "glg", "__init__.py")):
        sys.exit("run from the repository root: src/glg is missing")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    deadline = time.monotonic() + RUN_BUDGET_S
    steal0 = _steal_ticks()
    setups = [_worker(args, env, deadline, ["--setup-only"])["setup_s"]
              for _ in range(SETUP_PROBES)]
    extra = ["--spans", os.path.join(out_dir, f"spans-{tag}.jsonl")]
    result = _worker(args, env, deadline, extra if args.trace else ())
    setups.append(result["setup_s"])
    steal1 = _steal_ticks()

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not result["problems"] and result.get("span_sums_exact", True)
    metrics = per_layer(result) if args.trace else end_to_end(result, setups)
    host = dict(result["host"], blas_env=PINNED,
                steal_ticks=(None if steal0 is None or steal1 is None
                             else steal1 - steal0))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "setup_samples_s": setups,
              "wall_clock": wall_clock(result, setups),
              "reps": result["reps"], "problems": result["problems"],
              "metrics": metrics}
    with open(os.path.join(out_dir, f"run-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"host": host, "wall_clock": record["wall_clock"]}))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
