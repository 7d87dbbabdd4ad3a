"""One workload in one single-threaded process; started by ``run.py``.

Usage: python3 bench/worker.py --workload NAME --seed N --seconds S
       --trace 0|1 --t0 EPOCH_SECONDS [--setup-only] [--spans FILE]

``--t0`` is the wall-clock time at which the parent started this process;
set-up is measured from it to the first timed repetition. The last line of
standard output is one JSON object with the raw per-repetition figures.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import reference  # noqa: E402


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def host_info():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
    }


def _time_reference():
    t0 = time.perf_counter()
    reference.reference_kernel()
    return time.perf_counter() - t0


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(rep_totals, layers):
    """Medians over traced repetitions of each layer's self time and calls."""
    out = {}
    for layer in layers:
        out[f"{layer}.self_s"] = _median(
            [r["self"].get(layer, 0) / 1e9 for r in rep_totals])
        out[f"{layer}.calls"] = statistics.median_low(
            [r["calls"].get(layer, 0) for r in rep_totals])
    out["untraced_s"] = _median([r["untraced"] / 1e9 for r in rep_totals])
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    import glg
    from glg import attacks, closed_form, federated, metrics

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(glg.__file__).startswith(src + os.sep):
        sys.exit(f"glg was imported from {glg.__file__}, not from {src}")

    import tracing
    import workloads

    _, _, run, check = workloads.WORKLOADS[args.workload]
    inst = workloads.make_instance(args.workload, args.seed)
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    recorder = tracing.SpanRecorder()
    traced_run = recorder.wrap(tracing.ROOT, run)
    modules = {"attacks": attacks, "closed_form": closed_form,
               "federated": federated, "metrics": metrics}

    reps, problems = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    # every round repeats the same operations on the same instance; with
    # tracing on, a round is one plain and one traced repetition, so the
    # overhead is measured under the same host conditions
    modes = (False, True) if args.trace else (False,)
    ref_before = _time_reference()
    while attempted == 0 or time.perf_counter() < deadline:
        for traced in modes:
            attempted += 1
            t0 = time.perf_counter()
            try:
                if traced:
                    with tracing.Patched(recorder, modules):
                        out, attack_s, iters = traced_run(inst)
                else:
                    out, attack_s, iters = run(inst)
            except glg.GlgError as exc:
                failed += 1
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                ref_before = _time_reference()
                continue
            wall = time.perf_counter() - t0
            ref_after = _time_reference()
            problems += check(inst, out)
            reps.append({"traced": traced, "wall_s": wall,
                         "attack_s": attack_s, "iters": iters,
                         "ref_s": 0.5 * (ref_before + ref_after)})
            ref_before = ref_after

    result = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "reps": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "host": host_info(),
    }
    if args.trace:
        totals = tracing.per_rep_totals(recorder.spans)
        result["layers"] = layer_metrics(totals, tracing.LAYERS)
        result["span_sums_exact"] = all(
            sum(t["self"].values()) + t["untraced"] == t["wall"]
            for t in totals)
        if args.spans:
            recorder.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
