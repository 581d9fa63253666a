"""Run one workload in this process and print its result as one JSON line.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode MODE --threads T

run.py starts it with the BLAS thread variables set to T in its environment.
Modes: ``setup`` (set up and stop), ``measure`` (closed-loop rounds for S
seconds, untraced), ``trace`` (untraced and traced rounds alternating for S
seconds), ``pool`` (one traced round).  Exit code 3 means the BLAS pool is not
at T threads.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import qregress  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
           "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_runtime_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS library reports, by file name."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                found[Path(path).name] = fn()
                break
    return found


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        **{v: os.environ.get(v) for v in BLAS_VARS},
        "blas_runtime_threads": blas_runtime_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "qregress": getattr(qregress, "__version__", "?"),
    }


def run_round(ops, tally: Counter, latencies: list, tracer=None) -> float:
    """One closed-loop pass: each operation starts when the previous returns."""
    busy = 0.0
    for op in ops:
        span = tracer.begin(f"op.{op.kind}") if tracer else None
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an operation's failure is counted, not fatal
            out, verdict = None, workloads.FAILED_EXCEPTION
            print(f"{op.kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            verdict = None
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.end(span)
        busy += elapsed
        latencies.append(elapsed)
        if verdict is None:
            try:
                verdict = op.check(out)
            except Exception as exc:  # unreadable output fails the gate
                print(f"{op.kind}: check raised {type(exc).__name__}: {exc}", file=sys.stderr)
                verdict = workloads.FAILED_GATE
        if verdict not in (workloads.OK, workloads.REJECTED) and tally[verdict] < 5:
            print(f"{op.kind}: {verdict}", file=sys.stderr)
        tally[verdict] += 1
    return busy


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace", "pool"), required=True)
    parser.add_argument("--threads", type=int, required=True)
    args = parser.parse_args()

    pinned = {v: os.environ.get(v) for v in BLAS_VARS}
    if any(val != str(args.threads) for val in pinned.values()):
        print(f"BLAS thread variables are {pinned}, expected {args.threads}", file=sys.stderr)
        return 3
    env = environment()
    if any(n != args.threads for n in env["blas_runtime_threads"].values()):
        print(f"OpenBLAS runs {env['blas_runtime_threads']} threads, expected {args.threads}",
              file=sys.stderr)
        return 3

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"tmp-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - T0
        result = {"setup_s": setup_s, "env": env, "round_ops": len(ops)}
        if args.mode != "setup":
            result.update(MODES[args.mode](args, ops))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def measure(args, ops) -> dict:
    tally, per_round = Counter(), []
    start = time.perf_counter()
    while not per_round or time.perf_counter() - start < args.seconds:
        ok_before, latencies = tally[workloads.OK], []
        run_round(ops, tally, latencies)
        per_round.append({"ok": tally[workloads.OK] - ok_before, "latencies": latencies})
    return {"rounds": len(per_round), "tally": tally, "per_round": per_round}


def _traced_round(ops, tally, latencies):
    tracer = spans.Tracer()
    tracer.install()
    try:
        busy = run_round(ops, tally, latencies, tracer)
    finally:
        tracer.uninstall()
    layer = spans.layer_metrics(tracer)
    return busy, layer, tracer.spans


def trace(args, ops) -> dict:
    tally, latencies = Counter(), []
    plain, traced, layers = [], [], []
    first_tally = None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        plain.append(run_round(ops, tally, latencies))
        before = Counter(tally)
        busy, layer, span_list = _traced_round(ops, tally, latencies)
        traced.append(busy)
        layers.append(layer)
        if first_tally is None:
            first_tally = tally - before
            spans_file = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
            t_ref = span_list[0][1] if span_list else 0.0
            spans_file.write_text(json.dumps(
                [[n, a - t_ref, b - t_ref, p, e] for n, a, b, p, e in span_list]))
    # counts repeat exactly for a seed; times are medians over traced rounds
    metrics = {k: (median(r[k] for r in layers) if ".busy_s" in k or ".self_s" in k else v)
               for k, v in layers[0].items()}
    metrics.update({f"ops.{k}": first_tally[k] for k in workloads.VERDICTS})
    metrics["cli.nonzero_exits"] = first_tally[workloads.FAILED_EXIT]
    metrics["trace.overhead_frac"] = median(traced) / median(plain) - 1.0
    return {"rounds": len(traced), "tally": tally, "metrics": metrics,
            "spans_file": str(spans_file.relative_to(ROOT))}


def pool(args, ops) -> dict:
    tally = Counter()
    _, layer, _ = _traced_round(ops, tally, [])
    metrics = {f"linalg.mat_exp.busy_s.{t}.pool_nproc": layer[f"linalg.mat_exp.busy_s.{t}"]
               for t in spans.SIDE_TAGS}
    return {"rounds": 1, "tally": tally, "metrics": metrics}


MODES = {"measure": measure, "trace": trace, "pool": pool}

if __name__ == "__main__":
    sys.exit(main())
