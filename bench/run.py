"""qregress benchmark.

    python3 bench/run.py --workload {tau-grid,oracle-sweep,cli-session,all} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Each workload runs in its own child process
(bench/worker.py) with OPENBLAS/OMP/MKL_NUM_THREADS=1, as one closed-loop
caller calling the library and ``cli.main`` in process.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
plus one traced round with the BLAS pool at nproc threads.  The last line of
stdout is the result as JSON; the exit code is nonzero when any correctness
gate failed or a child could not run.  Full reports and the spans of the
first traced round go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

from spans import METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("tau-grid", "oracle-sweep", "cli-session")
SETUP_SAMPLES = 3
RUN_DEADLINE_S = 170  # every child of one workload's run ends within this

E2E = (
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("ok_frac", "frac", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


class ChildFailed(RuntimeError):
    pass


def child(workload: str, seed: int, seconds: float, mode: str, threads: int,
          deadline: float) -> dict:
    env = dict(os.environ, **{v: str(threads) for v in BLAS_VARS})
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--mode", mode, "--threads", str(threads)]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} {mode}: no result within {RUN_DEADLINE_S} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} {mode}: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def check_manifest() -> None:
    """BENCHMARK.json must declare exactly the metrics this harness reports."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {(m["name"], m["unit"], m["better"]) for m in manifest["end_to_end"]}
    declared_layers = {(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]}
    if declared != set(E2E) or declared_layers != set(METRICS):
        raise SystemExit("BENCHMARK.json does not match the metrics bench/run.py reports")


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    setups = [child(workload, seed, seconds, "setup", 1, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    res = child(workload, seed, seconds, "measure", 1, deadline)
    setups.append(res["setup_s"])
    rounds = res.pop("per_round")
    lat_ms = np.concatenate([r["latencies"] for r in rounds]) * 1e3
    values = {
        # every round does the same work: the median over rounds keeps a
        # burst of interference from other tenants of the host out of it
        "ops_per_s": median(r["ok"] / sum(r["latencies"]) for r in rounds),
        "op_p50_ms": float(np.percentile(lat_ms, 50)),
        "op_p90_ms": float(np.percentile(lat_ms, 90)),
        "ok_frac": res["tally"].get("ok", 0) / len(lat_ms),
        "setup_s": median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    res["setup_samples"] = setups
    return values, res


def per_layer(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    res = child(workload, seed, seconds, "trace", 1, deadline)
    pool = child(workload, seed, seconds, "pool", len(os.sched_getaffinity(0)), deadline)
    values = {**res["metrics"], **pool["metrics"]}
    for key, n in pool["tally"].items():
        res["tally"][key] = res["tally"].get(key, 0) + n
    res["pool_env"] = pool["env"]
    return values, res


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> bool:
    deadline = time.monotonic() + RUN_DEADLINE_S
    values, res = (per_layer if trace else end_to_end)(workload, seed, seconds, deadline)
    units = {name: unit for name, unit, _ in (METRICS if trace else E2E)}
    tally = res["tally"]
    attempted = sum(tally.values())
    failed = attempted - tally.get("ok", 0) - tally.get("rejected_exp_norm", 0)
    report = {"workload": workload, "seed": seed, "trace": int(trace), "revision": git_revision(),
              "seconds": seconds, **res, "metrics": values}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1))

    print(f"workload {workload}  seed {seed}  revision {report['revision']}  rounds {res['rounds']}"
          f"  ops per round {res['round_ops']}")
    print("env " + json.dumps(res["env"]))
    print("ops " + "  ".join(f"{k} {v}" for k, v in sorted(tally.items()))
          + f"  (attempted {attempted}: the latency sample count)")
    for name, unit in units.items():
        print(f"  {name:<48} {values[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return failed == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qregress" / "__init__.py").is_file():
        print(f"no qregress source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    check_manifest()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        correct = [run_one(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
