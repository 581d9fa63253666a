"""Spans around qregress's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function in its defining module and
in every other ``qregress`` module that imported it by name (for example
``qregress.regression.mat_exp`` or ``qregress.cli.run_all``), so calls made
inside the package are seen too.  Spans stay in memory as
``[name, start, end, parent, error]`` and are written out by the caller.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "qregress"
LAYERS = ("linalg", "semigroup", "regression", "collision", "classical", "verify", "io", "cli")

# Elementwise helpers called thousands of times per operation: a span around
# each would cost more than the work it measures, so they are left unwrapped.
LEAF_HELPERS = frozenset({
    "dag", "vec", "unvec", "kron", "as_complex_matrix", "matrix_unit",
    "min_hermitian_eig", "format_float", "complex_pair", "matrix_to_pairs",
    "parse_matrix", "grid_index", "slot_annihilator",
})

SIDES = (4, 16, 64, 256)
SIDE_TAGS = tuple(f"side{s}" for s in SIDES) + ("side_other",)

# The seed's EXP_NORM_LIMIT; used if a later revision drops the constant.
DEFAULT_NORM_LIMIT = 50.0

# (name, unit, better) of every per-layer metric; BENCHMARK.json lists the same.
CHECKS = (
    "check_linalg", "check_generators", "check_semigroup", "check_finite_difference",
    "check_form_equivalence", "check_kernel_structure", "check_atom_closed_forms",
    "check_order_dependence", "check_step_unitarity", "check_channel_order",
    "check_oracle_convergence", "check_joint_matches_sequential", "check_truncation",
    "check_ito", "check_conditional_expectation", "check_classical",
)
CLI_SPANS = (
    "evolve", "correlate.qrt-schrodinger", "correlate.qrt-heisenberg",
    "correlate.oracle-seq", "correlate.oracle-joint", "oracle", "ito", "verify", "classical",
)
METRICS = (
    *((f"linalg.mat_exp.calls.{t}", "count", "lower") for t in SIDE_TAGS),
    *((f"linalg.mat_exp.busy_s.{t}", "s", "lower") for t in SIDE_TAGS),
    ("linalg.mat_exp.work_n3", "count", "lower"),
    ("linalg.mat_exp.rejected", "count", "lower"),
    ("linalg.mat_exp.max_norm_ratio", "ratio", "lower"),
    ("semigroup.generator_matrix.calls", "count", "lower"),
    ("semigroup.generator_matrix.busy_s", "s", "lower"),
    ("semigroup.propagator.calls", "count", "lower"),
    ("semigroup.propagator.busy_s", "s", "lower"),
    *((f"regression.{k}.{q}", u, "lower")
      for k in ("kernel_schrodinger", "kernel_heisenberg")
      for q, u in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))),
    ("regression.propagation_steps", "count", "lower"),
    ("regression.distinct_durations", "count", "lower"),
    ("regression.duration_reuse", "ratio", "higher"),
    ("collision.step_unitary.calls", "count", "lower"),
    ("collision.step_unitary.busy_s", "s", "lower"),
    ("collision.collision_channel.calls", "count", "lower"),
    ("collision.collision_channel.busy_s", "s", "lower"),
    *((f"collision.{k}.{q}", u, "lower")
      for k in ("oracle_kernel_sequential", "oracle_kernel_joint")
      for q, u in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))),
    ("collision.joint_entries_max", "count", "lower"),
    ("collision.joint_bytes", "B", "lower"),
    ("classical.classical_correlation.calls", "count", "lower"),
    ("classical.classical_correlation.busy_s", "s", "lower"),
    ("classical.paths", "count", "lower"),
    ("classical.compare_quantum_classical.busy_s", "s", "lower"),
    ("verify.run_all.busy_s", "s", "lower"),
    *((f"verify.{c}.busy_s", "s", "lower") for c in CHECKS),
    ("io.load.busy_s", "s", "lower"),
    ("io.json_text.busy_s", "s", "lower"),
    ("io.write_output.busy_s", "s", "lower"),
    ("io.bytes_written", "B", "lower"),
    *((f"cli.{c}.busy_s", "s", "lower") for c in CLI_SPANS),
    ("cli.nonzero_exits", "count", "lower"),
    ("ops.ok", "count", "higher"),
    ("ops.rejected_exp_norm", "count", "lower"),
    ("ops.failed_gate", "count", "lower"),
    ("ops.failed_exception", "count", "lower"),
    ("ops.failed_exit", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    *((f"linalg.mat_exp.busy_s.{t}.pool_nproc", "s", "lower") for t in SIDE_TAGS),
)


def _side_tag(side: int) -> str:
    return f"side{side}" if side in SIDES else "side_other"


def _model_key(model) -> tuple[bytes, bytes]:
    return (model.H.tobytes(), model.L.tobytes())


class Tracer:
    """Records spans and argument-derived ("computed") counts for one pass."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        self.durations: set = set()

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, ""])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, error: str = "") -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        span[4] = error
        self._stack.pop()

    def _wrap(self, layer: str, fname: str, fn):
        hook = _HOOKS.get(f"{layer}.{fname}")
        default = f"cli.{fname[4:]}" if layer == "cli" and fname.startswith("cmd_") else f"{layer}.{fname}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = (hook(self, args) if hook else None) or default
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(idx, type(exc).__name__)
                raise
            self.end(idx)
            return out

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public, non-leaf function of the traced layers."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for fname, fn in inspect.getmembers(mod, inspect.isfunction):
                if fname.startswith("_") or fname in LEAF_HELPERS or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(layer, fname, fn)
                for other in modules:
                    for attr, val in list(vars(other).items()):
                        if val is fn:
                            self._patches.append((other, attr, fn))
                            setattr(other, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches = []


# -- hooks: derive counts from arguments and choose the span name -----------


def _mat_exp(tr: Tracer, args):
    arr = np.asarray(args[0])
    side = arr.shape[0]
    tr.counts["linalg.mat_exp.work_n3"] += side**3
    limit = getattr(sys.modules[f"{PACKAGE}.linalg"], "EXP_NORM_LIMIT", DEFAULT_NORM_LIMIT)
    ratio = float(np.linalg.norm(arr)) / limit
    tr.maxima["linalg.mat_exp.max_norm_ratio"] = max(tr.maxima["linalg.mat_exp.max_norm_ratio"], ratio)
    return f"linalg.mat_exp.{_side_tag(side)}"


def _kernel(rest_picture: str):
    def hook(tr: Tracer, args):
        model, _, query = args[:3]
        key, t = _model_key(model), query.times
        tr.counts["regression.propagation_steps"] += len(t)
        tr.durations.add((key, "schrodinger", t[0]))
        for a, b in zip(t, t[1:]):
            tr.durations.add((key, rest_picture, b - a))
    return hook


def _joint(tr: Tracer, args):
    model, _, query, cfg = args[:4]
    entries = model.dim * cfg.trunc ** int(round(query.times[-1] / cfg.dt))
    tr.maxima["collision.joint_entries_max"] = max(tr.maxima["collision.joint_entries_max"], entries)
    # two state vectors of complex128
    tr.maxima["collision.joint_bytes"] = max(tr.maxima["collision.joint_bytes"], 2 * 16 * entries)


def _paths(tr: Tracer, args):
    chain, times = args[:2]
    tr.counts["classical.paths"] += chain.states ** len(times)


def _bytes_written(tr: Tracer, args):
    tr.counts["io.bytes_written"] += len(args[0].encode())


def _correlate(tr: Tracer, args):
    return f"cli.correlate.{args[0].mode}"


_HOOKS = {
    "linalg.mat_exp": _mat_exp,
    "regression.kernel_schrodinger": _kernel("schrodinger"),
    "regression.kernel_heisenberg": _kernel("heisenberg"),
    "collision.oracle_kernel_joint": _joint,
    "classical.classical_correlation": _paths,
    "io.write_output": _bytes_written,
    "cli.cmd_correlate": _correlate,
}


# -- reduction ----------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def span_totals(spans: list[list]) -> tuple[Counter, dict, dict, Counter]:
    """Per span name: calls, busy seconds, self seconds, and errors by type."""
    children = defaultdict(list)
    for name, t0, t1, parent, _ in spans:
        children[parent].append((t0, t1))
    calls, busy, self_s, errors = Counter(), defaultdict(float), defaultdict(float), Counter()
    for idx, (name, t0, t1, _, err) in enumerate(spans):
        calls[name] += 1
        busy[name] += t1 - t0
        self_s[name] += (t1 - t0) - _covered(children.get(idx, []))
        if err:
            errors[(name, err)] += 1
    return calls, busy, self_s, errors


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Every per-layer metric that one traced pass yields."""
    calls, busy, self_s, errors = span_totals(tr.spans)
    m: dict[str, float] = {}
    for tag in SIDE_TAGS:
        m[f"linalg.mat_exp.calls.{tag}"] = calls[f"linalg.mat_exp.{tag}"]
        m[f"linalg.mat_exp.busy_s.{tag}"] = busy[f"linalg.mat_exp.{tag}"]
    m["linalg.mat_exp.work_n3"] = tr.counts["linalg.mat_exp.work_n3"]
    m["linalg.mat_exp.rejected"] = sum(
        n for (name, err), n in errors.items()
        if name.startswith("linalg.mat_exp.") and err == "ValidationError"
    )
    m["linalg.mat_exp.max_norm_ratio"] = tr.maxima["linalg.mat_exp.max_norm_ratio"]
    for name in ("semigroup.generator_matrix", "semigroup.propagator", "collision.step_unitary",
                 "collision.collision_channel", "classical.classical_correlation"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.busy_s"] = busy[name]
    for name in ("regression.kernel_schrodinger", "regression.kernel_heisenberg",
                 "collision.oracle_kernel_sequential", "collision.oracle_kernel_joint"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.busy_s"] = busy[name]
        m[f"{name}.self_s"] = self_s[name]
    steps = tr.counts["regression.propagation_steps"]
    m["regression.propagation_steps"] = steps
    m["regression.distinct_durations"] = len(tr.durations)
    m["regression.duration_reuse"] = steps / len(tr.durations) if tr.durations else 0.0
    m["collision.joint_entries_max"] = tr.maxima["collision.joint_entries_max"]
    m["collision.joint_bytes"] = tr.maxima["collision.joint_bytes"]
    m["classical.paths"] = tr.counts["classical.paths"]
    m["classical.compare_quantum_classical.busy_s"] = busy["classical.compare_quantum_classical"]
    m["verify.run_all.busy_s"] = busy["verify.run_all"]
    for check in CHECKS:
        m[f"verify.{check}.busy_s"] = busy[f"verify.{check}"]
    m["io.load.busy_s"] = sum(v for k, v in busy.items() if k.startswith("io.load_"))
    m["io.json_text.busy_s"] = busy["io.json_text"]
    m["io.write_output.busy_s"] = busy["io.write_output"]
    m["io.bytes_written"] = tr.counts["io.bytes_written"]
    for name in CLI_SPANS:
        m[f"cli.{name}.busy_s"] = busy[f"cli.{name}"]
    return m
