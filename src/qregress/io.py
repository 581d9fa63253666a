"""File formats: JSON models/states/queries in, deterministic JSON/CSV out.

Complex matrices travel as nested arrays of [re, im] pairs.  All numeric
output is written with 17 significant digits so results round-trip exactly
and reruns are byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .model import DensityOperator, SystemModel, density_from_matrix, validate_model
from .regression import CorrelationQuery


# 17 significant digits: every float64 round-trips through its text
FLOAT_SPEC = ".16e"


def format_float(x: float) -> str:
    return format(float(x), FLOAT_SPEC)


def csv_rows(cells: np.ndarray) -> str:
    """A 2-d float array as CSV lines, each cell written as format_float writes it."""
    rows, cols = cells.shape
    line = ",".join([f"%{FLOAT_SPEC}"] * cols) + "\n"
    return (line * rows) % tuple(cells.reshape(-1).tolist())


def parse_matrix(data, where: str) -> np.ndarray:
    """Nested [re, im] pairs to a complex square matrix."""
    if not isinstance(data, list) or not data:
        raise ValidationError(f"{where}: expected a nonempty array of rows")
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != len(data):
            raise ValidationError(f"{where}: row {i} does not make the matrix square")
        entries = []
        for j, pair in enumerate(row):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ValidationError(f"{where}: entry ({i},{j}) is not a [re, im] pair")
            try:
                entries.append(complex(float(pair[0]), float(pair[1])))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"{where}: entry ({i},{j}) is not numeric") from exc
        rows.append(entries)
    return np.array(rows, dtype=np.complex128)


def matrix_to_pairs(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]


def _load_json(path: str | Path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return data


def _dim(data: dict, path: str | Path) -> int:
    try:
        dim = int(data["dim"])
        if dim != data["dim"]:
            raise ValueError(dim)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: dim {data['dim']!r} is not an integer") from exc
    return dim


def load_model(path: str | Path) -> SystemModel:
    data = _load_json(path)
    for key in ("dim", "H", "L"):
        if key not in data:
            raise ValidationError(f"{path}: missing field '{key}'")
    H = parse_matrix(data["H"], f"{path}: H")
    L = parse_matrix(data["L"], f"{path}: L")
    return validate_model(H, L, dim=_dim(data, path))


def load_density(path: str | Path) -> DensityOperator:
    data = _load_json(path)
    for key in ("dim", "rho"):
        if key not in data:
            raise ValidationError(f"{path}: missing field '{key}'")
    rho = parse_matrix(data["rho"], f"{path}: rho")
    if rho.shape[0] != _dim(data, path):
        raise ValidationError(f"{path}: rho shape {rho.shape} contradicts dim {data['dim']}")
    return density_from_matrix(rho)


def _matrices(data: dict, key: str, path: str | Path) -> tuple[np.ndarray, ...]:
    if not isinstance(data[key], list):
        raise ValidationError(f"{path}: {key} must be an array of matrices")
    return tuple(parse_matrix(m, f"{path}: {key}[{k}]") for k, m in enumerate(data[key]))


def load_query(path: str | Path) -> CorrelationQuery:
    data = _load_json(path)
    if "times" not in data or "b_ops" not in data:
        raise ValidationError(f"{path}: missing field 'times' or 'b_ops'")
    if not isinstance(data["times"], list):
        raise ValidationError(f"{path}: times must be an array of numbers")
    try:
        times = tuple(float(t) for t in data["times"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: times must be an array of numbers") from exc
    b_ops = _matrices(data, "b_ops", path)
    if "a_ops" in data and data["a_ops"] is not None:
        a_ops = _matrices(data, "a_ops", path)
    else:
        dim = b_ops[0].shape[0] if b_ops else 0
        a_ops = tuple(np.eye(dim, dtype=np.complex128) for _ in times)
    return CorrelationQuery(times=times, a_ops=a_ops, b_ops=b_ops)


def query_echo(query: CorrelationQuery) -> dict:
    return {
        "times": list(query.times),
        "a_ops": [matrix_to_pairs(a) for a in query.a_ops],
        "b_ops": [matrix_to_pairs(b) for b in query.b_ops],
    }


def json_text(obj) -> str:
    """Serialize with fixed key order and 17-digit floats."""
    return _json_value(obj, indent=0) + "\n"


def _json_value(obj, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {_json_value(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(isinstance(v, (bool, int, float, np.floating, np.integer)) for v in obj)
        parts = [_json_value(v, indent + 1) for v in obj]
        if flat:
            return "[" + ", ".join(parts) + "]"
        return "[\n" + ",\n".join(inner + p for p in parts) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def write_output(text: str, out: str | None) -> None:
    """Write to the --out path, or stdout when out is None or '-'."""
    if out is None or out == "-":
        print(text, end="")
    else:
        Path(out).write_text(text)
