"""On-disk formats used by the command line interface.

Matrices travel as small JSON documents with explicit shape and row-major
``[re, im]`` entry pairs; experiment configurations are flat JSON objects
mirroring :class:`~cblue.montecarlo.ExperimentSpec` fields.  Sweep results
are written as CSV with a fixed column schema.
"""

from __future__ import annotations

import dataclasses
import json
import numbers

import numpy as np

from .montecarlo import ESTIMATOR_KINDS, ExperimentSpec, MseReport


class FileFormatError(Exception):
    """Input file does not follow the documented format."""


_MATRIX_KEYS = {"rows", "cols", "data"}
_CONFIG_KEYS = {field.name for field in dataclasses.fields(ExperimentSpec)}

CSV_HEADER = (
    "k,"
    + ",".join(f"mse_{kind}" for kind in ESTIMATOR_KINDS)
    + ","
    + ",".join(f"analytic_{kind}" for kind in ESTIMATOR_KINDS)
)


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(document, dict):
        raise FileFormatError(f"{path}: top level must be a JSON object")
    return document


def load_matrix(path) -> np.ndarray:
    """Read a complex matrix from a JSON matrix document."""
    document = _load_json(path)
    if set(document) != _MATRIX_KEYS:
        raise FileFormatError(
            f"{path}: matrix documents need exactly the keys rows, cols, data"
        )
    rows, cols = document["rows"], document["cols"]
    for name, value in (("rows", rows), ("cols", cols)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise FileFormatError(f"{path}: {name} must be a positive integer")
    data = document["data"]
    if not isinstance(data, list) or len(data) != rows * cols:
        raise FileFormatError(
            f"{path}: data must list rows*cols = {rows * cols} entries, "
            f"got {len(data) if isinstance(data, list) else type(data).__name__}"
        )
    values = np.empty(rows * cols, dtype=np.complex128)
    for index, entry in enumerate(data):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(
                isinstance(part, numbers.Real) and not isinstance(part, bool)
                for part in entry
            )
        ):
            raise FileFormatError(
                f"{path}: data[{index}] must be a [re, im] pair of numbers"
            )
        try:
            values[index] = complex(entry[0], entry[1])
        except OverflowError as exc:
            raise FileFormatError(
                f"{path}: data[{index}] is outside the range of double precision"
            ) from exc
    if not np.isfinite(values).all():
        raise FileFormatError(f"{path}: entries must be finite")
    return values.reshape(rows, cols)


def load_vector(path) -> np.ndarray:
    """Read a vector stored as a single-column (or single-row) matrix."""
    matrix = load_matrix(path)
    if 1 not in matrix.shape:
        raise FileFormatError(
            f"{path}: vectors must have one row or one column, got {matrix.shape}"
        )
    return matrix.reshape(-1)


def save_matrix(path, array) -> None:
    """Write a real or complex array as a JSON matrix document."""
    arr = np.asarray(array, dtype=np.complex128)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"only vectors and matrices can be saved, got shape {arr.shape}")
    document = {
        "rows": arr.shape[0],
        "cols": arr.shape[1],
        "data": [[float(v.real), float(v.imag)] for v in arr.reshape(-1)],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(document, handle)
        handle.write("\n")


def load_experiment_config(path) -> dict:
    """Read a sweep configuration; every key is optional."""
    document = _load_json(path)
    unknown = set(document) - _CONFIG_KEYS
    if unknown:
        known = ", ".join(sorted(_CONFIG_KEYS))
        raise FileFormatError(
            f"{path}: unknown config keys {sorted(unknown)}; known keys: {known}"
        )
    return document


def spec_from_config(config: dict) -> ExperimentSpec:
    """Build an :class:`ExperimentSpec`, laundering config errors."""
    try:
        return ExperimentSpec(**config)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"invalid experiment configuration: {exc}") from exc


def write_mse_csv(path, report: MseReport) -> None:
    """Write a sweep report with one row per k value.

    All values use scientific notation with 16 significant digits, so equal
    reports serialize to byte-identical files.
    """
    lines = [CSV_HEADER]
    for index, k in enumerate(report.k_grid):
        row = [f"{k:.15e}"]
        row.extend(f"{report.empirical_mse[kind][index]:.15e}" for kind in ESTIMATOR_KINDS)
        row.extend(f"{report.analytic_mse[kind][index]:.15e}" for kind in ESTIMATOR_KINDS)
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines))
        handle.write("\n")
