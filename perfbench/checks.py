"""Correctness checks on the CSV files one benchmark operation writes.

`check_call` returns a list of problems; an empty list means the output is
accepted.  Every seed is held to the scheme's own claims, at the tolerances
of the acceptance suite (tests/test_acceptance.py):

* every value is finite;
* the discrete energy ends below where it started; in 1d it is also
  monotone within the criterion-8 slack over criterion 8's window
  t <= 1, and the stability norm stays under the criterion-9 bound with no
  growing log-trend over the second half of the run.  (The plain energy is
  not monotone beyond that window: the seed solver lets it rise by up to
  0.34% per step from t = 1.15 in long_1d, and by up to 0.063% from
  t = 0.68 in wide_2d.)

For the default seed the output must also agree with reference values
recorded from the seed solver (reference.json): |x - ref| <= REF_RTOL*|ref|.
The tolerance is relative because the long_1d energy and norm decay to
1e-43 and 1e-21 by t = 100, and the long-horizon tail is what a memory
approximation would change.  A trajectory change at the 1e-10 level stays
far inside it; a wrong kernel or a broken scheme moves values by orders of
magnitude more.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

ENERGY_SLACK = 1.0e-6          # criterion 8
ENERGY_WINDOW = 1.0            # criterion 8 checks t in [0, 1]
NORM_FACTOR = 1.5              # criterion 9
TREND_LIMIT = 1.0e-3           # criterion 9, per unit time
REF_RTOL = 1.0e-6


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Header and float matrix of a CSV file; empty fields read as NaN."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    data = np.array([[float(v) if v else math.nan for v in row] for row in body], dtype=float)
    return header, data.reshape(len(body), len(header))


def _grad_sq_1d(values: np.ndarray, h: float) -> float:
    padded = np.concatenate(([0.0], values, [0.0]))
    return float(np.sum(np.diff(padded) ** 2) / h)


def _check_energy(call, data: np.ndarray) -> list[str]:
    problems = []
    t, energy, norms = data[:, 1], data[:, 2], data[:, 3]
    if len(energy) != call.n + 1:
        problems.append(f"energy series has {len(energy)} rows, expected {call.n + 1}")
    if not energy[-1] < energy[0]:
        problems.append(f"energy did not decay: {energy[0]} -> {energy[-1]}")
    if call.dim == 1:
        window = energy[t <= ENERGY_WINDOW + 1.0e-12]
        rises = np.nonzero(window[1:] > window[:-1] * (1.0 + ENERGY_SLACK))[0]
        if rises.size:
            problems.append(f"energy rises at step {int(rises[0]) + 1} within t <= {ENERGY_WINDOW}")
        h = 1.0 / call.m
        x = h * np.arange(1, call.m)
        grad0 = math.sqrt(_grad_sq_1d(np.sin(np.pi * x), h))
        grad1 = math.sqrt(_grad_sq_1d(np.sin(2.0 * np.pi * x), h))
        bound = NORM_FACTOR * (norms[0] + grad0 + grad1)
        if norms.max() > bound:
            problems.append(f"stability norm {norms.max()} exceeds the criterion-9 bound {bound}")
        half = slice(len(norms) // 2, None)
        slope = np.polyfit(t[half], np.log(np.maximum(norms[half], 1.0e-300)), 1)[0]
        if slope > TREND_LIMIT:
            problems.append(f"stability norm log-trend {slope} exceeds {TREND_LIMIT}")
    return problems


def _check_reference(data: np.ndarray, ref: dict) -> list[str]:
    rows = np.asarray(ref["rows"], dtype=int)
    if rows.max() >= len(data):
        return [f"output has {len(data)} rows, reference needs {rows.max() + 1}"]
    want = np.asarray(ref["values"], dtype=float)
    got = data[rows][:, ref["columns"]]
    bad = ~(np.abs(got - want) <= REF_RTOL * np.abs(want))
    if not np.any(bad):
        return []
    i, j = np.argwhere(bad)[0]
    return [
        f"{int(bad.sum())} values differ from the reference; first at row {rows[i]}, "
        f"column {ref['columns'][j]}: {got[i, j]!r} vs {want[i, j]!r}"
    ]


def check_call(call, out_dir, reference: dict | None = None) -> list[str]:
    """Problems with the output `call` wrote to out_dir (empty when correct)."""
    path = Path(out_dir) / call.output_name
    if not path.is_file():
        return [f"{path.name} was not written"]
    _, data = read_csv(path)
    if not np.isfinite(data).all():
        return [f"{path.name} holds non-finite values"]
    problems = _check_energy(call, data)
    if reference is not None:
        problems += _check_reference(data, reference)
    return [f"{call.label}: {p}" for p in problems]


def reference_entry(data: np.ndarray, columns: list[int], max_rows: int = 257) -> dict:
    """Subsampled rows of an output matrix, in the layout `check_call` reads."""
    stride = max(1, (len(data) - 1) // (max_rows - 1))
    rows = sorted(set(range(0, len(data), stride)) | {len(data) - 1})
    return {"rows": rows, "columns": columns, "values": data[rows][:, columns].tolist()}
