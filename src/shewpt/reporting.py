"""Run reports, reference-comparison rows, and every data-file format.

This module is the single owner of the CSV, JSON, SVG and ``.meta.json``
sidecar formats: the other modules hand it plain Python numbers (or numpy
columns) and never write a file row themselves. Data files carry no
timestamps so identical inputs give byte-identical output; wall-clock
metadata goes to the sidecar instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain

import numpy as np

from .errors import _check_path

__all__ = [
    "ComparisonRow",
    "RunReport",
    "write_json",
    "write_meta_sidecar",
]


@dataclass(frozen=True)
class ComparisonRow:
    """One reference-vs-computed line; pass/fail is derived, never set."""

    name: str
    reference: float
    computed: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.computed - self.reference) <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "reference": self.reference,
            "computed": self.computed,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass
class RunReport:
    command: str
    inputs: dict
    outputs: dict = field(default_factory=dict)
    comparisons: list[ComparisonRow] = field(default_factory=list)

    def add_comparison(self, name, reference, computed, tolerance):
        self.comparisons.append(ComparisonRow(name, reference, computed, tolerance))

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.comparisons)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "comparisons": [row.to_dict() for row in self.comparisons],
            "all_passed": self.all_passed,
        }

    def format_text(self) -> str:
        lines = [f"# {self.command}"]
        for key, val in self.outputs.items():
            lines.append(f"  {key}: {val}")
        for row in self.comparisons:
            status = "PASS" if row.passed else "FAIL"
            lines.append(
                f"  [{status}] {row.name}: computed {row.computed:.6g} "
                f"vs reference {row.reference:.6g} (tol {row.tolerance:.3g})"
            )
        return "\n".join(lines)


# rows converted to Python numbers per chunk: a file is never held whole, and
# the temporary floats stay too few to raise peak RSS (4,096 rows: +0.7 MB)
_CSV_CHUNK_ROWS = 64


def _write_csv(path, header, *columns) -> None:
    """Header, then one row per index of the equal-length ``columns``.

    Each number is written as the ``repr`` of its Python value, rows end in
    CRLF (the csv module's default dialect). A chunk of rows is one ``%``
    of the repeated row template: ``%r`` is ``repr``.
    """
    _check_path(path)
    columns = [np.asarray(col) for col in columns]
    row = ",".join(["%r"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            chunk = [col[start : start + _CSV_CHUNK_ROWS].tolist() for col in columns]
            fh.write((row * len(chunk[0])) % tuple(chain.from_iterable(zip(*chunk))))


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_json(obj, path) -> None:
    """``obj`` as strict JSON, key-sorted and indented; a non-finite number or an
    object JSON cannot encode raises before the file is opened, writing nothing."""
    _check_path(path)
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def write_meta_sidecar(path) -> None:
    _check_path(path)
    meta = {"generated_at": datetime.now(timezone.utc).isoformat()}
    write_json(meta, str(path) + ".meta.json")


_SVG_WIDTH, _SVG_HEIGHT, _SVG_PAD = 800, 400, 40


def _write_svg(path, title, body) -> None:
    """An SVG plot on white: the ``body`` elements, then ``title`` at the top left."""
    width, height = _SVG_WIDTH, _SVG_HEIGHT
    with open(path, "w") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">\n'
            f'<rect width="{width}" height="{height}" fill="white"/>\n'
            + "".join(body)
            + f'<text x="{_SVG_PAD}" y="20" font-size="14">{title}</text>\n</svg>\n'
        )


# The SVG plots are the CLI's, so not in __all__; cli imports them by these
# names, which the benchmark's traced run (bench/spans.py) wraps
def waveform_svg(t, v, path) -> None:
    """Polyline plot of one waveform period, a vertex at each end of a run of equal v."""
    _check_path(path)
    width, height, pad = _SVG_WIDTH, _SVG_HEIGHT, _SVG_PAD
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    keep = np.ones(len(v), dtype=bool)
    keep[1:-1] = (v[1:-1] != v[:-2]) | (v[1:-1] != v[2:])
    t, v = t[keep], v[keep]
    vmax = float(np.max(np.abs(v))) or 1.0  # an all-zero row draws the axis
    x = pad + (t - t[0]) / (t[-1] - t[0]) * (width - 2 * pad)
    y = height / 2 - v / vmax * (height / 2 - pad)
    points = " ".join(f"{xi:.2f},{yi:.2f}" for xi, yi in zip(x, y))
    _write_svg(path, "multilevel output voltage", [
        f'<line x1="{pad}" y1="{height / 2}" x2="{width - pad}" '
        f'y2="{height / 2}" stroke="#999" stroke-width="1"/>\n',
        f'<polyline points="{points}" fill="none" stroke="#0055aa" '
        f'stroke-width="1.5"/>\n',
    ])


def spectrum_svg(orders, rel_amplitudes, path) -> None:
    """Bar chart of harmonic amplitudes relative to the fundamental."""
    _check_path(path)
    width, height, pad = _SVG_WIDTH, _SVG_HEIGHT, _SVG_PAD
    orders = list(orders)
    rel = np.asarray(rel_amplitudes, dtype=float)
    bar_w = (width - 2 * pad) / max(len(orders), 1)
    top = float(np.max(rel))
    parts = []
    for i, (n, a) in enumerate(zip(orders, rel)):
        h = a / top * (height - 2 * pad)
        x0 = pad + i * bar_w
        parts.append(
            f'<rect x="{x0 + 0.15 * bar_w:.2f}" y="{height - pad - h:.2f}" '
            f'width="{0.7 * bar_w:.2f}" height="{h:.2f}" fill="#aa3300"/>\n'
        )
        if len(orders) <= 40 or n % 5 == 0:
            parts.append(
                f'<text x="{x0 + 0.5 * bar_w:.2f}" y="{height - pad + 14}" '
                f'font-size="10" text-anchor="middle">{n}</text>\n'
            )
    _write_svg(path, "harmonic amplitudes relative to fundamental", parts)
