"""Span recorder for the traced run, and the per-layer table built from it.

``Recorder.install`` replaces the module and class attributes through which
shewpt's public functions are called with wrappers that record a span
(id, parent id, name, start, end, outcome, counts). Names other modules
imported are replaced too (``spectrum.interval_mean_samples`` as well as
``waveform.interval_mean_samples``), so nested calls are seen.
``uninstall`` puts the originals back. Nothing in shewpt itself changes.

``harmonic_amplitude`` is not wrapped: ``analytic_spectrum`` calls it once
per order, and a span per call would cost more than the call.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from shewpt import cli, reporting, she_solver, spectrum, transient_sim, waveform, wpt_link

_SW = waveform.SteppedWaveform

# (owner, attribute, span name): every place a wrapped function is looked up
TARGETS = (
    (she_solver, "solve_multistart", "she_solver.solve_multistart"),
    (she_solver, "solve_newton", "she_solver.solve_newton"),
    (she_solver, "grid_oracle", "she_solver.grid_oracle"),
    (waveform, "synth", "waveform.synth"),
    (_SW, "angle_integral", "waveform.angle_integral"),
    (_SW, "sample_at", "waveform.sample_at"),
    (waveform, "interval_mean_samples", "waveform.interval_mean_samples"),
    (spectrum, "interval_mean_samples", "waveform.interval_mean_samples"),
    (waveform, "fundamental_rms", "waveform.fundamental_rms"),
    (spectrum, "fundamental_rms", "waveform.fundamental_rms"),
    (waveform, "total_rms", "waveform.total_rms"),
    (spectrum, "total_rms", "waveform.total_rms"),
    (waveform, "waveform_to_csv", "waveform.waveform_to_csv"),
    (spectrum, "thd_report", "spectrum.thd_report"),
    (spectrum, "waveform_dft_spectrum", "spectrum.waveform_dft_spectrum"),
    (spectrum, "analytic_spectrum", "spectrum.analytic_spectrum"),
    (spectrum, "dft_spectrum", "spectrum.dft_spectrum"),
    (spectrum, "thd", "spectrum.thd"),
    (spectrum, "thd_total_closed_form", "spectrum.thd_total_closed_form"),
    (spectrum, "spectrum_to_csv", "spectrum.spectrum_to_csv"),
    (wpt_link, "fha_solve", "wpt_link.fha_solve"),
    (transient_sim, "fha_solve", "wpt_link.fha_solve"),
    (wpt_link, "power_scaling_check", "wpt_link.power_scaling_check"),
    (transient_sim, "simulate", "transient_sim.simulate"),
    (transient_sim, "steady_state_metrics", "transient_sim.steady_state_metrics"),
    (transient_sim, "energy_balance_residual", "transient_sim.energy_balance_residual"),
    (transient_sim.TransientTrace, "to_csv", "transient_sim.TransientTrace.to_csv"),
    (reporting, "write_json", "reporting.write_json"),
    (cli, "write_json", "reporting.write_json"),
    (reporting, "write_meta_sidecar", "reporting.write_meta_sidecar"),
    (cli, "write_meta_sidecar", "reporting.write_meta_sidecar"),
    (reporting, "waveform_svg", "reporting.waveform_svg"),
    (cli, "waveform_svg", "reporting.waveform_svg"),
    (reporting, "spectrum_svg", "reporting.spectrum_svg"),
    (cli, "spectrum_svg", "reporting.spectrum_svg"),
    (cli, "cmd_solve", "cli.solve"),
    (cli, "cmd_synth", "cli.synth"),
    (cli, "cmd_spectrum", "cli.spectrum"),
    (cli, "cmd_wpt", "cli.wpt"),
    (cli, "cmd_reproduce", "cli.reproduce"),
)


def _newton_counts(args, kwargs, out, exc):
    if exc is not None:
        return {"iters": getattr(exc, "iterations", None)}
    return {"iters": out.iterations}


def _interval_counts(args, kwargs, out, exc):
    return {"samples": kwargs.get("count", args[1] if len(args) > 1 else None)}


def _trace_counts(args, kwargs, out, exc):
    if exc is not None:
        return None
    return {"steps": len(out.drive), "bytes": out.states.nbytes + out.drive.nbytes}


# counts taken at the boundary, from the arguments and the result
PROBES = {
    "she_solver.solve_newton": _newton_counts,
    "waveform.interval_mean_samples": _interval_counts,
    "transient_sim.simulate": _trace_counts,
}

ID, PARENT, NAME, START, END, STATUS, EXTRA = range(7)


class Recorder:
    """In-memory spans of one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, name, time.perf_counter_ns(), None, "ok", None]
        self.spans.append(span)
        self._stack.append(span[ID])
        return span

    def _close(self, span, status="ok", extra=None):
        span[END] = time.perf_counter_ns()
        span[STATUS] = status
        span[EXTRA] = extra
        self._stack.pop()

    @contextmanager
    def scope(self, name):
        """A root span ("pass" or "cli") that the layer spans hang under."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self._close(span, type(exc).__name__, probe and probe(args, kwargs, None, exc))
                raise
            self._close(span, "ok", probe and probe(args, kwargs, out, None))
            return out

        return traced

    def install(self):
        for owner, attr, name in TARGETS:
            # a class attribute is read from __dict__ to get the plain function
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(name, orig))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s[ID], "parent": s[PARENT], "name": s[NAME],
                    "start_ns": s[START], "end_ns": s[END], "status": s[STATUS],
                    "counts": s[EXTRA],
                }) + "\n")


# ---- per-layer table ------------------------------------------------------


class _Scope:
    """The spans under one root span, with durations and self times in seconds."""

    def __init__(self, spans):
        self.by_name = defaultdict(list)
        child_time = defaultdict(float)
        self.names = {s[ID]: s[NAME] for s in spans}
        for s in spans:
            d = (s[END] - s[START]) / 1e9
            self.by_name[s[NAME]].append((s, d))
            if s[PARENT] is not None:
                child_time[s[PARENT]] += d
        self.self_time = {s[ID]: (s[END] - s[START]) / 1e9 - child_time[s[ID]] for s in spans}

    def total(self, name):
        return sum(d for _, d in self.by_name[name])

    def self_total(self, name):
        return sum(self.self_time[s[ID]] for s, _ in self.by_name[name])

    def calls(self, name, parent=None, outside=None):
        return [
            (s, d) for s, d in self.by_name[name]
            if (parent is None or self.names.get(s[PARENT]) == parent)
            and (outside is None or self.names.get(s[PARENT]) != outside)
        ]

    def count(self, name, key):
        return sum((s[EXTRA] or {}).get(key) or 0 for s, _ in self.by_name[name])


def _median(values):
    return statistics.median(values) if values else 0.0


def _newton_seeds(sc, status=None):
    seeds = sc.calls("she_solver.solve_newton", parent="she_solver.solve_multistart")
    return [s for s, _ in seeds if status is None or s[STATUS] == status]


def _newton_iters(sc):
    return sum((s[EXTRA] or {}).get("iters") or 0 for s in _newton_seeds(sc))


def _seed_yield(sc):
    seeds = _newton_seeds(sc)
    return len(_newton_seeds(sc, "ok")) / len(seeds) if seeds else 0.0


def _trace_mb(sc):
    sizes = [(s[EXTRA] or {}).get("bytes") or 0 for s, _ in sc.by_name["transient_sim.simulate"]]
    return max(sizes, default=0) / 2**20


MS, US = 1e3, 1e6

# name -> (unit, scope, value of one pass or one CLI set)
LAYER_METRICS = {
    "she_solver.multistart_s": ("s", "pass", lambda sc: sc.total("she_solver.solve_multistart")),
    "she_solver.grid_oracle_s": ("s", "pass", lambda sc: sc.total("she_solver.grid_oracle")),
    "she_solver.newton_seed_us": ("us", "pass", lambda sc: US * _median(
        [d for _, d in sc.calls("she_solver.solve_newton", parent="she_solver.solve_multistart")])),
    "she_solver.newton_calls": ("count", "pass", lambda sc: len(_newton_seeds(sc))),
    "she_solver.newton_iters": ("count", "pass", _newton_iters),
    "she_solver.seeds_converged": ("count", "pass", lambda sc: len(_newton_seeds(sc, "ok"))),
    "she_solver.seeds_diverged": ("count", "pass", lambda sc: len(_newton_seeds(sc, "DivergenceError"))),
    "she_solver.seeds_stalled": ("count", "pass", lambda sc: len(_newton_seeds(sc, "NonConvergenceError"))),
    "she_solver.seeds_singular": ("count", "pass", lambda sc: len(_newton_seeds(sc, "SingularMatrixError"))),
    "she_solver.seed_yield": ("ratio", "pass", _seed_yield),
    "she_solver.newton_single_us": ("us", "pass", lambda sc: US * _median(
        [d for _, d in sc.calls("she_solver.solve_newton", outside="she_solver.solve_multistart")])),
    "waveform.angle_integral_ms": ("ms", "pass", lambda sc: MS * sc.self_total("waveform.angle_integral")),
    "waveform.interval_mean_ms": ("ms", "pass", lambda sc: MS * sc.self_total("waveform.interval_mean_samples")),
    "waveform.sample_at_ms": ("ms", "cli", lambda sc: MS * sc.total("waveform.sample_at")),
    "waveform.csv_ms": ("ms", "cli", lambda sc: MS * sc.total("waveform.waveform_to_csv")),
    "spectrum.thd_report_ms": ("ms", "pass", lambda sc: MS * sc.total("spectrum.thd_report")),
    "spectrum.dft_ms": ("ms", "pass", lambda sc: MS * sc.self_total("spectrum.waveform_dft_spectrum")),
    "spectrum.analytic_ms": ("ms", "pass", lambda sc: MS * sc.total("spectrum.analytic_spectrum")),
    "spectrum.samples": ("count", "pass", lambda sc: sc.count("waveform.interval_mean_samples", "samples")),
    "spectrum.csv_ms": ("ms", "cli", lambda sc: MS * sc.total("spectrum.spectrum_to_csv")),
    "reporting.svg_ms": ("ms", "cli", lambda sc: MS * (
        sc.total("reporting.waveform_svg") + sc.total("reporting.spectrum_svg"))),
    "wpt_link.fha_us": ("us", "pass", lambda sc: US * _median([d for _, d in sc.calls("wpt_link.fha_solve")])),
    "wpt_link.fha_calls": ("count", "pass", lambda sc: len(sc.calls("wpt_link.fha_solve"))),
    "transient_sim.simulate_ms": ("ms", "pass", lambda sc: MS * sc.total("transient_sim.simulate")),
    "transient_sim.steady_state_ms": ("ms", "pass", lambda sc: MS * sc.total("transient_sim.steady_state_metrics")),
    "transient_sim.energy_balance_ms": ("ms", "pass", lambda sc: MS * sc.total("transient_sim.energy_balance_residual")),
    "transient_sim.steps": ("count", "pass", lambda sc: sc.count("transient_sim.simulate", "steps")),
    "transient_sim.trace_mb": ("MB", "pass", _trace_mb),
    "transient_sim.trace_csv_s": ("s", "cli", lambda sc: sc.total("transient_sim.TransientTrace.to_csv")),
    "reporting.write_json_ms": ("ms", "cli", lambda sc: MS * sc.total("reporting.write_json")),
    "cli.solve_s": ("s", "cli", lambda sc: sc.total("cli.solve")),
    "cli.synth_s": ("s", "cli", lambda sc: sc.total("cli.synth")),
    "cli.spectrum_s": ("s", "cli", lambda sc: sc.total("cli.spectrum")),
    "cli.wpt_s": ("s", "cli", lambda sc: sc.total("cli.wpt")),
    "cli.reproduce_s": ("s", "cli", lambda sc: sc.total("cli.reproduce")),
}


def span_cost_s() -> float:
    """Time the recorder adds to one call: a wrapped no-op against a bare one,
    median of 7 blocks of 20000 calls."""
    calls, blocks = 20000, 7

    def noop():
        return None

    rec = Recorder()
    wrapped = rec._wrap("calibration", noop)
    costs = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        rec.spans.clear()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def layer_table(spans, span_cost) -> dict[str, tuple[float, str]]:
    """Median over the traced passes and CLI sets of each per-layer metric.

    ``trace.overhead_s`` is the recorder's cost per traced pass: the spans a
    pass records times ``span_cost`` (from ``span_cost_s``). It is computed
    because the difference of traced and untraced pass times is within the
    run-to-run noise where passes are long and few.
    """
    by_root = defaultdict(list)
    root_of = {}
    for s in spans:  # a parent is always recorded before its children
        root_of[s[ID]] = s[ID] if s[PARENT] is None else root_of[s[PARENT]]
        by_root[root_of[s[ID]]].append(s)
    scopes = defaultdict(list)
    for rid, members in by_root.items():
        scopes[spans[rid][NAME]].append(_Scope(members))
    table = {
        name: (float(_median([fn(sc) for sc in scopes[scope]])), unit)
        for name, (unit, scope, fn) in LAYER_METRICS.items()
    }
    spans_per_pass = _median([len(sc.names) - 1 for sc in scopes["pass"]])
    table["trace.overhead_s"] = (span_cost * spans_per_pass, "s")
    return table
