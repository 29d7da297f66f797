"""The public names of each module and their signatures, written out so that
any change shows in a diff."""

import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

PUBLIC_API = {
    "shewpt.she_solver": [
        "HarmonicTargetSet",
        "SheSolution",
        "residual",
        "jacobian",
        "solve_newton",
        "solve_multistart",
        "grid_oracle",
    ],
    "shewpt.waveform": [
        "AngleSet",
        "SteppedWaveform",
        "synth",
        "harmonic_amplitude",
        "fundamental_rms",
        "total_rms",
        "interval_mean_samples",
        "waveform_to_csv",
    ],
    "shewpt.spectrum": [
        "HarmonicSpectrum",
        "ThdReport",
        "dft_spectrum",
        "analytic_spectrum",
        "waveform_dft_spectrum",
        "thd",
        "thd_total_closed_form",
        "thd_report",
        "spectrum_to_csv",
    ],
    "shewpt.wpt_link": [
        "WptLinkParams",
        "FhaSolution",
        "fha_solve",
        "power_scaling_check",
    ],
    "shewpt.transient_sim": [
        "TransientTrace",
        "SquareDrive",
        "SteadyStateMetrics",
        "simulate",
        "steady_state_metrics",
        "energy_balance_residual",
    ],
    "shewpt.reporting": [
        "ComparisonRow",
        "RunReport",
        "write_json",
        "write_meta_sidecar",
    ],
}


@pytest.mark.parametrize("module_name", sorted(PUBLIC_API))
def test_module_all_is_the_listed_api(module_name):
    module = importlib.import_module(module_name)
    assert module.__all__ == PUBLIC_API[module_name]
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name} does not resolve"



# every public callable of PUBLIC_API, and each public method of its classes:
# parameter names, kinds (the "*" and "/" markers) and defaults
SIGNATURES = {
    "shewpt.she_solver": {
        "HarmonicTargetSet": "(orders)",
        "HarmonicTargetSet.as_array": "(self)",
        "SheSolution": "(angle_set, residual_norm, iterations)",
        "residual": "(angles, targets)",
        "jacobian": "(angles, targets)",
        "solve_newton": "(initial, targets)",
        "solve_multistart": "(targets)",
        "grid_oracle": "(targets, step_deg)",
    },
    "shewpt.waveform": {
        "AngleSet": "(angles)",
        "AngleSet.from_degrees": "(angles_deg)",
        "AngleSet.to_degrees": "(self)",
        "AngleSet.as_array": "(self)",
        "SteppedWaveform": "(angle_set, step_voltage, fundamental_frequency)",
        "SteppedWaveform.sample_at": "(self, t)",
        "SteppedWaveform.angle_integral": "(self, phase)",
        "synth": "(angle_set, step_voltage, f1)",
        "harmonic_amplitude": "(angle_set, step_voltage, n)",
        "fundamental_rms": "(angle_set, step_voltage)",
        "total_rms": "(angle_set, step_voltage)",
        "interval_mean_samples": "(w, count)",
        "waveform_to_csv": "(w, path, samples=8192)",
    },
    "shewpt.spectrum": {
        "HarmonicSpectrum": "(fundamental_frequency, amplitudes)",
        "HarmonicSpectrum.amplitude": "(self, n)",
        "ThdReport": (
            "(thd_total, thd_21, band_total, thd_band, eliminated_orders_max_relative)"
        ),
        "dft_spectrum": "(samples, f1, n_max)",
        "analytic_spectrum": "(angle_set, step_voltage, f1, n_max)",
        "waveform_dft_spectrum": "(w, n_max, samples_per_period=8192)",
        "thd": "(spectrum, n_max)",
        "thd_total_closed_form": "(angle_set, step_voltage)",
        "thd_report": "(w, eliminated_orders=(), band_total=999, samples_per_period=8192)",
        "spectrum_to_csv": "(spectrum, path)",
    },
    "shewpt.wpt_link": {
        "WptLinkParams": (
            "(L1, L2, C1, C2, k, R_load_dc, V_dc, f_s, R1=0.0, R2=0.0, diode_drop=0.0)"
        ),
        "WptLinkParams.from_config": "(cfg)",
        "FhaSolution": "(I1, I2, V1, Z_in, P_out, P_in)",
        "FhaSolution.to_dict": "(self)",
        "fha_solve": "(params)",
        "power_scaling_check": "(params, V_dc_a, V_dc_b)",
    },
    "shewpt.transient_sim": {
        "TransientTrace": "(dt, states, drive, r_ac, spectral_radius)",
        "TransientTrace.to_csv": "(self, path)",
        "SquareDrive": "(amplitude, frequency)",
        "SteadyStateMetrics": "(I1_rms, I2_rms, P_out, P_in_fundamental_cycle, zvs)",
        "SteadyStateMetrics.to_dict": "(self)",
        "simulate": "(params, drive, steps_per_cycle=4096, initial_state=None)",
        "steady_state_metrics": "(trace, params)",
        "energy_balance_residual": "(trace, params, r_ac)",
    },
    "shewpt.reporting": {
        "ComparisonRow": "(name, reference, computed, tolerance)",
        "ComparisonRow.to_dict": "(self)",
        "RunReport": "(command, inputs, outputs=<factory>, comparisons=<factory>)",
        "RunReport.add_comparison": "(self, name, reference, computed, tolerance)",
        "RunReport.to_dict": "(self)",
        "RunReport.format_text": "(self)",
        "write_json": "(obj, path)",
        "write_meta_sidecar": "(path)",
    },
}


def _shape(func) -> str:
    """The signature of ``func`` without its annotations."""
    sig = inspect.signature(func)
    bare = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=bare, return_annotation=sig.empty))


@pytest.mark.parametrize("module_name", sorted(PUBLIC_API))
def test_public_signatures_are_the_listed_ones(module_name):
    module = importlib.import_module(module_name)
    found = {}
    for name in module.__all__:
        obj = getattr(module, name)
        found[name] = _shape(obj)
        if isinstance(obj, type):
            for attr, value in vars(obj).items():
                method = inspect.isfunction(value) or isinstance(value, classmethod)
                if method and not attr.startswith("_"):
                    found[f"{name}.{attr}"] = _shape(getattr(obj, attr))
    assert found == SIGNATURES[module_name]


# the calls bench/workloads.py and bench/worker.py make, by argument shape:
# (module, callable, positional count, keyword names)
BENCHMARK_CALLS = [
    ("shewpt.she_solver", "HarmonicTargetSet", 1, ()),
    ("shewpt.she_solver", "solve_multistart", 1, ()),
    ("shewpt.she_solver", "grid_oracle", 2, ()),
    ("shewpt.she_solver", "solve_newton", 2, ()),
    ("shewpt.waveform", "AngleSet", 1, ()),
    ("shewpt.waveform", "AngleSet.from_degrees", 1, ()),
    ("shewpt.waveform", "synth", 3, ()),
    ("shewpt.waveform", "fundamental_rms", 2, ()),
    ("shewpt.waveform", "total_rms", 2, ()),
    ("shewpt.spectrum", "thd_report", 1,
     ("eliminated_orders", "band_total", "samples_per_period")),
    ("shewpt.spectrum", "analytic_spectrum", 4, ()),
    ("shewpt.wpt_link", "WptLinkParams", 0,
     ("L1", "L2", "C1", "C2", "k", "R_load_dc", "V_dc", "f_s")),
    ("shewpt.wpt_link", "fha_solve", 1, ()),
    ("shewpt.transient_sim", "SquareDrive", 0, ("amplitude", "frequency")),
    ("shewpt.transient_sim", "simulate", 2, ()),
    ("shewpt.transient_sim", "steady_state_metrics", 2, ()),
    ("shewpt.transient_sim", "energy_balance_residual", 3, ()),
    ("shewpt.cli", "main", 1, ()),
]


@pytest.mark.parametrize(
    "module_name, name, positional, keywords",
    BENCHMARK_CALLS,
    ids=[f"{module}.{name}" for module, name, _, _ in BENCHMARK_CALLS],
)
def test_benchmark_call_shapes_bind(module_name, name, positional, keywords):
    # a simplification that drops a parameter the benchmark passes would
    # otherwise show only when the benchmark runs
    obj = importlib.import_module(module_name)
    for part in name.split("."):
        obj = getattr(obj, part)
    inspect.signature(obj).bind(*[None] * positional, **dict.fromkeys(keywords))


def test_benchmark_span_targets_resolve():
    # the benchmark's traced run wraps these attributes, a class attribute
    # read through __dict__; a name deleted from shewpt would break that run
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, attr, _ in spans.TARGETS:
        found = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        assert found, f"{owner.__name__}.{attr} does not resolve"


def test_only_reporting_reads_or_writes_data_formats():
    # reporting owns the CSV and JSON formats; no other module imports them
    package = Path(__file__).resolve().parents[1] / "src" / "shewpt"
    for path in sorted(package.glob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
        owned = imported & {"csv", "json"}
        assert owned == ({"json"} if path.stem == "reporting" else set()), path.name


def test_only_errors_tests_an_array_dtype():
    # errors owns the rule for array arguments; a dtype test elsewhere would
    # be a second copy of it
    package = Path(__file__).resolve().parents[1] / "src" / "shewpt"
    owners = [path.name for path in sorted(package.glob("*.py"))
              if ".dtype.kind" in path.read_text()]
    assert owners == ["errors.py"]


def test_only_errors_holds_the_order_rule():
    # the target orders and the eliminated orders share one rule; a second
    # copy gave thd_report the fundamental and the even orders
    package = Path(__file__).resolve().parents[1] / "src" / "shewpt"
    owners = [path.name for path in sorted(package.glob("*.py"))
              if "% 2 == 1" in path.read_text()]
    assert owners == ["errors.py"]


def test_cli_reads_no_private_name_of_the_library():
    # the command line drives the public API of the library modules; the
    # format owner's helpers, reporting._read_json and _write_csv, are allowed
    library = {"she_solver", "waveform", "spectrum", "wpt_link", "transient_sim"}
    path = Path(__file__).resolve().parents[1] / "src" / "shewpt" / "cli.py"
    tree = ast.parse(path.read_text())
    bound, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            bound |= {alias.asname or alias.name for alias in node.names if alias.name in library}
        elif isinstance(node, ast.ImportFrom) and node.module in library:
            private += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and node.attr.startswith("_")):
            private.append(f"{node.value.id}.{node.attr}")
    assert private == []


# Settable values in src/shewpt, by one rule: each parameter of a function,
# method or lambda but self and cls, private helpers and nested functions
# included; each field of a dataclass; each add_argument call; and each read
# of an environment variable. A new option changes this count.
SETTABLE_VALUES = 224


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def _is_environ(node):
    return isinstance(node, ast.Attribute) and node.attr == "environ"


def _settable_values(tree) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
            count += sum(p is not None and p.arg not in ("self", "cls") for p in params)
        elif isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            count += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            count += func.attr == "add_argument" or func.attr == "getenv" or (
                func.attr == "get" and _is_environ(func.value)
            )
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            count += _is_environ(node.value)
    return count


def test_settable_value_count():
    package = Path(__file__).resolve().parents[1] / "src" / "shewpt"
    found = sum(_settable_values(ast.parse(p.read_text())) for p in package.glob("*.py"))
    assert found == SETTABLE_VALUES


def test_importing_shewpt_loads_neither_logging_nor_argparse():
    # a fresh interpreter that imports numpy and then shewpt: logging would
    # add 5-10 ms to the import, and argparse with gettext 2.3-3.6 ms, though
    # only a multistart logs and only the command line parses arguments
    code = (
        "import sys, numpy; before = set(sys.modules); import shewpt; "
        "print(sorted({'logging', 'argparse'} & (set(sys.modules) - before)))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == "[]\n"
