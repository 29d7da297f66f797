"""The public names of each module, written out so that any change shows in a diff."""

import ast
import importlib.util
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
        "waveform_svg",
        "spectrum_svg",
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
