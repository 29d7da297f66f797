"""The public names of each module, written out so that any change shows in a diff."""

import importlib

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
        "resonant_frequency",
        "equivalent_ac_load",
        "drive_fundamental_rms",
        "fha_solve",
        "power_scaling_check",
    ],
    "shewpt.transient_sim": [
        "TankState",
        "TransientTrace",
        "SquareDrive",
        "SteadyStateMetrics",
        "derivatives",
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

