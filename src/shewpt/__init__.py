"""Selective harmonic elimination for cascaded H-bridge inverters and
series-series compensated wireless power link prediction."""

from .errors import (
    DimensionMismatchError,
    DivergenceError,
    NonConvergenceError,
    SingularMatrixError,
    UndefinedThdError,
    ValidationError,
)
from .she_solver import (
    HarmonicTargetSet,
    SheSolution,
    grid_oracle,
    jacobian,
    residual,
    solve_multistart,
    solve_newton,
)
from .spectrum import (
    HarmonicSpectrum,
    ThdReport,
    analytic_spectrum,
    dft_spectrum,
    thd,
    thd_report,
    thd_total_closed_form,
    waveform_dft_spectrum,
)
from .transient_sim import (
    SquareDrive,
    SteadyStateMetrics,
    TankState,
    TransientTrace,
    derivatives,
    energy_balance_residual,
    simulate,
    steady_state_metrics,
)
from .waveform import (
    AngleSet,
    SteppedWaveform,
    fundamental_rms,
    harmonic_amplitude,
    synth,
    total_rms,
)
from .wpt_link import (
    FhaSolution,
    WptLinkParams,
    drive_fundamental_rms,
    equivalent_ac_load,
    fha_solve,
    power_scaling_check,
    resonant_frequency,
)

__version__ = "0.1.0"
