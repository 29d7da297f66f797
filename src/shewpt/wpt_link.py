"""First-harmonic-approximation model of a series-series compensated link.

Two magnetically coupled series-resonant meshes driven by the inverter
fundamental; the rectifier plus DC load is replaced by its equivalent AC
resistance 8*R/pi^2. The input-impedance phase sign is the ZVS indicator.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonConvergenceError, SingularMatrixError, ValidationError

__all__ = [
    "WptLinkParams",
    "FhaSolution",
    "resonant_frequency",
    "equivalent_ac_load",
    "drive_fundamental_rms",
    "fha_solve",
    "power_scaling_check",
]

DIODE_DROP_MAX_ITER = 50


@dataclass(frozen=True)
class WptLinkParams:
    """Circuit parameters of the coupled-coil link (SI units)."""

    L1: float
    L2: float
    C1: float
    C2: float
    k: float
    R_load_dc: float
    V_dc: float
    f_s: float
    R1: float = 0.0
    R2: float = 0.0
    diode_drop: float = 0.0  # series drop per conducting diode pair

    def __post_init__(self):
        for name in ("L1", "L2", "C1", "C2", "R_load_dc", "V_dc", "f_s"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValidationError(f"{name}: {v!r} must be > 0")
        # k = 0 is admitted as the uncoupled limit
        if not 0.0 <= self.k < 1.0:
            raise ValidationError(f"k: {self.k!r} must be in [0, 1)")
        for name in ("R1", "R2", "diode_drop"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValidationError(f"{name}: {v!r} must be >= 0")

    @property
    def mutual(self) -> float:
        return self.k * math.sqrt(self.L1 * self.L2)

    @property
    def r_ac(self) -> float:
        return equivalent_ac_load(self.R_load_dc)

    @classmethod
    def from_json(cls, path) -> "WptLinkParams":
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not text, or not JSON
            raise ValidationError(f"config: cannot read {path} as JSON: {exc}") from exc
        return cls.from_config(cfg)

    @classmethod
    def from_config(cls, cfg: dict) -> "WptLinkParams":
        if not isinstance(cfg, dict):
            raise ValidationError("config: must be a JSON object of SI-unit keys")
        required = ("L1_H", "C1_F", "k", "R_load_ohm", "V_dc_V", "f_s_Hz")
        for key in required:
            if key not in cfg:
                raise ValidationError(f"{key}: missing from link config")
        for key in required + ("L2_H", "C2_F", "R1_ohm", "R2_ohm", "diode_drop_V"):
            value = cfg.get(key, 0.0)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValidationError(f"{key}: {value!r} is not a number")
        return cls(
            L1=cfg["L1_H"],
            L2=cfg.get("L2_H", cfg["L1_H"]),
            C1=cfg["C1_F"],
            C2=cfg.get("C2_F", cfg["C1_F"]),
            k=cfg["k"],
            R_load_dc=cfg["R_load_ohm"],
            V_dc=cfg["V_dc_V"],
            f_s=cfg["f_s_Hz"],
            R1=cfg.get("R1_ohm", 0.0),
            R2=cfg.get("R2_ohm", 0.0),
            diode_drop=cfg.get("diode_drop_V", 0.0),
        )


@dataclass(frozen=True)
class FhaSolution:
    """Phasor solution of the two-mesh system (RMS quantities)."""

    I1: complex
    I2: complex
    V1: complex
    Z_in: complex
    P_out: float
    P_in: float
    zvs_favorable: bool

    def to_dict(self) -> dict:
        return {
            "I1_rms_A": abs(self.I1),
            "I1_phase_deg": math.degrees(cmath.phase(self.I1)),
            "I2_rms_A": abs(self.I2),
            "I2_phase_deg": math.degrees(cmath.phase(self.I2)),
            "V1_rms_V": abs(self.V1),
            "Z_in_ohm": [self.Z_in.real, self.Z_in.imag],
            "Z_in_phase_deg": math.degrees(cmath.phase(self.Z_in)),
            "P_out_W": self.P_out,
            "P_in_W": self.P_in,
            "zvs_favorable": self.zvs_favorable,
        }


def resonant_frequency(L: float, C: float) -> float:
    if L <= 0 or C <= 0:
        raise ValidationError("L, C must be > 0")
    return 1.0 / (2.0 * math.pi * math.sqrt(L * C))


def equivalent_ac_load(R_load_dc: float) -> float:
    """FHA resistance of a diode bridge feeding a DC resistor: 8R/pi^2."""
    if R_load_dc <= 0:
        raise ValidationError(f"R_load_dc: {R_load_dc!r} must be > 0")
    return 8.0 * R_load_dc / math.pi**2


def drive_fundamental_rms(V_dc: float) -> float:
    """Fundamental RMS of the full-bridge square wave: 4*V_dc/(pi*sqrt(2))."""
    if V_dc < 0:
        raise ValidationError(f"V_dc: {V_dc!r} must be >= 0")
    return 4.0 * V_dc / (math.pi * math.sqrt(2.0))


def _mesh_solve(params: WptLinkParams, v1: complex, v2: complex):
    w = 2.0 * math.pi * params.f_s
    m = params.mutual
    z11 = params.R1 + 1j * (w * params.L1 - 1.0 / (w * params.C1))
    z22 = params.R2 + params.r_ac + 1j * (w * params.L2 - 1.0 / (w * params.C2))
    a = np.array([[z11, 1j * w * m], [1j * w * m, z22]], dtype=complex)
    if np.linalg.cond(a) > 1e12:
        raise SingularMatrixError("mesh matrix numerically singular")
    return np.linalg.solve(a, np.array([v1, v2], dtype=complex))


def fha_solve(params: WptLinkParams) -> FhaSolution:
    """Solve the two-mesh phasor system at the switching frequency.

    Raises NonConvergenceError when the diode-drop fixed point has not
    settled after DIODE_DROP_MAX_ITER mesh solves.
    """
    v1 = complex(drive_fundamental_rms(params.V_dc))
    i1, i2 = _mesh_solve(params, v1, 0.0)
    if params.diode_drop > 0:
        # rectifier counter-emf: fundamental of the diode drop, in phase
        # with -I2; fixed-point since only its phase depends on the solution
        e_mag = 4.0 * params.diode_drop / (math.pi * math.sqrt(2.0))
        for _ in range(DIODE_DROP_MAX_ITER):
            phase = i2 / abs(i2) if abs(i2) > 0 else 1.0
            i1_new, i2_new = _mesh_solve(params, v1, -e_mag * phase)
            settled = abs(i2_new - i2) < 1e-12 * max(1.0, abs(i2_new))
            i1, i2 = i1_new, i2_new
            if settled:
                break
        else:
            raise NonConvergenceError(
                f"diode-drop fixed point not settled after {DIODE_DROP_MAX_ITER} "
                "iterations",
                iterations=DIODE_DROP_MAX_ITER,
            )
    r_ac = params.r_ac
    p_out = abs(i2) ** 2 * r_ac
    p_in = (v1 * i1.conjugate()).real
    z_in = v1 / i1
    return FhaSolution(
        I1=i1,
        I2=i2,
        V1=v1,
        Z_in=z_in,
        P_out=p_out,
        P_in=p_in,
        zvs_favorable=cmath.phase(z_in) > 0,
    )


def power_scaling_check(params: WptLinkParams, V_dc_a: float, V_dc_b: float) -> float:
    """P_out(V_dc_b) / P_out(V_dc_a); exactly (V_dc_b/V_dc_a)^2 in this model."""
    p_a = fha_solve(replace(params, V_dc=V_dc_a)).P_out
    p_b = fha_solve(replace(params, V_dc=V_dc_b)).P_out
    if p_a == 0.0:
        raise ValidationError("V_dc_a: produces zero output power; ratio undefined")
    return p_b / p_a
