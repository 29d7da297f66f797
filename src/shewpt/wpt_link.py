"""First-harmonic-approximation model of a series-series compensated link.

Two magnetically coupled series-resonant meshes driven by the inverter
fundamental; the rectifier plus DC load is replaced by its equivalent AC
resistance 8*R/pi^2. The input-impedance phase sign is the ZVS indicator.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import SingularMatrixError, ValidationError, _check_magnitude, _check_record

__all__ = [
    "WptLinkParams",
    "FhaSolution",
    "fha_solve",
    "power_scaling_check",
]


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
            _check_magnitude(name, getattr(self, name))
        # k = 0 is admitted as the uncoupled limit
        _check_magnitude("k", self.k, allow_zero=True)
        if not self.k < 1.0:
            raise ValidationError(f"k: {self.k!r} must be in [0, 1)")
        for name in ("R1", "R2", "diode_drop"):
            _check_magnitude(name, getattr(self, name), allow_zero=True)

    @property
    def mutual(self) -> float:
        return self.k * math.sqrt(self.L1 * self.L2)

    @property
    def r_ac(self) -> float:
        """FHA resistance of the diode bridge feeding R_load_dc: 8R/pi^2."""
        return 8.0 * self.R_load_dc / math.pi**2

    @classmethod
    def from_config(cls, cfg: dict) -> "WptLinkParams":
        if not isinstance(cfg, dict):
            raise ValidationError("config: must be a JSON object of SI-unit keys")
        required = ("L1_H", "C1_F", "k", "R_load_ohm", "V_dc_V", "f_s_Hz")
        for key in required:
            if key not in cfg:
                raise ValidationError(f"{key}: missing from link config")
        for key, value in cfg.items():
            if key not in required + ("L2_H", "C2_F", "R1_ohm", "R2_ohm", "diode_drop_V"):
                raise ValidationError(f"{key}: not a link config key")
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

    @property
    def zvs_favorable(self) -> bool:
        """The input impedance is inductive (its phase is positive)."""
        return cmath.phase(self.Z_in) > 0

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


def fha_solve(params: WptLinkParams) -> FhaSolution:
    """Solve the two-mesh phasor system at the switching frequency.

    The diode drop's fundamental e is in phase with I2, so it is a resistance
    e/|I2| in series with the load. With a = Z11*Z22 + (wM)^2, x = |I2| solves
    |a*x + Z11*e| = wM*|V1|, whose quadratic has one positive root when the
    bridge conducts (wM*|V1| > e*|Z11|) and none otherwise: the bridge
    blocks, I2 = 0 and I1 = V1/Z11.
    """
    _check_record("params", params, WptLinkParams)
    w = 2.0 * math.pi * params.f_s
    wm = w * params.mutual
    z11 = params.R1 + 1j * (w * params.L1 - 1.0 / (w * params.C1))
    z22 = params.R2 + params.r_ac + 1j * (w * params.L2 - 1.0 / (w * params.C2))
    # fundamental RMS of the full-bridge square wave, and of the diode drop
    v1 = complex(4.0 * params.V_dc / (math.pi * math.sqrt(2.0)))
    e = 4.0 * params.diode_drop / (math.pi * math.sqrt(2.0))
    if e > 0:
        abs_z11 = abs(z11)
        emf, drop = wm * abs(v1), e * abs_z11
        if emf > drop:
            # |a|^2 x^2 + 2 b x + c = 0 with b = e*Re(a*conj(Z11)) >= 0 and c < 0;
            # its positive root x = -c / (b + sqrt(b^2 - |a|^2 c)) cancels nothing
            a = abs(z11 * z22 + wm * wm)
            b = e * (abs_z11 * abs_z11 * z22.real + wm * wm * z11.real)
            c = (drop - emf) * (drop + emf)
            z22 += e * (b + math.sqrt(b * b - a * a * c)) / -c
        else:
            wm = 0.0  # the bridge blocks: I2 = 0 leaves the primary uncoupled
    mesh = np.array([[z11, 1j * wm], [1j * wm, z22]], dtype=complex)
    if np.linalg.cond(mesh) > 1e12:
        raise SingularMatrixError("mesh matrix numerically singular")
    with np.errstate(all="ignore"):
        i1, i2 = np.linalg.solve(mesh, np.array([v1, 0.0], dtype=complex))
        z_in = v1 / i1
        # solved in numpy; only the results become Python numbers, because the
        # same arithmetic in Python complex rounds Z_in differently
        solution = FhaSolution(
            I1=complex(i1),
            I2=complex(i2),
            V1=v1,
            Z_in=complex(z_in),
            P_out=float(abs(i2) ** 2 * params.r_ac),
            P_in=float((v1 * i1.conjugate()).real),
        )
    # np.linalg.solve can round I1 to 0 where Z_in = Z11 + (wM)^2 / Z22 is
    # finite: each result that is not finite is named
    for name in ("V1", "I1", "I2", "Z_in", "P_out", "P_in"):
        value = getattr(solution, name)
        if not cmath.isfinite(value):
            raise ValidationError(
                f"params: {name} = {value!r} is not finite; the mesh solve lost it to rounding"
            )
    return solution


def power_scaling_check(params: WptLinkParams, V_dc_a: float, V_dc_b: float) -> float:
    """P_out(V_dc_b) / P_out(V_dc_a); (V_dc_b/V_dc_a)^2 only without a diode drop."""
    _check_record("params", params, WptLinkParams)
    p_a = fha_solve(replace(params, V_dc=V_dc_a)).P_out
    p_b = fha_solve(replace(params, V_dc=V_dc_b)).P_out
    if p_a == 0.0:
        raise ValidationError("V_dc_a: produces zero output power; ratio undefined")
    return p_b / p_a
