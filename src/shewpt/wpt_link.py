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

from .errors import CONDITION_LIMIT, SingularMatrixError, ValidationError, _check_magnitude
from .errors import _check_record

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
    """Solve the two-mesh phasor system at the switching frequency in closed
    form: Z_in = Z11 + (wM)^2/Z22, I1 = V1/Z_in and I2 = -j wM I1/Z22 (W.
    Zhang and C. C. Mi, IEEE Trans. Veh. Technol. 65(6), 2016). The mesh
    [[Z11, j wM], [j wM, Z22]] is singular where cond_2 = sigma_1^2/|det| >
    CONDITION_LIMIT, with |det| = |Z22| |Z_in|, F^2 = |Z11|^2 + 2 (wM)^2 + |Z22|^2 and
    sigma_1^2 = (F^2 + sqrt((F^2 - 2|det|)(F^2 + 2|det|)))/2, all over |Z22|^2.

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
    z_in = z11 + wm * wm / z22
    # over |Z22|^2 no square overflows, and a zero determinant is singular
    z22_abs = abs(z22)
    z11_n, wm_n, det_n = abs(z11) / z22_abs, wm / z22_abs, abs(z_in) / z22_abs
    f2 = z11_n * z11_n + 2.0 * wm_n * wm_n + 1.0
    sigma1_sq = (f2 + math.sqrt(max(0.0, (f2 - 2.0 * det_n) * (f2 + 2.0 * det_n)))) / 2.0
    if not sigma1_sq <= CONDITION_LIMIT * det_n:
        raise SingularMatrixError("mesh matrix numerically singular")
    i1 = v1 / z_in
    i2 = -1j * wm * i1 / z22 if wm else 0j  # a zero current has phase 0
    i2_abs = abs(i2)
    return FhaSolution(I1=i1, I2=i2, V1=v1, Z_in=z_in, P_out=i2_abs * i2_abs * params.r_ac,
                       P_in=(v1 * i1.conjugate()).real)


def power_scaling_check(params: WptLinkParams, V_dc_a: float, V_dc_b: float) -> float:
    """P_out(V_dc_b) / P_out(V_dc_a); (V_dc_b/V_dc_a)^2 only without a diode drop."""
    _check_record("params", params, WptLinkParams)
    _check_magnitude("V_dc_a", V_dc_a)
    _check_magnitude("V_dc_b", V_dc_b)
    p_a = fha_solve(replace(params, V_dc=V_dc_a)).P_out
    p_b = fha_solve(replace(params, V_dc=V_dc_b)).P_out
    if p_a == 0.0:
        raise ValidationError("V_dc_a: produces zero output power; ratio undefined")
    return p_b / p_a
