"""Selective harmonic elimination: solve sum_i cos(n_k * theta_i) = 0.

The square K-equation/K-angle system is solved by damped Newton iteration
with the analytic Jacobian, seeded either from a user guess or from a full
multistart lattice sweep. A brute-force grid search over the ascending
angle lattice serves as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    DimensionMismatchError,
    DivergenceError,
    NonConvergenceError,
    SingularMatrixError,
    ValidationError,
)
from .waveform import AngleSet

__all__ = [
    "HarmonicTargetSet",
    "SheSolution",
    "residual",
    "jacobian",
    "solve_newton",
    "solve_multistart",
    "grid_oracle",
]

MAX_STEP_HALVINGS = 30
CONDITION_LIMIT = 1e12
DEDUP_TOL_DEG = 0.01
LATTICE_POINT_LIMIT = 1_000_000_000


@dataclass(frozen=True)
class HarmonicTargetSet:
    """Odd harmonic orders (>= 3, ascending) to be driven to zero."""

    orders: tuple[int, ...]

    def __post_init__(self):
        orders = tuple(int(n) for n in self.orders)
        object.__setattr__(self, "orders", orders)
        if len(orders) == 0:
            raise ValidationError("orders: at least one harmonic order required")
        for i, n in enumerate(orders):
            if n < 3 or n % 2 == 0:
                raise ValidationError(
                    f"orders[{i}]: {n!r} must be an odd integer >= 3"
                )
        if any(b <= a for a, b in zip(orders, orders[1:])):
            raise ValidationError("orders: must be strictly ascending")

    @property
    def size(self) -> int:
        return len(self.orders)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.orders, dtype=float)


@dataclass(frozen=True)
class SheSolution:
    angle_set: AngleSet
    residual_norm: float
    iterations: int
    converged: bool


def _check_square(angles: AngleSet, targets: HarmonicTargetSet):
    if angles.levels != targets.size:
        raise DimensionMismatchError(
            f"angles: {angles.levels} angles for {targets.size} harmonic targets"
        )


def residual(angles: AngleSet, targets: HarmonicTargetSet) -> np.ndarray:
    """Component k is sum_i cos(n_k * theta_i)."""
    _check_square(angles, targets)
    return _residual_raw(angles.as_array(), targets.as_array())


def jacobian(angles: AngleSet, targets: HarmonicTargetSet) -> np.ndarray:
    """Analytic derivative: dF_k/dtheta_i = -n_k * sin(n_k * theta_i)."""
    _check_square(angles, targets)
    return _jacobian_raw(angles.as_array(), targets.as_array())


def _residual_raw(theta: np.ndarray, orders: np.ndarray) -> np.ndarray:
    return np.cos(orders[:, None] * theta[None, :]).sum(axis=1)


def _jacobian_raw(theta: np.ndarray, orders: np.ndarray) -> np.ndarray:
    return -orders[:, None] * np.sin(orders[:, None] * theta[None, :])


def solve_newton(
    initial: AngleSet,
    targets: HarmonicTargetSet,
    tol: float = 1e-12,
    max_iter: int = 60,
) -> SheSolution:
    """Damped Newton iteration from ``initial``.

    Steps are halved (up to 30 times) until the residual infinity-norm
    decreases and the iterate stays inside (0, pi/2); iterates that cannot
    be kept inside raise DivergenceError.
    """
    _check_square(initial, targets)
    if not tol > 0:
        raise ValidationError(f"tol: {tol!r} must be > 0")
    orders = targets.as_array()
    theta = initial.as_array().copy()
    half_pi = math.pi / 2

    norm = float(np.max(np.abs(_residual_raw(theta, orders))))
    best_theta, best_norm = theta.copy(), norm
    for it in range(max_iter):
        if norm < tol:
            return _finish(theta, norm, it)
        jac = _jacobian_raw(theta, orders)
        if not np.all(np.isfinite(jac)) or np.linalg.cond(jac) > CONDITION_LIMIT:
            raise SingularMatrixError(
                f"Jacobian numerically singular at iteration {it}"
            )
        step = np.linalg.solve(jac, -_residual_raw(theta, orders))

        scale = 1.0
        accepted = False
        inside_seen = False
        for _ in range(MAX_STEP_HALVINGS + 1):
            cand = theta + scale * step
            if np.all(cand > 0.0) and np.all(cand < half_pi):
                inside_seen = True
                cand_norm = float(np.max(np.abs(_residual_raw(cand, orders))))
                if cand_norm < norm:
                    theta, norm = cand, cand_norm
                    accepted = True
                    break
            scale *= 0.5
        if not accepted:
            if not inside_seen:
                raise DivergenceError(
                    f"iterate left (0, pi/2) after full damping at iteration {it}"
                )
            raise NonConvergenceError(
                f"no residual decrease after {MAX_STEP_HALVINGS} halvings",
                best_angles=np.sort(best_theta),
                residual_norm=best_norm,
                iterations=it,
            )
        if norm < best_norm:
            best_theta, best_norm = theta.copy(), norm

    if norm < tol:
        return _finish(theta, norm, max_iter)
    raise NonConvergenceError(
        f"max_iter={max_iter} exceeded (best residual norm {best_norm:.3e})",
        best_angles=np.sort(best_theta),
        residual_norm=best_norm,
        iterations=max_iter,
    )


def _finish(theta: np.ndarray, norm: float, iterations: int):
    # the residual is permutation invariant; report the sorted angle set
    ordered = np.sort(theta)
    return SheSolution(
        angle_set=AngleSet(tuple(ordered)),
        residual_norm=norm,
        iterations=iterations,
        converged=True,
    )


def _lattice_values(step_deg: float) -> np.ndarray:
    # interior lattice of (0, 90) degrees
    n = int(math.ceil(90.0 / step_deg)) - 1
    return np.arange(1, n + 1) * step_deg


def solve_multistart(
    targets: HarmonicTargetSet,
    grid_step_deg: float = 5.0,
    tol: float = 1e-12,
    max_iter: int = 60,
) -> list[SheSolution]:
    """Newton from every ascending lattice seed; distinct converged roots.

    Roots are deduplicated at 0.01 degrees per angle and sorted by the
    first angle. Seeds that diverge or stall are skipped, and so are roots
    with an angle within 0.01 degrees of 0 or pi/2: that layer never
    switches.
    """
    if not 0.0 < grid_step_deg <= 15.0:
        raise ValidationError(f"grid_step_deg: {grid_step_deg!r} not in (0, 15]")
    values = np.radians(_lattice_values(grid_step_deg))
    dedup = math.radians(DEDUP_TOL_DEG)
    found: list[SheSolution] = []
    for seed in combinations(values, targets.size):
        try:
            sol = solve_newton(AngleSet(seed), targets, tol=tol, max_iter=max_iter)
        except (SingularMatrixError, DivergenceError, NonConvergenceError, ValidationError):
            continue
        theta = sol.angle_set.as_array()
        if theta[0] < dedup or theta[-1] > math.pi / 2 - dedup:
            continue
        if any(
            np.max(np.abs(theta - s.angle_set.as_array())) < dedup for s in found
        ):
            continue
        found.append(sol)
    found.sort(key=lambda s: s.angle_set.angles[0])
    return found


def grid_oracle(targets: HarmonicTargetSet, step_deg: float) -> AngleSet:
    """Exhaustive minimizer of ||residual||^2 over the ascending lattice.

    Independent of the Newton path; ties break to the lexicographically
    smallest angle tuple. Guarded against lattices above 1e9 points.
    """
    if step_deg < 0.05:
        raise ValidationError(f"step_deg: {step_deg!r} below the 0.05 cost guard")
    values_deg = _lattice_values(step_deg)
    m = len(values_deg)
    k = targets.size
    if math.comb(m, k) > LATTICE_POINT_LIMIT:
        raise ValidationError(
            f"step_deg: lattice of {math.comb(m, k)} points exceeds the cost guard"
        )
    theta = np.radians(values_deg)
    orders = targets.as_array()
    cos_tab = np.cos(orders[:, None] * theta[None, :])  # (K, m)

    if k == 1:
        scores = cos_tab[0] ** 2
        best = int(np.argmin(scores))
        return AngleSet((theta[best],))

    # meet in the middle: enumerate prefixes in python, suffixes vectorized
    p = k // 2
    s = k - p
    suffix_combos = np.array(list(combinations(range(m), s)), dtype=np.intp)
    suffix_sums = cos_tab[:, suffix_combos].sum(axis=2)  # (K, n_suffix)
    # combinations() is lexicographic, so first indices are non-decreasing
    suffix_first = suffix_combos[:, 0]
    offsets = np.searchsorted(suffix_first, np.arange(m + 1))

    best_score = math.inf
    best_angles = None
    for prefix in combinations(range(m), p):
        start = offsets[prefix[-1] + 1]
        if start >= suffix_sums.shape[1]:
            continue
        partial = cos_tab[:, list(prefix)].sum(axis=1)
        totals = partial[:, None] + suffix_sums[:, start:]
        scores = np.einsum("kj,kj->j", totals, totals)
        j = int(np.argmin(scores))
        if scores[j] < best_score:
            best_score = float(scores[j])
            best_angles = tuple(theta[list(prefix)]) + tuple(
                theta[suffix_combos[start + j]]
            )
    if best_angles is None:
        raise ValidationError("step_deg: lattice has no ascending tuples")
    return AngleSet(best_angles)
