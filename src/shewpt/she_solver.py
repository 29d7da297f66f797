"""Selective harmonic elimination: solve sum_i cos(n_k * theta_i) = 0.

The square K-equation/K-angle system is solved by damped Newton iteration
with the analytic Jacobian, seeded either from a user guess or from a full
multistart lattice sweep. A brute-force grid search over the ascending
angle lattice serves as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

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
# about 20 minutes of multistart at 0.12 ms per seed
MULTISTART_SEED_LIMIT = 10_000_000


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
    # theta is (K,) or a stack (S, K); the sum runs over the angles
    return np.cos(orders[:, None] * theta[..., None, :]).sum(axis=-1)


def _jacobian_raw(theta: np.ndarray, orders: np.ndarray) -> np.ndarray:
    return -orders[:, None] * np.sin(orders[:, None] * theta[..., None, :])


# seed outcomes of _newton_batch
CONVERGED, DIVERGED, STALLED, SINGULAR = range(4)


def _newton_batch(theta0: np.ndarray, orders: np.ndarray, tol: float, max_iter: int):
    """Damped Newton iteration of every row of ``theta0`` (S, K) at once.

    Each iteration solves the active seeds' Newton systems as one stack.
    A seed whose Jacobian is not finite or has a condition number above
    CONDITION_LIMIT retires as SINGULAR. Otherwise its step is scaled by
    1, 1/2, 1/4, ... (MAX_STEP_HALVINGS halvings) until the iterate stays
    inside (0, pi/2) and the residual infinity-norm strictly decreases;
    only the seeds still pending try the next scale. A seed that exhausts
    the halvings retires as DIVERGED if no scaled iterate was inside, and
    as STALLED otherwise; so does a seed whose norm is still at or above
    tol after max_iter steps.

    Returns the last iterates (S, K), their residual norms, the outcome
    codes and the iteration counts (the step at which the seed retired).
    """
    if not tol > 0:
        raise ValidationError(f"tol: {tol!r} must be > 0")
    if max_iter < 1:
        raise ValidationError(f"max_iter: {max_iter!r} must be >= 1")
    theta = np.array(theta0, dtype=float)
    res = _residual_raw(theta, orders)
    norm = np.abs(res).max(axis=1)
    status = np.full(len(theta), STALLED)
    iters = np.full(len(theta), max_iter)
    active = np.arange(len(theta))
    half_pi = math.pi / 2
    for it in range(max_iter):
        done = norm[active] < tol
        status[active[done]] = CONVERGED
        iters[active[done]] = it
        active = active[~done]
        jac = _jacobian_raw(theta[active], orders)
        singular = ~np.isfinite(jac).all(axis=(1, 2))
        singular[~singular] = np.linalg.cond(jac[~singular]) > CONDITION_LIMIT
        status[active[singular]] = SINGULAR
        iters[active[singular]] = it
        active, jac = active[~singular], jac[~singular]
        if not len(active):
            break
        step = np.linalg.solve(jac, -res[active][..., None])[..., 0]

        # lazy damping: only the seeds not yet accepted try the next scale
        pending = np.arange(len(active))
        accepted = np.zeros(len(active), dtype=bool)
        inside_seen = np.zeros(len(active), dtype=bool)
        scale = 1.0
        for _ in range(MAX_STEP_HALVINGS + 1):
            cand = theta[active[pending]] + scale * step[pending]
            inside = ((cand > 0.0) & (cand < half_pi)).all(axis=1)
            tried, cand = pending[inside], cand[inside]
            inside_seen[tried] = True
            cand_res = _residual_raw(cand, orders)
            cand_norm = np.abs(cand_res).max(axis=1)
            better = cand_norm < norm[active[tried]]
            took = active[tried[better]]
            theta[took], res[took] = cand[better], cand_res[better]
            norm[took] = cand_norm[better]
            accepted[tried[better]] = True
            pending = pending[~accepted[pending]]
            if not len(pending):
                break
            scale *= 0.5
        failed = active[pending]
        status[failed] = np.where(inside_seen[pending], STALLED, DIVERGED)
        iters[failed] = it
        active = active[accepted]
    status[active[norm[active] < tol]] = CONVERGED
    return theta, norm, status, iters


def solve_newton(
    initial: AngleSet,
    targets: HarmonicTargetSet,
    tol: float = 1e-12,
    max_iter: int = 60,
) -> SheSolution:
    """Damped Newton iteration from ``initial``: one seed of the batch kernel.

    Steps are halved (up to 30 times) until the residual infinity-norm
    decreases and the iterate stays inside (0, pi/2); iterates that cannot
    be kept inside raise DivergenceError.
    """
    _check_square(initial, targets)
    theta, norm, status, iters = _newton_batch(
        initial.as_array()[None, :], targets.as_array(), tol, max_iter
    )
    theta, norm, status, it = theta[0], float(norm[0]), status[0], int(iters[0])
    if status == CONVERGED:
        return _finish(theta, norm, it)
    if status == SINGULAR:
        raise SingularMatrixError(f"Jacobian numerically singular at iteration {it}")
    if status == DIVERGED:
        raise DivergenceError(
            f"iterate left (0, pi/2) after full damping at iteration {it}"
        )
    # every accepted step lowers the norm, so the last iterate is the best
    if it < max_iter:
        message = f"no residual decrease after {MAX_STEP_HALVINGS} halvings"
    else:
        message = f"max_iter={max_iter} exceeded (best residual norm {norm:.3e})"
    raise NonConvergenceError(
        message, best_angles=np.sort(theta), residual_norm=norm, iterations=it
    )


def _finish(theta: np.ndarray, norm: float, iterations: int):
    # the residual is permutation invariant; report the sorted angle set
    ordered = np.sort(theta)
    return SheSolution(
        angle_set=AngleSet(tuple(ordered)), residual_norm=norm, iterations=iterations
    )


def _lattice_values(step_deg: float, k: int, limit: int, name: str) -> np.ndarray:
    """Interior lattice of (0, 90) degrees, checked before it is built to
    have at most ``limit`` ascending k-tuples (``name`` is the argument)."""
    m = int(math.ceil(90.0 / step_deg)) - 1
    if math.comb(m, k) > limit:
        raise ValidationError(
            f"{name}: lattice of {math.comb(m, k)} points exceeds the cost guard"
        )
    return np.arange(1, m + 1) * step_deg


# Seeds per _newton_batch call in solve_multistart. A chunk's working set is
# a few (S, K, K) float64 stacks (the residual and Jacobian terms, the copy
# the condition check decomposes: 512 KiB each at S = 4096, K = 4) plus
# (S, K) iterates and steps. Its peak, about 3 MiB at K = 4 (tracemalloc,
# 4-level targets on the 2.5 degree lattice), does not grow with the lattice.
MULTISTART_CHUNK = 4096


def solve_multistart(
    targets: HarmonicTargetSet,
    grid_step_deg: float = 5.0,
    tol: float = 1e-12,
    max_iter: int = 60,
) -> list[SheSolution]:
    """Newton from every ascending lattice seed; distinct converged roots.

    The seeds are iterated together, MULTISTART_CHUNK at a time, and their
    roots taken in lattice order. Roots are deduplicated at 0.01 degrees
    per angle (the first seed reaching a root keeps it) and sorted by the
    first angle. Seeds that diverge, stall or meet a singular Jacobian are
    skipped, and so are roots with a repeated angle or an angle within
    0.01 degrees of 0 or pi/2: that layer never switches. One debug record
    on the ``shewpt.she_solver`` logger counts the outcomes. Lattices of
    more than MULTISTART_SEED_LIMIT seeds are rejected.
    """
    if not 0.0 < grid_step_deg <= 15.0:
        raise ValidationError(f"grid_step_deg: {grid_step_deg!r} not in (0, 15]")
    values = np.radians(
        _lattice_values(
            grid_step_deg, targets.size, MULTISTART_SEED_LIMIT, "grid_step_deg"
        )
    )
    orders = targets.as_array()
    dedup = math.radians(DEDUP_TOL_DEG)
    counts = np.zeros(4, dtype=int)
    invalid = on_bounds = 0
    found: list[SheSolution] = []
    lattice = combinations(range(len(values)), targets.size)
    while chunk := list(islice(lattice, MULTISTART_CHUNK)):
        seeds = values[np.array(chunk, dtype=np.intp)]
        theta, norm, status, iters = _newton_batch(seeds, orders, tol, max_iter)
        counts += np.bincount(status, minlength=4)
        for i in np.flatnonzero(status == CONVERGED):
            try:
                sol = _finish(theta[i], float(norm[i]), int(iters[i]))
            except ValidationError:
                invalid += 1
                continue
            root = sol.angle_set.as_array()
            if root[0] < dedup or root[-1] > math.pi / 2 - dedup:
                on_bounds += 1
                continue
            if any(
                np.max(np.abs(root - s.angle_set.as_array())) < dedup for s in found
            ):
                continue
            found.append(sol)
    # imported here: at module level logging adds 5-10 ms to every import of
    # shewpt, and most commands never run a multistart
    import logging

    logging.getLogger(__name__).debug(
        "multistart %s at %g deg: %d seeds, %d converged, %d diverged, "
        "%d stalled, %d singular, %d invalid, %d on the bounds, %d branches",
        targets.orders, grid_step_deg, counts.sum(), *counts, invalid,
        on_bounds, len(found),
    )
    found.sort(key=lambda s: s.angle_set.angles[0])
    return found


def grid_oracle(targets: HarmonicTargetSet, step_deg: float) -> AngleSet:
    """Exhaustive minimizer of ||residual||^2 over the ascending lattice.

    Independent of the Newton path; ties break to the lexicographically
    smallest angle tuple. Guarded against lattices above 1e9 points.
    """
    if step_deg < 0.05:
        raise ValidationError(f"step_deg: {step_deg!r} below the 0.05 cost guard")
    k = targets.size
    values_deg = _lattice_values(step_deg, k, LATTICE_POINT_LIMIT, "step_deg")
    m = len(values_deg)
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
