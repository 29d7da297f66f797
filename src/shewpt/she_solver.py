"""Selective harmonic elimination: solve sum_i cos(n_k * theta_i) = 0.

The square K-equation/K-angle system is solved by damped Newton iteration
with the analytic Jacobian, seeded either from a user guess or from a full
multistart lattice sweep. A brute-force grid search over the ascending
angle lattice serves as an independent oracle.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .errors import (
    DimensionMismatchError,
    DivergenceError,
    NonConvergenceError,
    SingularMatrixError,
    ValidationError,
    _check_count,
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
# a looser tolerance could accept a start guess far from any root as one
TOL_MAX = 1e-6
# about 15 minutes of multistart at 0.09 ms per seed (4-level targets, 2.5 deg)
MULTISTART_SEED_LIMIT = 10_000_000
# scores per grid_oracle array (512 KiB), or one prefix's row where that is
# longer: the 1 degree 4-level lattices never split, finer ones do
ORACLE_BLOCK = 1 << 16


@dataclass(frozen=True)
class HarmonicTargetSet:
    """Odd harmonic orders (>= 3, ascending) to be driven to zero."""

    orders: tuple[int, ...]

    def __post_init__(self):
        orders = tuple(self.orders)
        if len(orders) == 0:
            raise ValidationError("orders: at least one harmonic order required")
        for i, n in enumerate(orders):
            # also rejects a fraction, nan and a string
            if not (isinstance(n, numbers.Real) and n >= 3 and n % 2 == 1):
                raise ValidationError(
                    f"orders[{i}]: {n!r} must be an odd integer >= 3"
                )
        orders = tuple(int(n) for n in orders)
        object.__setattr__(self, "orders", orders)
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


def _halvings_to_box(theta: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Per row of ``theta`` (inside (0, pi/2)) and its Newton ``step``, both
    (S, K): a count of halvings j below which theta + 2^-j * step is never
    inside (0, pi/2).

    room_i is the distance from theta_i to the bound step_i points at, and
    r = max_i |step_i| / room_i is 2^(e-1) <= r < 2^e. At every j < e - 1 that
    component moves by at least 2 * room_i, so its candidate is beyond the
    bound by a whole room_i whatever the rounding of room_i, r and the sum.
    """
    room = np.where(step > 0.0, math.pi / 2 - theta, theta)
    return np.frexp((np.abs(step) / room).max(axis=1))[1] - 1


def _newton_batch(theta0: np.ndarray, orders: np.ndarray, tol: float, max_iter: int):
    """Damped Newton iteration of every row of ``theta0`` (S, K) at once.

    Each iteration solves the active seeds' Newton systems as one stack.
    Seeds and accepted iterates lie inside (0, pi/2), so every Jacobian is
    finite; a seed whose Jacobian has a condition number above
    CONDITION_LIMIT retires as SINGULAR. Otherwise its step is scaled by
    1, 1/2, 1/4, ... (MAX_STEP_HALVINGS halvings) until the iterate stays
    inside (0, pi/2) and the residual infinity-norm strictly decreases;
    only the seeds still pending try a further scale. A seed that exhausts
    the halvings retires as DIVERGED if no scaled iterate was inside, and
    as STALLED otherwise; so does a seed whose norm is still at or above
    tol after max_iter steps.

    A seed whose candidate at 2^-j leaves the box does not try the next
    halvings one pass each: it jumps to max(j + 1, _halvings_to_box). That
    skips only scales that leave the box too, so every decision and every
    iterate is the one the plain halving ladder makes. Rounding is
    monotone, so fl(theta + s * step) never moves back towards theta as s
    grows, and once a scale is inside every smaller one is: the test is a
    threshold on j, and no residual is taken at a skipped scale.

    The condition guard is screened without an inverse: with singular
    values s_1 >= ... >= s_K, cond_2 = s_1 / s_K <= s_1^K / |det J| <=
    ||J||_F^K / |det J|, because s_1 is at most the Frobenius norm (Golub &
    Van Loan, Matrix Computations, sec. 2.3). The bound takes one batched
    determinant where cond_2 takes an SVD. Only the seeds with ||J||_F^K at
    or above CONDITION_LIMIT / 2 * |det J| get the exact cond_2, so every
    retire decision is the one cond_2 alone makes; the factor 2 covers the
    rounding of both near the limit, and a determinant that underflows to
    0 (or a zero 1 x 1 Jacobian) screens the seed in.

    Returns the last iterates (S, K), their residual norms, the outcome
    codes and the iteration counts (the step at which the seed retired).
    """
    if not 0 < tol <= TOL_MAX:
        raise ValidationError(f"tol: {tol!r} must be in (0, {TOL_MAX!r}]")
    _check_count("max_iter", max_iter, 1)
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
        frob_k = np.einsum("sij,sij->s", jac, jac) ** (len(orders) / 2)
        singular = frob_k >= CONDITION_LIMIT / 2 * np.abs(np.linalg.det(jac))
        if singular.any():
            singular[singular] = np.linalg.cond(jac[singular]) > CONDITION_LIMIT
        status[active[singular]] = SINGULAR
        iters[active[singular]] = it
        active, jac = active[~singular], jac[~singular]
        if not len(active):
            break
        step = np.linalg.solve(jac, -res[active][..., None])[..., 0]

        # lazy damping: each seed not yet accepted tries its own next scale
        # 2^-halvings; one whose candidate left the box jumps to its bound
        pending = np.arange(len(active))
        accepted = np.zeros(len(active), dtype=bool)
        inside_seen = np.zeros(len(active), dtype=bool)
        halvings = np.zeros(len(active), dtype=np.intp)
        cand = theta[active] + step
        while True:
            inside = ((cand > 0.0) & (cand < half_pi)).all(axis=1)
            tried, cand = pending[inside], cand[inside]
            if len(tried):  # else every candidate left the box: nothing to evaluate
                inside_seen[tried] = True
                cand_res = _residual_raw(cand, orders)
                cand_norm = np.abs(cand_res).max(axis=1)
                better = cand_norm < norm[active[tried]]
                took = active[tried[better]]
                theta[took], res[took] = cand[better], cand_res[better]
                norm[took] = cand_norm[better]
                accepted[tried[better]] = True
            if not inside.all():
                # max(j + 1, bound) once the halving below is added
                out = pending[~inside]
                halvings[out] = np.maximum(
                    halvings[out], _halvings_to_box(theta[active[out]], step[out]) - 1
                )
            pending = pending[~accepted[pending]]
            if len(pending):
                halvings[pending] += 1
                pending = pending[halvings[pending] <= MAX_STEP_HALVINGS]
            if not len(pending):
                break
            cand = theta[active[pending]] + np.ldexp(
                step[pending], -halvings[pending, None]
            )
        failed = np.flatnonzero(~accepted)
        status[active[failed]] = np.where(inside_seen[failed], STALLED, DIVERGED)
        iters[active[failed]] = it
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
    be kept inside raise DivergenceError. A step that leaves the box jumps
    past the halvings that provably leave it too (see _newton_batch), with
    the same iterates as halving one scale at a time.
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
    have at least one and at most ``limit`` ascending k-tuples (``name`` is
    the argument)."""
    if not (math.isfinite(step_deg) and step_deg > 0):
        raise ValidationError(f"{name}: {step_deg!r} must be finite and > 0")
    m = int(math.ceil(90.0 / step_deg)) - 1
    if m < k:
        raise ValidationError(
            f"{name}: lattice of {m} values has no ascending {k}-tuples"
        )
    if math.comb(m, k) > limit:
        raise ValidationError(
            f"{name}: lattice of {math.comb(m, k)} points exceeds the cost guard"
        )
    return np.arange(1, m + 1) * step_deg


# Seeds per _newton_batch call in solve_multistart. A chunk's working set is
# a few (S, K, K) float64 stacks (the residual and Jacobian terms: 512 KiB
# each at S = 4096, K = 4; only the few seeds near the condition limit are
# decomposed) plus (S, K) iterates and steps. Its peak, about 3 MiB at K = 4
# (tracemalloc, 4-level targets on the 2.5 degree lattice), does not grow
# with the lattice.
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
        rows = np.flatnonzero(status == CONVERGED)
        roots = np.sort(theta[rows], axis=1)
        # AngleSet's rules but one hold already: a converged row is a seed or
        # an accepted iterate, inside (0, pi/2); its angles may repeat
        valid = (np.diff(roots, axis=1) > 0).all(axis=1)
        bounded = (roots[:, 0] < dedup) | (roots[:, -1] > math.pi / 2 - dedup)
        invalid += int(np.count_nonzero(~valid))
        on_bounds += int(np.count_nonzero(valid & bounded))
        keep = valid & ~bounded
        for sol in found:
            keep &= np.abs(roots - sol.angle_set.as_array()).max(axis=1) >= dedup
        rows, roots = rows[keep], roots[keep]
        # the first remaining root in lattice order is new; it hides every
        # root within the tolerance of it
        while len(rows):
            i = rows[0]
            found.append(_finish(theta[i], float(norm[i]), int(iters[i])))
            apart = np.abs(roots - roots[0]).max(axis=1) >= dedup
            rows, roots = rows[apart], roots[apart]
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

    # meet in the middle: the prefixes that end at one index share the block
    # of suffixes that start after it, so each group is scored as one
    # (prefixes, suffixes) array, ORACLE_BLOCK scores at a time
    p = k // 2
    s = k - p
    suffix_combos = np.array(list(combinations(range(m), s)), dtype=np.intp)
    suffix_sums = cos_tab[:, suffix_combos].sum(axis=2)  # (K, n_suffix)
    # combinations() is lexicographic, so first indices are non-decreasing
    offsets = np.searchsorted(suffix_combos[:, 0], np.arange(m + 1))
    prefix_combos = np.array(list(combinations(range(m), p)), dtype=np.intp)
    # for p >= 3 lexicographic prefixes are not sorted by their last index;
    # a stable sort keeps each group in lexicographic order
    prefix_combos = prefix_combos[np.argsort(prefix_combos[:, -1], kind="stable")]
    prefix_sums = cos_tab[:, prefix_combos].sum(axis=2)  # (K, n_prefix)
    groups = np.searchsorted(prefix_combos[:, -1], np.arange(m + 1))

    best = (math.inf, ())
    for last in range(p - 1, m - s):
        start = offsets[last + 1]
        suffix = suffix_sums[:, start:]
        rows = max(1, ORACLE_BLOCK // suffix.shape[1])
        for lo in range(groups[last], groups[last + 1], rows):
            partial = prefix_sums[:, lo : min(lo + rows, groups[last + 1])]
            scores = (partial[0][:, None] + suffix[0]) ** 2
            for order in range(1, k):
                scores += (partial[order][:, None] + suffix[order]) ** 2
            # row-major argmin: the lexicographically first tuple of this block
            i, j = divmod(int(np.argmin(scores)), scores.shape[1])
            tie_key = tuple(prefix_combos[lo + i]) + tuple(suffix_combos[start + j])
            best = min(best, (float(scores[i, j]), tie_key))
    return AngleSet(tuple(theta[list(best[1])]))
