"""Selective harmonic elimination: solve sum_i cos(n_k * theta_i) = 0.

The square K-equation/K-angle system is solved by damped Newton iteration
with the analytic Jacobian, seeded either from a user guess or from every
ascending K-tuple of the fixed 5 degree multistart lattice (5, 10, ..., 85
degrees, so at most 17 orders). A brute-force grid search over an ascending
angle lattice of any step serves as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .errors import (
    CONDITION_LIMIT,
    DimensionMismatchError,
    DivergenceError,
    NonConvergenceError,
    SingularMatrixError,
    ValidationError,
    _as_order,
    _as_tuple,
    _check_magnitude,
    _check_record,
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
DEDUP_TOL_DEG = 0.01
LATTICE_POINT_LIMIT = 1_000_000_000
# Newton's residual tolerance and iteration cap, read at each call: the
# branch-completeness proof checks multistart's branches at these values
TOL = 1e-12
MAX_ITER = 60
# scores per grid_oracle matrix product (512 KiB), or one prefix's row where
# that is longer: the 1 degree 4-level lattices never split a prefix group,
# finer ones do; only the few blocks near the least score are scored twice
ORACLE_BLOCK = 1 << 16


@dataclass(frozen=True)
class HarmonicTargetSet:
    """Odd harmonic orders (>= 3, ascending) to be driven to zero.

    Two or more orders must share no factor: when every order is a multiple
    of one odd d >= 3, theta and pi/d - theta cancel in every equation, so
    the roots form continua and a multistart would return samples of them
    as branches. The rule also rejects a set such as (3, 15, 21, 27), which
    holds isolated roots beside its continuum. One order alone has isolated
    roots, and stays valid.
    """

    orders: tuple[int, ...]

    def __post_init__(self):
        orders = _as_tuple("orders", self.orders)
        if len(orders) == 0:
            raise ValidationError("orders: at least one harmonic order required")
        orders = tuple(_as_order(f"orders[{i}]", n) for i, n in enumerate(orders))
        object.__setattr__(self, "orders", orders)
        if any(b <= a for a, b in zip(orders, orders[1:])):
            raise ValidationError("orders: must be strictly ascending")
        factor = math.gcd(*orders)
        if len(orders) > 1 and factor > 1:
            raise ValidationError(
                f"orders: {orders} share the factor {factor}; their roots are not isolated"
            )

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


def _check_square(name: str, angles: AngleSet, targets: HarmonicTargetSet):
    """``angles`` (the argument ``name``) and ``targets`` are the records, of
    one size."""
    _check_record(name, angles, AngleSet)
    _check_record("targets", targets, HarmonicTargetSet)
    if angles.levels != targets.size:
        raise DimensionMismatchError(
            f"{name}: {angles.levels} angles for {targets.size} harmonic targets"
        )


def residual(angles: AngleSet, targets: HarmonicTargetSet) -> np.ndarray:
    """Component k is sum_i cos(n_k * theta_i)."""
    _check_square("angles", angles, targets)
    return _residual_raw(angles.as_array(), targets.as_array())


def jacobian(angles: AngleSet, targets: HarmonicTargetSet) -> np.ndarray:
    """Analytic derivative: dF_k/dtheta_i = -n_k * sin(n_k * theta_i)."""
    _check_square("angles", angles, targets)
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


def _newton_batch(theta0: np.ndarray, orders: np.ndarray):
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
    TOL after MAX_ITER steps.

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
    theta = np.array(theta0, dtype=float)
    res = _residual_raw(theta, orders)
    norm = np.abs(res).max(axis=1)
    status = np.full(len(theta), STALLED)
    iters = np.full(len(theta), MAX_ITER)
    active = np.arange(len(theta))
    half_pi = math.pi / 2
    for it in range(MAX_ITER):
        done = norm[active] < TOL
        status[active[done]] = CONVERGED
        iters[active[done]] = it
        active = active[~done]
        if not len(active):
            break
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
    status[active[norm[active] < TOL]] = CONVERGED
    return theta, norm, status, iters


def solve_newton(initial: AngleSet, targets: HarmonicTargetSet) -> SheSolution:
    """Damped Newton iteration from ``initial``: one seed of the batch kernel.

    The iteration stops once the residual infinity-norm is below TOL
    (1e-12), and raises NonConvergenceError, carrying the best iterate,
    after MAX_ITER (60) steps without that. Steps are halved (up to 30
    times) until the norm decreases and the iterate stays inside (0, pi/2);
    iterates that cannot be kept inside raise DivergenceError. A step that
    leaves the box jumps past the halvings that provably leave it too (see
    _newton_batch), with the same iterates as halving one scale at a time.
    """
    _check_square("initial", initial, targets)
    theta, norm, status, iters = _newton_batch(initial.as_array()[None, :], targets.as_array())
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
    if it < MAX_ITER:
        message = f"no residual decrease after {MAX_STEP_HALVINGS} halvings"
    else:
        message = f"max_iter={MAX_ITER} exceeded (best residual norm {norm:.3e})"
    raise NonConvergenceError(
        message, best_angles=np.sort(theta), residual_norm=norm, iterations=it
    )


def _finish(theta: np.ndarray, norm: float, iterations: int):
    # the residual is permutation invariant; report the sorted angle set
    ordered = np.sort(theta)
    return SheSolution(
        angle_set=AngleSet(tuple(ordered)), residual_norm=norm, iterations=iterations
    )


# The multistart lattice: the 17 interior values 5, 10, ..., 85 degrees. Its
# ascending K-tuples are at most C(17, 8) = 24,310 seeds, iterated as one
# _newton_batch call; the batch's traced peak is 29 MiB at K = 8.
MULTISTART_VALUES = 17
MULTISTART_STEP_DEG = 5.0


def solve_multistart(targets: HarmonicTargetSet) -> list[SheSolution]:
    """Newton from every ascending K-tuple of the 5 degree lattice; distinct
    converged roots.

    The seeds are iterated together, each as solve_newton iterates it (to
    TOL within MAX_ITER steps), and their roots taken in lattice order.
    Roots are deduplicated at 0.01 degrees per angle (the first seed
    reaching a root keeps it) and sorted by the first angle. Seeds that
    diverge, stall or meet a singular Jacobian are skipped, and so are roots
    with a repeated angle or an angle within 0.01 degrees of 0 or pi/2. The
    band is a minimum pulse width of 0.01 degrees of the period (0.33 ns at
    85 kHz): such a layer's pulse (near pi/2), or the gap between its pulses
    (near 0), is shorter than twice it. One debug record on the
    ``shewpt.she_solver`` logger counts the outcomes. More than 17 orders
    have no ascending seed.
    """
    _check_record("targets", targets, HarmonicTargetSet)
    if targets.size > MULTISTART_VALUES:
        raise ValidationError(
            f"orders: {targets.size} orders exceed the {MULTISTART_VALUES} "
            f"values of the multistart lattice"
        )
    values = np.radians(np.arange(1, MULTISTART_VALUES + 1) * MULTISTART_STEP_DEG)
    seeds = values[np.array(list(combinations(range(MULTISTART_VALUES), targets.size)))]
    theta, norm, status, iters = _newton_batch(seeds, targets.as_array())
    counts = np.bincount(status, minlength=4)
    dedup = math.radians(DEDUP_TOL_DEG)
    rows = np.flatnonzero(status == CONVERGED)
    roots = np.sort(theta[rows], axis=1)
    # AngleSet's rules but one hold already: a converged row is a seed or an
    # accepted iterate, inside (0, pi/2); its angles may repeat
    valid = (np.diff(roots, axis=1) > 0).all(axis=1)
    bounded = (roots[:, 0] < dedup) | (roots[:, -1] > math.pi / 2 - dedup)
    keep = valid & ~bounded
    rows, roots = rows[keep], roots[keep]
    found: list[SheSolution] = []
    # the first remaining root in lattice order is new; it hides every root
    # within the tolerance of it
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
        targets.orders, MULTISTART_STEP_DEG, counts.sum(), *counts,
        np.count_nonzero(~valid), np.count_nonzero(valid & bounded), len(found),
    )
    found.sort(key=lambda s: s.angle_set.angles[0])
    return found


def grid_oracle(targets: HarmonicTargetSet, step_deg: float) -> AngleSet:
    """Exhaustive minimizer of ||residual||^2 over the ascending lattice.

    Independent of the Newton path; ties break to the lexicographically
    smallest angle tuple. Guarded against lattices above 1e9 points.

    Each tuple splits into a prefix and a suffix of p = K // 2 and s = K - p
    angles, with per-order cosine sums P and S. Pass 1 scores each block of
    tuples with one matrix product of augmented vectors, [2P; |P|^2; 1]^T
    [S; 1; |S|^2] = |P + S|^2, and keeps the block's minimum. Pass 2 rescores
    elementwise, ((P_0 + S_0)^2 + (P_1 + S_1)^2) + ..., every tuple whose
    product score is within tau of the least one, and returns the min of
    (score, index tuple) by those exact bits.

    Why no minimizer is lost: with u = 2^-53 and gamma_n = n u / (1 - n u)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
    3.1), every |P_k| <= p and |S_k| <= s, so r = sum_k (P_k + S_k)^2 and
    sum_k (|P_k| + |S_k|)^2 are at most K (p + s)^2 = K^3.
    - The elementwise score is within gamma_{K+2} r of r: each term meets at
      most K + 2 roundings (its add, twice through the square; the square;
      K - 1 adds).
    - The squared norms are within gamma_K of theirs, in any summation order.
    - The product is an inner product of length K + 2, within gamma_{K+2}
      sum_i |a_i b_i| <= gamma_{K+2} (1 + gamma_K) K^3 of its exact value in
      any BLAS summation order, with or without FMA, so on any thread count.
    So the product and the elementwise score differ by at most
    (2 (1 + gamma_K) gamma_{K+2} + gamma_K) K^3 < 3.01 gamma_{K+2} K^3.
    e = 4 gamma_{K+2} K^3 leaves room for underflow and for the rounding of
    the cut, and tau = 2 e. The least exact score is within e of the least
    product score, and an exact minimizer's product score within e of it:
    it is rescored, with every tuple tied with it.
    """
    _check_record("targets", targets, HarmonicTargetSet)
    _check_magnitude("step_deg", step_deg)
    if step_deg < 0.05:
        raise ValidationError(f"step_deg: {step_deg!r} below the 0.05 cost guard")
    k = targets.size
    # at most 1,800 values at the 0.05 degree guard
    m = int(math.ceil(90.0 / step_deg)) - 1
    if m < k:
        raise ValidationError(f"step_deg: lattice of {m} values has no ascending {k}-tuples")
    if math.comb(m, k) > LATTICE_POINT_LIMIT:
        raise ValidationError(
            f"step_deg: lattice of {math.comb(m, k)} points exceeds the cost guard"
        )
    theta = np.radians(np.arange(1, m + 1) * step_deg)
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
    suffix_combos = np.fromiter(
        chain.from_iterable(combinations(range(m), s)), dtype=np.intp
    ).reshape(-1, s)
    suffix_sums = cos_tab[:, suffix_combos].sum(axis=2)  # (K, n_suffix)
    # combinations() is lexicographic, so first indices are non-decreasing
    offsets = np.searchsorted(suffix_combos[:, 0], np.arange(m + 1))
    prefix_combos = np.fromiter(
        chain.from_iterable(combinations(range(m), p)), dtype=np.intp
    ).reshape(-1, p)
    # for p >= 3 lexicographic prefixes are not sorted by their last index;
    # a stable sort keeps each group in lexicographic order
    prefix_combos = prefix_combos[np.argsort(prefix_combos[:, -1], kind="stable")]
    prefix_sums = cos_tab[:, prefix_combos].sum(axis=2)  # (K, n_prefix)
    groups = np.searchsorted(prefix_combos[:, -1], np.arange(m + 1))
    # rows [2P; |P|^2; 1] and columns [S; 1; |S|^2]: their product is |P + S|^2
    norms = (prefix_sums**2).sum(axis=0)
    prefix_aug = np.column_stack((2 * prefix_sums.T, norms, np.ones_like(norms)))
    norms = (suffix_sums**2).sum(axis=0)
    suffix_aug = np.vstack((suffix_sums, np.ones_like(norms), norms))
    # tau = 2 e = 8 gamma_{K+2} K^3, as derived above
    n_u = (k + 2) * 2.0**-53
    tau = 8 * n_u / (1 - n_u) * k**3

    blocks = []
    for last in range(p - 1, m - s):
        start = offsets[last + 1]
        rows = max(1, ORACLE_BLOCK // (len(suffix_combos) - start))
        for lo in range(groups[last], groups[last + 1], rows):
            blocks.append((lo, min(lo + rows, groups[last + 1]), start))
    lows = [(prefix_aug[lo:hi] @ suffix_aug[:, start:]).min() for lo, hi, start in blocks]
    cut = min(lows) + tau

    best = (math.inf, ())
    for (lo, hi, start), low in zip(blocks, lows):
        if low > cut:
            continue
        # row-major candidates: the first of least score is the
        # lexicographically first tuple of this block
        i, j = np.nonzero(prefix_aug[lo:hi] @ suffix_aug[:, start:] <= cut)
        partial = prefix_sums[:, lo + i]
        suffix = suffix_sums[:, start + j]
        scores = (partial[0] + suffix[0]) ** 2
        for order in range(1, k):
            scores += (partial[order] + suffix[order]) ** 2
        c = int(np.argmin(scores))
        tie_key = tuple(prefix_combos[lo + i[c]]) + tuple(suffix_combos[start + j[c]])
        best = min(best, (float(scores[c]), tie_key))
    return AngleSet(tuple(theta[list(best[1])]))
