import functools
import logging
import math
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from shewpt import (
    AngleSet,
    DimensionMismatchError,
    DivergenceError,
    HarmonicTargetSet,
    NonConvergenceError,
    SingularMatrixError,
    ValidationError,
    fundamental_rms,
    grid_oracle,
    harmonic_amplitude,
    jacobian,
    residual,
    solve_multistart,
    solve_newton,
)
from shewpt import she_solver

DEG = math.pi / 180.0


def _reference_newton(theta0, orders, tol=1e-12, max_iter=60):
    """One seed at a time: the scalar damped Newton loop the batch kernel replaced.

    Returns (sorted angles, residual norm, iterations) or raises as
    solve_newton does; 30 halvings and the 1e12 condition limit are literal.
    """
    def res_of(theta):
        return np.cos(orders[:, None] * theta[None, :]).sum(axis=1)

    theta = np.asarray(theta0, dtype=float).copy()
    half_pi = math.pi / 2
    norm = float(np.max(np.abs(res_of(theta))))
    best_theta, best_norm = theta.copy(), norm
    for it in range(max_iter):
        if norm < tol:
            return tuple(np.sort(theta)), norm, it
        jac = -orders[:, None] * np.sin(orders[:, None] * theta[None, :])
        if not np.all(np.isfinite(jac)) or np.linalg.cond(jac) > 1e12:
            raise SingularMatrixError(
                f"Jacobian numerically singular at iteration {it}"
            )
        step = np.linalg.solve(jac, -res_of(theta))

        scale = 1.0
        accepted = False
        inside_seen = False
        for _ in range(30 + 1):
            cand = theta + scale * step
            if np.all(cand > 0.0) and np.all(cand < half_pi):
                inside_seen = True
                cand_norm = float(np.max(np.abs(res_of(cand))))
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
                "no residual decrease after 30 halvings",
                best_angles=np.sort(best_theta),
                residual_norm=best_norm,
                iterations=it,
            )
        if norm < best_norm:
            best_theta, best_norm = theta.copy(), norm

    if norm < tol:
        return tuple(np.sort(theta)), norm, max_iter
    raise NonConvergenceError(
        f"max_iter={max_iter} exceeded (best residual norm {best_norm:.3e})",
        best_angles=np.sort(best_theta),
        residual_norm=best_norm,
        iterations=max_iter,
    )


def _outcome(solve, *args):
    """A comparable record of one solve: its result or its exception."""
    try:
        out = solve(*args)
    except NonConvergenceError as exc:
        return ("NonConvergenceError", str(exc), tuple(exc.best_angles),
                exc.residual_norm, exc.iterations)
    except (SingularMatrixError, DivergenceError) as exc:
        return (type(exc).__name__, str(exc))
    if isinstance(out, tuple):
        return ("ok", *out)
    return ("ok", out.angle_set.angles, out.residual_norm, out.iterations)


def _row_outcome(theta, norm, status, it, max_iter=60):
    """_outcome's record of one _newton_batch row, as solve_newton reports it."""
    if status == she_solver.CONVERGED:
        return ("ok", tuple(np.sort(theta)), norm, it)
    if status == she_solver.SINGULAR:
        return ("SingularMatrixError", f"Jacobian numerically singular at iteration {it}")
    if status == she_solver.DIVERGED:
        return ("DivergenceError",
                f"iterate left (0, pi/2) after full damping at iteration {it}")
    if it < max_iter:
        message = "no residual decrease after 30 halvings"
    else:
        message = f"max_iter={max_iter} exceeded (best residual norm {norm:.3e})"
    return ("NonConvergenceError", message, tuple(np.sort(theta)), norm, it)


HALF_PI = math.pi / 2
# one ulp of room at each bound of the box
ULP_ABOVE_ZERO = np.nextafter(0.0, 1.0)
ULP_BELOW_HALF_PI = np.nextafter(HALF_PI, 0.0)


def _first_inside_halvings(theta, step):
    """Every one of the 31 scales 1, 1/2, ..., 2^-30 tried: the halvings of
    the first whose candidate is inside (0, pi/2), or None."""
    first = None
    scale = 1.0
    for j in range(31):
        cand = theta + scale * step
        inside = bool(np.all(cand > 0.0) and np.all(cand < HALF_PI))
        # once inside, every smaller scale is inside too
        assert inside or first is None
        if first is None and inside:
            first = j
        scale *= 0.5
    return first


def _lattice_seeds(k, step_deg=5.0):
    values = np.radians(np.arange(1, int(math.ceil(90.0 / step_deg))) * step_deg)
    return list(combinations(values, k))


@functools.cache
def _reference_outcomes(orders):
    arr = np.asarray(orders, dtype=float)
    return [_outcome(_reference_newton, np.array(seed), arr)
            for seed in _lattice_seeds(len(orders))]


@functools.cache
def _seed_loop_branches(orders):
    """The batch kernel over the whole 5 deg lattice, then the seed-by-seed
    dedup loop: a valid root, off the bounds, the first found kept."""
    dedup = 0.01 * DEG
    seeds = np.array(_lattice_seeds(len(orders)))
    theta, norm, status, iters = she_solver._newton_batch(seeds, np.asarray(orders, dtype=float))
    found = []
    for i in np.flatnonzero(status == she_solver.CONVERGED):
        try:
            angles = AngleSet(tuple(np.sort(theta[i])))
        except ValidationError:
            continue
        root = angles.as_array()
        if root[0] < dedup or root[-1] > math.pi / 2 - dedup:
            continue
        if any(np.max(np.abs(root - np.array(f[0]))) < dedup for f in found):
            continue
        found.append((angles.angles, float(norm[i]), int(iters[i])))
    found.sort(key=lambda f: f[0][0])
    return found


class TestTargetSet:
    def test_rejects_even_order(self):
        with pytest.raises(ValidationError, match="orders"):
            HarmonicTargetSet((3, 4))

    def test_rejects_no_orders(self):
        with pytest.raises(
            ValidationError, match="^orders: at least one harmonic order required$"
        ):
            HarmonicTargetSet(())

    def test_rejects_fundamental(self):
        with pytest.raises(ValidationError, match="orders"):
            HarmonicTargetSet((1, 3))

    def test_rejects_a_fractional_order(self):
        # int() would read 3.9 as the order 3
        with pytest.raises(ValidationError, match=r"orders\[0\]"):
            HarmonicTargetSet((3.9, 5, 7))
        with pytest.raises(ValidationError, match=r"orders\[2\]"):
            HarmonicTargetSet((3, 5, 7.5))
        assert HarmonicTargetSet((3.0, 5, 7)).orders == (3, 5, 7)

    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError, match="orders"):
            HarmonicTargetSet((5, 3))
        with pytest.raises(ValidationError, match="orders"):
            HarmonicTargetSet((3, 3))


class TestResidual:
    def test_printed_three_level_angles(self, targets_3):
        res = residual(AngleSet.from_degrees([11, 41, 85]), targets_3)
        # direct trigonometric evaluation; the printed angles are rounded
        np.testing.assert_allclose(
            res, [0.03521249, 0.08988691, -0.05625368], atol=1e-8
        )

    def test_printed_four_level_angles(self, targets_4):
        res = residual(AngleSet.from_degrees([9, 26, 50, 86]), targets_4)
        np.testing.assert_allclose(
            res, [0.02498112, 0.06431917, -0.03006414, 0.15643447], atol=1e-8
        )

    def test_single_angle_zero(self):
        res = residual(AngleSet.from_degrees([30.0]), HarmonicTargetSet((3,)))
        assert res[0] == pytest.approx(0.0, abs=1e-15)

    def test_dimension_mismatch(self, targets_4):
        with pytest.raises(DimensionMismatchError):
            residual(AngleSet.from_degrees([11, 41, 85]), targets_4)

    def test_printed_angles_are_rounded_not_exact(self, targets_3, targets_4):
        # guards against hard-coding the printed angles as exact roots
        r3 = residual(AngleSet.from_degrees([11, 41, 85]), targets_3)
        r4 = residual(AngleSet.from_degrees([9, 26, 50, 86]), targets_4)
        assert 0.01 <= np.max(np.abs(r3)) <= 0.2
        assert 0.01 <= np.max(np.abs(r4)) <= 0.2


class TestJacobian:
    def test_single_angle_entry(self):
        for n in (3, 5, 7):
            j = jacobian(AngleSet((0.5 * math.pi / n,)), HarmonicTargetSet((n,)))
            assert j[0, 0] == pytest.approx(-n, rel=1e-12)

    def test_first_row_at_printed_angles(self, targets_3):
        j = jacobian(AngleSet.from_degrees([11, 41, 85]), targets_3)
        np.testing.assert_allclose(
            j[0], [-1.63391711, -2.51601170, 2.89777748], atol=1e-7
        )

    def test_dimension_mismatch(self, targets_3):
        with pytest.raises(DimensionMismatchError):
            jacobian(AngleSet.from_degrees([11, 41]), targets_3)

    def test_matches_finite_differences_at_random_points(self, targets_4):
        rng = np.random.default_rng(42)
        step = 1e-7
        for _ in range(100):
            degs = np.sort(rng.uniform(1.0, 89.0, size=4))
            while np.min(np.diff(degs)) < 0.1:
                degs = np.sort(rng.uniform(1.0, 89.0, size=4))
            aset = AngleSet.from_degrees(degs)
            jac = jacobian(aset, targets_4)
            theta = aset.as_array()
            fd = np.empty_like(jac)
            for i in range(4):
                hi, lo = theta.copy(), theta.copy()
                hi[i] += step
                lo[i] -= step
                fd[:, i] = (
                    np.cos(targets_4.as_array()[:, None] * hi[None, :]).sum(axis=1)
                    - np.cos(targets_4.as_array()[:, None] * lo[None, :]).sum(axis=1)
                ) / (2 * step)
            assert np.max(np.abs(jac - fd)) / np.max(np.abs(jac)) < 1e-6


class TestNewton:
    def test_three_level_convergence(self, solution_3):
        assert solution_3.residual_norm < 1e-12
        np.testing.assert_allclose(
            solution_3.angle_set.to_degrees(),
            [11.991979, 41.927883, 85.674771],
            atol=1e-4,
        )

    def test_fixed_point_converges_immediately(self, solution_3, targets_3):
        again = solve_newton(solution_3.angle_set, targets_3)
        assert again.iterations <= 1
        np.testing.assert_allclose(
            again.angle_set.as_array(), solution_3.angle_set.as_array(), atol=1e-12
        )

    def test_four_level_fundamental_sum(self, solution_4):
        # the root must yield the documented fundamental at 375 V steps
        cos_sum = np.cos(solution_4.angle_set.as_array()).sum()
        assert cos_sum == pytest.approx(2.5758, abs=2e-4)
        assert fundamental_rms(solution_4.angle_set, 375.0) == pytest.approx(
            869.7, abs=1.5
        )

    def test_non_convergence_carries_best_iterate(self, targets_3, monkeypatch):
        init = AngleSet.from_degrees([11, 41, 85])
        monkeypatch.setattr(she_solver, "MAX_ITER", 1)
        with pytest.raises(NonConvergenceError, match="^max_iter=1 exceeded") as info:
            solve_newton(init, targets_3)
        err = info.value
        assert err.iterations == 1
        assert err.best_angles is not None
        assert err.residual_norm < np.max(
            np.abs(residual(init, targets_3))
        )  # one damped step already improved

    @pytest.mark.parametrize("orders", [(3, 5, 7), (5, 7, 11)])
    def test_every_lattice_seed_matches_the_scalar_reference(self, orders):
        # same exception and message, or the same root, norm and iteration
        # count, bit for bit, for each of the 680 seeds of the 5 deg lattice
        targets = HarmonicTargetSet(orders)
        got = [_outcome(solve_newton, AngleSet(seed), targets)
               for seed in _lattice_seeds(len(orders))]
        want = _reference_outcomes(orders)
        assert [o[0] for o in got].count("ok") > 0
        assert got == want

    @pytest.mark.parametrize(
        "theta, tol, kind",
        [
            # condition number near 1e13, above the 1e12 limit
            ((0.3, 0.3 + 1e-13, 1.0), 1e-12, "SingularMatrixError"),
            # near 1e11: solved, then no damped step stays inside
            ((0.3, 0.3 + 1e-11, 1.0), 1e-12, "DivergenceError"),
            # a root with tol out of reach: equal norms are no decrease
            ((0.20929952, 0.73177961, 1.49530684), 1e-300, "NonConvergenceError"),
        ],
    )
    def test_guards_match_the_scalar_reference(self, targets_3, theta, tol, kind, monkeypatch):
        monkeypatch.setattr(she_solver, "TOL", tol)
        got = _outcome(solve_newton, AngleSet(theta), targets_3)
        assert got[0] == kind
        assert got == _outcome(_reference_newton, np.array(theta), targets_3.as_array(), tol)

    @pytest.mark.parametrize("gap", np.logspace(-14, -9, 20))
    def test_condition_guard_across_the_limit(self, targets_3, gap):
        # an angle pair gap apart puts the condition number near 1e-2 / gap,
        # so the sweep crosses the 1e12 limit; every outcome is the reference's
        theta = (0.3, 0.3 + gap, 1.0)
        got = _outcome(solve_newton, AngleSet(theta), targets_3)
        assert got == _outcome(_reference_newton, np.array(theta), targets_3.as_array())

    @pytest.mark.parametrize("orders", [(3, 9), (3, 5, 7), (5, 7, 11, 13)])
    def test_singular_at_the_first_step_is_cond_2_above_the_limit(self, orders, monkeypatch):
        # one angle pair 1e-17 to 1e-6 apart sweeps cond_2 across 1e12; the
        # kernel screens cond_2 without an SVD and must retire exactly the
        # seeds whose cond_2 of -n sin(n theta) is above 1e12
        rng = np.random.default_rng(len(orders))
        arr = np.asarray(orders, dtype=float)
        theta = rng.uniform(0.05, 1.5, (2000, len(orders)))
        theta[:, 1] = theta[:, 0] + np.logspace(-17, -6, len(theta))
        jac = -arr[:, None] * np.sin(arr[:, None] * theta[:, None, :])
        want = np.linalg.cond(jac) > 1e12
        monkeypatch.setattr(she_solver, "MAX_ITER", 1)
        _, _, status, iters = she_solver._newton_batch(theta, arr)
        assert 0 < np.count_nonzero(want) < len(want)
        assert np.array_equal((status == she_solver.SINGULAR) & (iters == 0), want)

    @pytest.mark.parametrize(
        "angle, direction",
        [
            (1.0, 1.0),  # pi/2 - 1 is exact (Sterbenz)
            (0.3, 1.0),  # pi/2 - 0.3 is rounded
            (ULP_BELOW_HALF_PI, 1.0),
            (1.0, -1.0),
            (0.3, -1.0),
            (1e-3, -1.0),
            (ULP_ABOVE_ZERO, -1.0),
        ],
    )
    def test_box_jump_never_passes_the_first_inside_scale(self, angle, direction):
        # |step| / room is 2^e exactly or one ulp either side, beside a zero
        # and a small negative component; the jump bound must not pass the
        # first scale a scan of all 31 finds inside
        room = HALF_PI - angle if direction > 0 else angle
        for e in (-2, 0, 1, 2, 5, 20, 29, 30, 31, 40, 60):
            exact = direction * math.ldexp(room, e)
            for lead in (exact, np.nextafter(exact, 0.0),
                         np.nextafter(exact, direction * math.inf)):
                for theta, step in (
                    ([angle, 0.7, 0.2], [lead, 0.0, -1e-3]),
                    ([0.2, angle, 0.7], [-1e-3, lead, -0.35]),
                ):
                    theta, step = np.array(theta), np.array(step)
                    bound = int(she_solver._halvings_to_box(theta[None], step[None])[0])
                    first = _first_inside_halvings(theta, step)
                    if first is not None:
                        assert bound <= first, (e, lead)
                    if lead == exact and 1 <= e <= 28:
                        # the candidate at 2^-e lands on the bound, outside;
                        # with one ulp of room, so may a half-ulp move
                        assert bound == e and first in (e + 1, e + 2)

    def test_a_seed_with_no_inside_scale_retires_diverged(self, targets_3):
        # at (0.3, 0.3 + 1e-11, 1.0) the step is about 2e9 rad, so no scale
        # down to 2^-30 stays inside; the jump retires it in the first pass
        # while the lattice seeds batched with it run on
        seeds = np.array([(0.3, 0.3 + 1e-11, 1.0), *_lattice_seeds(3)[::97]])
        theta, step = seeds[:1], np.array([[-2.15e9, 2.15e9, -1.8e-2]])
        assert she_solver._halvings_to_box(theta, step)[0] > 30
        orders = targets_3.as_array()
        got = she_solver._newton_batch(seeds, orders)
        assert (got[2][0], got[3][0]) == (she_solver.DIVERGED, 0)
        want = [_outcome(_reference_newton, seed, orders) for seed in seeds]
        assert [_row_outcome(*row) for row in zip(*got)] == want

    def test_takes_no_residual_of_zero_rows(self, targets_3, monkeypatch):
        # a damping pass in which every pending candidate left the box has
        # nothing to evaluate; the lone far-out seed retires in such a pass,
        # and the lattice has about 100 of them
        rows = []
        residual = she_solver._residual_raw

        def counted(theta, orders):
            rows.append(len(theta))
            return residual(theta, orders)

        monkeypatch.setattr(she_solver, "_residual_raw", counted)
        orders = targets_3.as_array()
        got = she_solver._newton_batch(np.array([(0.3, 0.3 + 1e-11, 1.0)]), orders)
        assert (got[2][0], got[3][0]) == (she_solver.DIVERGED, 0)
        she_solver._newton_batch(np.array(_lattice_seeds(3)), orders)
        assert len(rows) > 2 and min(rows) > 0

    def test_builds_no_jacobian_of_zero_rows(self, targets_3, monkeypatch):
        # the kernel stops once the last seed has converged; a seed that
        # converges at step 4 and one still running at max_iter = 5 give the
        # scalar reference's outcomes, alone or batched, bit for bit
        rows = []
        jacobian = she_solver._jacobian_raw

        def counted(theta, orders):
            rows.append(len(theta))
            return jacobian(theta, orders)

        monkeypatch.setattr(she_solver, "_jacobian_raw", counted)
        monkeypatch.setattr(she_solver, "MAX_ITER", 5)
        orders = targets_3.as_array()
        converging, running = np.radians([10.0, 40.0, 80.0]), np.radians([20.0, 50.0, 70.0])
        alone = [she_solver._newton_batch(seed[None], orders)
                 for seed in (converging, running)]
        assert [(a[2][0], a[3][0]) for a in alone] == [
            (she_solver.CONVERGED, 4), (she_solver.STALLED, 5)]
        assert rows == [1] * (4 + 5)  # four steps, then five: none of zero rows
        batched = she_solver._newton_batch(np.array([converging, running]), orders)
        for i, (seed, one) in enumerate(zip((converging, running), alone)):
            row = tuple(part[i] for part in batched)
            assert [np.asarray(x).tobytes() for x in row] == [x[0].tobytes() for x in one]
            want = _outcome(_reference_newton, seed, orders, 1e-12, 5)
            assert _row_outcome(*row, max_iter=5) == want

    @pytest.mark.parametrize("orders", [(3, 5, 7, 9), (5, 7, 11, 13)])
    def test_four_level_lattice_sample_matches_the_scalar_reference(self, orders):
        # every 10th of the 2,380 seeds of the 5 deg lattice, iterated as one
        # batch, against the scalar loop seed by seed, bit for bit
        seeds = np.array(_lattice_seeds(len(orders))[::10])
        arr = np.asarray(orders, dtype=float)
        got = [_row_outcome(*row) for row in zip(*she_solver._newton_batch(seeds, arr))]
        want = [_outcome(_reference_newton, seed, arr) for seed in seeds]
        assert {o[0] for o in want} >= {"ok", "DivergenceError", "NonConvergenceError"}
        assert got == want


class TestMultistart:
    def test_three_level_contains_reference_branch(self, targets_3, solution_3):
        solutions = solve_multistart(targets_3)
        assert len(solutions) >= 2
        gaps = [
            np.max(np.abs(s.angle_set.as_array() - solution_3.angle_set.as_array()))
            for s in solutions
        ]
        assert min(gaps) < 0.01 * DEG

    def test_single_order_finds_thirty_degrees(self):
        solutions = solve_multistart(HarmonicTargetSet((3,)))
        assert any(
            abs(s.angle_set.to_degrees()[0] - 30.0) < 1e-6 for s in solutions
        )

    def test_four_level_contains_branch_near_printed(self, targets_4, solution_4):
        solutions = solve_multistart(targets_4)
        gaps = [
            np.max(np.abs(s.angle_set.as_array() - solution_4.angle_set.as_array()))
            for s in solutions
        ]
        assert min(gaps) < 0.01 * DEG

    def test_sorted_and_deduplicated(self, targets_3):
        solutions = solve_multistart(targets_3)
        firsts = [s.angle_set.angles[0] for s in solutions]
        assert firsts == sorted(firsts)
        for i, a in enumerate(solutions):
            for b in solutions[i + 1 :]:
                assert (
                    np.max(np.abs(a.angle_set.as_array() - b.angle_set.as_array()))
                    >= 0.01 * DEG
                )

    def test_drops_roots_on_the_interval_bounds(self):
        # (3, 7, 9) has two roots with an angle at pi/2 - 5e-14: that layer
        # never switches, so it is not a branch
        solutions = solve_multistart(HarmonicTargetSet((3, 7, 9)))
        assert len(solutions) == 2
        for sol in solutions:
            degs = np.array(sol.angle_set.to_degrees())
            assert np.all(degs >= 0.01)
            assert np.all(degs <= 90.0 - 0.01)

    def test_the_bound_band_is_a_minimum_pulse_width(self, monkeypatch):
        # the 0.01 degree band is 0.01 / 360 of the period, 0.33 ns at 85 kHz.
        # The root of (7, 11, 13, 17, 19, 23) with its top angle at 89.9986
        # degrees (residual 4e-15) switches its top layer on for 0.0027
        # degrees of each half cycle, 89 ps, so it is dropped; at 89.985
        # degrees the pulse is 0.03 degrees, 0.98 ns, and the root is kept
        low = [20.511, 33.585, 47.284, 55.771, 67.300]
        roots = np.radians([low + [89.9986], low + [89.985]])

        def two_converged_roots(seeds, orders):
            return roots, np.full(2, 4e-15), np.full(2, she_solver.CONVERGED), np.full(2, 9)

        monkeypatch.setattr(she_solver, "_newton_batch", two_converged_roots)
        solutions = solve_multistart(HarmonicTargetSet((7, 11, 13, 17, 19, 23)))
        assert [s.angle_set.angles for s in solutions] == [tuple(roots[1])]

    @pytest.mark.parametrize("orders", [(3, 5, 7), (5, 7, 11)])
    def test_equals_the_reference_loop(self, orders):
        # the seed-by-seed loop over the scalar reference, first found kept
        dedup = 0.01 * DEG
        found = []
        for out in _reference_outcomes(orders):
            if out[0] != "ok":
                continue
            root = np.array(out[1])
            if np.any(np.diff(root) <= 0):
                continue
            if root[0] < dedup or root[-1] > math.pi / 2 - dedup:
                continue
            if any(np.max(np.abs(root - np.array(f[0]))) < dedup for f in found):
                continue
            found.append(out[1:])
        found.sort(key=lambda f: f[0][0])
        got = solve_multistart(HarmonicTargetSet(orders))
        assert [(s.angle_set.angles, s.residual_norm, s.iterations) for s in got] == found

    @pytest.mark.parametrize("orders", [(3, 5, 7, 9), (5, 7, 11, 13)])
    def test_equals_the_seed_loop_on_four_level_targets(self, orders):
        got = solve_multistart(HarmonicTargetSet(orders))
        want = _seed_loop_branches(orders)
        assert len(want) >= 2
        assert [(s.angle_set.angles, s.residual_norm, s.iterations) for s in got] == want

    @pytest.mark.parametrize(
        "orders, counts",
        [
            ((3, 5, 7, 9), "2380 seeds, 1034 converged, 1147 diverged, 181 stalled, "
                           "18 singular, 0 invalid"),
            ((3, 5, 7), "680 seeds, 450 converged, 200 diverged, 26 stalled, "
                        "4 singular, 0 invalid"),
        ],
        ids=["4-level", "3-level"],
    )
    def test_logs_seed_outcomes(self, caplog, orders, counts):
        with caplog.at_level(logging.DEBUG, logger="shewpt.she_solver"):
            solve_multistart(HarmonicTargetSet(orders))
        records = [r for r in caplog.records if r.name == "shewpt.she_solver"]
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        assert counts in records[0].getMessage()

    def test_logs_roots_dropped_on_the_bounds(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="shewpt.she_solver"):
            solve_multistart(HarmonicTargetSet((3, 7, 9)))
        assert "141 on the bounds, 2 branches" in caplog.records[-1].getMessage()

    def test_silent_by_default(self, capsys):
        solve_multistart(HarmonicTargetSet((3, 5)))
        assert capsys.readouterr() == ("", "")

    def test_seventeen_orders_iterate_the_one_seed(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="shewpt.she_solver"):
            solve_multistart(HarmonicTargetSet(tuple(range(3, 37, 2))))
        assert "at 5 deg: 1 seeds," in caplog.records[-1].getMessage()

    def test_eliminated_harmonics_of_every_branch(self, targets_3):
        for sol in solve_multistart(targets_3):
            b1 = harmonic_amplitude(sol.angle_set, 500.0, 1)
            for n in targets_3.orders:
                assert abs(harmonic_amplitude(sol.angle_set, 500.0, n)) < 1e-9 * b1


def _exhaustive_oracle(orders, step_deg):
    """Every ascending lattice tuple scored; the min of (score, index tuple)."""
    theta = np.radians(np.arange(1, int(math.ceil(90.0 / step_deg))) * step_deg)
    tuples = np.array(list(combinations(range(len(theta)), len(orders))))
    cos_tab = np.cos(np.asarray(orders, dtype=float)[:, None] * theta[None, :])
    scores = (cos_tab[:, tuples].sum(axis=2) ** 2).sum(axis=0)
    best = min(zip(scores.tolist(), map(tuple, tuples.tolist())))
    return tuple(theta[list(best[1])])


PARENT_ORACLE_BLOCK = 1 << 16


def _blocked_oracle(orders, step_deg):
    """The elementwise blocked scorer the matrix-product oracle replaced:
    meet in the middle, each block's scores summed order by order, its
    row-major argmin kept, then the min of (score, index tuple)."""
    theta = np.radians(np.arange(1, int(math.ceil(90.0 / step_deg))) * step_deg)
    m, k = len(theta), len(orders)
    cos_tab = np.cos(np.asarray(orders, dtype=float)[:, None] * theta[None, :])
    p, s = k // 2, k - k // 2
    suffix_combos = np.array(list(combinations(range(m), s)), dtype=np.intp)
    suffix_sums = cos_tab[:, suffix_combos].sum(axis=2)
    offsets = np.searchsorted(suffix_combos[:, 0], np.arange(m + 1))
    prefix_combos = np.array(list(combinations(range(m), p)), dtype=np.intp)
    prefix_combos = prefix_combos[np.argsort(prefix_combos[:, -1], kind="stable")]
    prefix_sums = cos_tab[:, prefix_combos].sum(axis=2)
    groups = np.searchsorted(prefix_combos[:, -1], np.arange(m + 1))
    best = (math.inf, ())
    for last in range(p - 1, m - s):
        start = offsets[last + 1]
        suffix = suffix_sums[:, start:]
        rows = max(1, PARENT_ORACLE_BLOCK // suffix.shape[1])
        for lo in range(groups[last], groups[last + 1], rows):
            partial = prefix_sums[:, lo : min(lo + rows, groups[last + 1])]
            scores = (partial[0][:, None] + suffix[0]) ** 2
            for order in range(1, k):
                scores += (partial[order][:, None] + suffix[order]) ** 2
            i, j = divmod(int(np.argmin(scores)), scores.shape[1])
            tie_key = tuple(prefix_combos[lo + i]) + tuple(suffix_combos[start + j])
            best = min(best, (float(scores[i, j]), tie_key))
    return tuple(theta[list(best[1])])


def _splits_a_prefix_group(k, step_deg):
    """Whether grid_oracle scores some prefix group in more than one block."""
    m = int(math.ceil(90.0 / step_deg)) - 1
    p, s = k // 2, k - k // 2
    for last in range(p - 1, m - s):
        suffixes = math.comb(m - last - 1, s)
        rows = max(1, she_solver.ORACLE_BLOCK // suffixes)
        if math.comb(last, p - 1) > rows:
            return True
    return False


class TestGridOracle:
    @pytest.mark.parametrize(
        "orders, step",
        [
            ((3,), 1.0),
            ((3, 5), 1.0),
            ((3, 5, 7), 1.0),
            ((3, 5, 7, 9), 3.0),
            ((3, 5, 7, 9, 11), 5.0),
            # three prefix angles: lexicographic prefixes are not sorted by
            # their last index
            ((3, 5, 7, 9, 11, 13), 5.0),
        ],
    )
    def test_equals_the_exhaustive_search(self, orders, step):
        got = grid_oracle(HarmonicTargetSet(orders), step)
        assert got.angles == _exhaustive_oracle(orders, step)

    @pytest.mark.parametrize(
        "orders, step",
        [
            # the four branches sets at 1 degree
            ((3, 5, 7), 1.0),
            ((3, 5, 7, 9), 1.0),
            ((5, 7, 11), 1.0),
            ((5, 7, 11, 13), 1.0),
            ((3, 5), 0.25),
            ((5, 7), 2.0),
            ((3, 5, 7), 0.5),
            ((3, 7, 9), 3.0),
            ((3, 5, 7, 9), 2.5),
            ((3, 5, 7, 9, 11), 3.0),
            ((5, 7, 11, 13, 17), 6.0),
            ((3, 5, 7, 9, 11, 13), 4.0),
            ((5, 7, 11, 13, 17, 19), 7.5),
            # prefix groups split into several row blocks
            ((3, 5, 7, 9), 0.75),
            ((3, 5, 7, 9, 11, 13), 2.0),
        ],
    )
    def test_matches_the_blocked_scorer(self, orders, step):
        got = grid_oracle(HarmonicTargetSet(orders), step)
        assert got.angles == _blocked_oracle(orders, step)

    @pytest.mark.parametrize("k, split, whole", [(4, 0.75, 1.0), (6, 2.0, 4.0)])
    def test_the_split_cases_split(self, k, split, whole):
        assert _splits_a_prefix_group(k, split)
        assert not _splits_a_prefix_group(k, whole)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_product_and_elementwise_scores_differ_by_at_most_half_tau(self, data):
        # sums of p and s cosines: |P_k| <= p, |S_k| <= s
        k = data.draw(st.integers(2, 6))
        p, s = k // 2, k - k // 2
        prefix = data.draw(hnp.arrays(float, (k, 3), elements=st.floats(-p, p)))
        suffix = data.draw(hnp.arrays(float, (k, 4), elements=st.floats(-s, s)))
        # grid_oracle's pass 1: rows [2P; |P|^2; 1] times columns [S; 1; |S|^2]
        norms = (prefix**2).sum(axis=0)
        rows = np.column_stack((2 * prefix.T, norms, np.ones_like(norms)))
        norms = (suffix**2).sum(axis=0)
        product = rows @ np.vstack((suffix, np.ones_like(norms), norms))
        exact = (prefix[0][:, None] + suffix[0]) ** 2
        for order in range(1, k):
            exact += (prefix[order][:, None] + suffix[order]) ** 2
        # tau / 2 = 4 gamma_{k+2} k^3
        n_u = (k + 2) * 2.0**-53
        assert np.all(np.abs(product - exact) <= 4 * n_u / (1 - n_u) * k**3)

    def test_single_order(self):
        aset = grid_oracle(HarmonicTargetSet((3,)), 0.1)
        assert aset.to_degrees()[0] == pytest.approx(30.0, abs=1e-9)

    def test_three_level_agrees_with_newton(self, targets_3, solution_3):
        oracle = grid_oracle(targets_3, 0.5)
        gap = np.abs(
            np.array(oracle.to_degrees()) - np.array(solution_3.angle_set.to_degrees())
        )
        assert np.max(gap) <= 0.5

    def test_four_level_agrees_with_a_newton_branch(self, targets_4):
        # the global lattice minimizer may sit on either exact branch; it
        # must agree with the nearest multistart root within the step
        oracle = grid_oracle(targets_4, 1.0)
        branches = solve_multistart(targets_4)
        gaps = [
            np.max(
                np.abs(
                    np.array(oracle.to_degrees())
                    - np.array(s.angle_set.to_degrees())
                )
            )
            for s in branches
        ]
        assert min(gaps) <= 1.0

    def test_rejects_tiny_step(self, targets_3):
        with pytest.raises(ValidationError, match="step_deg"):
            grid_oracle(targets_3, 0.01)

    @pytest.mark.parametrize("orders", [(3,), (3, 5, 7)])
    @pytest.mark.parametrize("step", [math.nan, math.inf, -1.0, 90.0])
    def test_rejects_a_step_that_gives_no_lattice(self, orders, step):
        # each was a bare ValueError or numpy AxisError, not a ValidationError
        with pytest.raises(ValidationError, match="step_deg"):
            grid_oracle(HarmonicTargetSet(orders), step)

    def test_cost_guard(self):
        orders = HarmonicTargetSet((3, 5, 7, 9, 11))
        with pytest.raises(ValidationError, match="lattice"):
            grid_oracle(orders, 0.05)

    def test_runtime_of_reference_system(self, targets_3):
        start = time.perf_counter()
        grid_oracle(targets_3, 0.5)
        assert time.perf_counter() - start < 1.0
