import functools
import logging
import math
import time
from itertools import combinations

import numpy as np
import pytest

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


def _lattice_seeds(k, step_deg=5.0):
    values = np.radians(np.arange(1, int(math.ceil(90.0 / step_deg))) * step_deg)
    return list(combinations(values, k))


@functools.cache
def _reference_outcomes(orders):
    arr = np.asarray(orders, dtype=float)
    return [_outcome(_reference_newton, np.array(seed), arr)
            for seed in _lattice_seeds(len(orders))]


class TestTargetSet:
    def test_rejects_even_order(self):
        with pytest.raises(ValidationError, match="orders"):
            HarmonicTargetSet((3, 4))

    def test_rejects_fundamental(self):
        with pytest.raises(ValidationError, match="orders"):
            HarmonicTargetSet((1, 3))

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
        again = solve_newton(solution_3.angle_set, targets_3, tol=1e-12)
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

    def test_rejects_bad_tolerance(self, targets_3):
        with pytest.raises(ValidationError, match="tol"):
            solve_newton(AngleSet.from_degrees([11, 41, 85]), targets_3, tol=0.0)

    def test_non_convergence_carries_best_iterate(self, targets_3):
        init = AngleSet.from_degrees([11, 41, 85])
        with pytest.raises(NonConvergenceError) as info:
            solve_newton(init, targets_3, tol=1e-12, max_iter=1)
        err = info.value
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
    def test_guards_match_the_scalar_reference(self, targets_3, theta, tol, kind):
        got = _outcome(solve_newton, AngleSet(theta), targets_3, tol)
        assert got[0] == kind
        assert got == _outcome(_reference_newton, np.array(theta), targets_3.as_array(), tol)


class TestMultistart:
    def test_three_level_contains_reference_branch(self, targets_3, solution_3):
        solutions = solve_multistart(targets_3, grid_step_deg=5.0)
        assert len(solutions) >= 2
        gaps = [
            np.max(np.abs(s.angle_set.as_array() - solution_3.angle_set.as_array()))
            for s in solutions
        ]
        assert min(gaps) < 0.01 * DEG

    def test_single_order_finds_thirty_degrees(self):
        solutions = solve_multistart(HarmonicTargetSet((3,)), grid_step_deg=5.0)
        assert any(
            abs(s.angle_set.to_degrees()[0] - 30.0) < 1e-6 for s in solutions
        )

    def test_four_level_contains_branch_near_printed(self, targets_4, solution_4):
        solutions = solve_multistart(targets_4, grid_step_deg=5.0)
        gaps = [
            np.max(np.abs(s.angle_set.as_array() - solution_4.angle_set.as_array()))
            for s in solutions
        ]
        assert min(gaps) < 0.01 * DEG

    def test_sorted_and_deduplicated(self, targets_3):
        solutions = solve_multistart(targets_3, grid_step_deg=5.0)
        firsts = [s.angle_set.angles[0] for s in solutions]
        assert firsts == sorted(firsts)
        for i, a in enumerate(solutions):
            for b in solutions[i + 1 :]:
                assert (
                    np.max(np.abs(a.angle_set.as_array() - b.angle_set.as_array()))
                    >= 0.01 * DEG
                )

    def test_rejects_bad_grid(self, targets_3):
        with pytest.raises(ValidationError, match="grid_step_deg"):
            solve_multistart(targets_3, grid_step_deg=20.0)

    def test_drops_roots_on_the_interval_bounds(self):
        # (3, 7, 9) has two roots with an angle at pi/2 - 5e-14: that layer
        # never switches, so it is not a branch
        solutions = solve_multistart(HarmonicTargetSet((3, 7, 9)), grid_step_deg=5.0)
        assert len(solutions) == 2
        for sol in solutions:
            degs = np.array(sol.angle_set.to_degrees())
            assert np.all(degs >= 0.01)
            assert np.all(degs <= 90.0 - 0.01)

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
        got = solve_multistart(HarmonicTargetSet(orders), grid_step_deg=5.0)
        assert [(s.angle_set.angles, s.residual_norm, s.iterations) for s in got] == found

    def test_chunk_boundaries_do_not_change_the_branches(self, monkeypatch):
        targets = HarmonicTargetSet((5, 7, 11))
        whole = solve_multistart(targets, grid_step_deg=5.0)
        monkeypatch.setattr(she_solver, "MULTISTART_CHUNK", 7)
        assert solve_multistart(targets, grid_step_deg=5.0) == whole
        assert len(whole) == 7

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
            solve_multistart(HarmonicTargetSet(orders), grid_step_deg=5.0)
        records = [r for r in caplog.records if r.name == "shewpt.she_solver"]
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        assert counts in records[0].getMessage()

    def test_logs_roots_dropped_on_the_bounds(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="shewpt.she_solver"):
            solve_multistart(HarmonicTargetSet((3, 7, 9)), grid_step_deg=5.0)
        assert "141 on the bounds, 2 branches" in caplog.records[-1].getMessage()

    def test_silent_by_default(self, capsys):
        solve_multistart(HarmonicTargetSet((3, 5)), grid_step_deg=5.0)
        assert capsys.readouterr() == ("", "")

    def test_rejects_bad_tolerance(self, targets_3):
        with pytest.raises(ValidationError, match="tol"):
            solve_multistart(targets_3, tol=0.0)

    def test_cost_guard(self, targets_3, monkeypatch):
        # C(89999, 3), about 1.2e14 seeds: rejected before any seed is iterated
        def no_iteration(*args, **kwargs):
            raise AssertionError("a seed was iterated")

        monkeypatch.setattr(she_solver, "_newton_batch", no_iteration)
        with pytest.raises(ValidationError, match="grid_step_deg.*cost guard"):
            solve_multistart(targets_3, grid_step_deg=0.001)
        with pytest.raises(ValidationError, match="grid_step_deg.*cost guard"):
            solve_multistart(targets_3, grid_step_deg=1e-300)
        # the largest lattice enumerated so far, (3,5,7,9) at 2 degrees, is admitted
        assert math.comb(44, 4) == 135751 <= she_solver.MULTISTART_SEED_LIMIT

    def test_finer_lattice_finds_no_new_branch(self, targets_3):
        # 6,545 seeds at 2.5 deg reach the same two branches as 680 at 5 deg
        coarse = solve_multistart(targets_3, grid_step_deg=5.0)
        fine = solve_multistart(targets_3, grid_step_deg=2.5)
        assert len(coarse) == len(fine) == 2
        for a, b in zip(coarse, fine):
            gap = np.abs(np.array(a.angle_set.to_degrees()) - b.angle_set.to_degrees())
            assert np.max(gap) < 0.01

    def test_eliminated_harmonics_of_every_branch(self, targets_3):
        for sol in solve_multistart(targets_3, grid_step_deg=5.0):
            b1 = harmonic_amplitude(sol.angle_set, 500.0, 1)
            for n in targets_3.orders:
                assert abs(harmonic_amplitude(sol.angle_set, 500.0, n)) < 1e-9 * b1


class TestGridOracle:
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
        branches = solve_multistart(targets_4, grid_step_deg=5.0)
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

    def test_cost_guard(self):
        orders = HarmonicTargetSet((3, 5, 7, 9, 11))
        with pytest.raises(ValidationError, match="lattice"):
            grid_oracle(orders, 0.05)

    def test_runtime_of_reference_system(self, targets_3):
        start = time.perf_counter()
        grid_oracle(targets_3, 0.5)
        assert time.perf_counter() - start < 1.0
