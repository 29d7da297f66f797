import math
import time

import numpy as np
import pytest

from shewpt import (
    AngleSet,
    DimensionMismatchError,
    HarmonicTargetSet,
    NonConvergenceError,
    ValidationError,
    fundamental_rms,
    grid_oracle,
    harmonic_amplitude,
    jacobian,
    residual,
    solve_multistart,
    solve_newton,
)

DEG = math.pi / 180.0


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
        assert solution_3.converged
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
