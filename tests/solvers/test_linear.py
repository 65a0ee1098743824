"""Tests for the caching sparse solver."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import SolverError
from repro.solvers.linear import (
    LinearSolver,
    conjugate_gradient,
    estimate_condition_number,
    solve_sparse,
)


def _spd_matrix(n, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n))
    return sp.csc_matrix(raw @ raw.T + n * np.eye(n))


class TestSolveSparse:
    def test_identity(self):
        solution = solve_sparse(sp.identity(4, format="csc"), np.arange(4.0))
        assert np.allclose(solution, np.arange(4.0))

    def test_random_spd(self, rng):
        matrix = _spd_matrix(10)
        x_true = rng.standard_normal(10)
        solution = solve_sparse(matrix, matrix @ x_true)
        assert np.allclose(solution, x_true)


class TestLinearSolverCaching:
    def test_refactorizes_only_on_change(self):
        solver = LinearSolver()
        matrix = _spd_matrix(8)
        rhs = np.ones(8)
        solver.solve(matrix, rhs)
        solver.solve(matrix, 2.0 * rhs)
        assert solver.factorization_count == 1
        assert solver.solve_count == 2

    def test_refactorizes_on_value_change(self):
        solver = LinearSolver()
        matrix = _spd_matrix(8)
        solver.solve(matrix, np.ones(8))
        changed = matrix.copy()
        changed[0, 0] += 1.0
        solver.solve(changed.tocsc(), np.ones(8))
        assert solver.factorization_count == 2

    def test_correct_after_cache_reuse(self, rng):
        solver = LinearSolver()
        matrix = _spd_matrix(12)
        for _ in range(3):
            x_true = rng.standard_normal(12)
            solution = solver.solve(matrix, matrix @ x_true)
            assert np.allclose(solution, x_true)
        assert solver.factorization_count == 1

    def test_invalidate_forces_refactorization(self):
        solver = LinearSolver()
        matrix = _spd_matrix(8)
        solver.solve(matrix, np.ones(8))
        solver.invalidate()
        solver.solve(matrix, np.ones(8))
        assert solver.factorization_count == 2

    def test_exact_change_detection(self):
        """Value swaps that keep sum and abs-sum still refactorize.

        Swapping two off-diagonal values preserves both sums, which a
        sum-based fingerprint would miss; the content fingerprint does
        not.
        """
        solver = LinearSolver()
        matrix = sp.csc_matrix(
            np.array([[4.0, 1.0, 2.0], [1.0, 5.0, 0.5], [2.0, 0.5, 6.0]])
        )
        swapped = sp.csc_matrix(
            np.array([[4.0, 2.0, 1.0], [2.0, 5.0, 0.5], [1.0, 0.5, 6.0]])
        )
        rhs = np.ones(3)
        solver.solve(matrix, rhs)
        solution = solver.solve(swapped, rhs)
        assert np.allclose(swapped @ solution, rhs)
        assert solver.factorization_count == 2

    def test_permuted_diagonal_refactorizes(self):
        """diag(1, 2) then diag(2, 1): same values, different matrix."""
        solver = LinearSolver()
        rhs = np.ones(2)
        first = solver.solve(sp.diags([1.0, 2.0]).tocsc(), rhs)
        second = solver.solve(sp.diags([2.0, 1.0]).tocsc(), rhs)
        np.testing.assert_allclose(first, [1.0, 0.5])
        np.testing.assert_allclose(second, [0.5, 1.0])
        assert solver.factorization_count == 2

    def test_rhs_size_mismatch(self):
        solver = LinearSolver()
        with pytest.raises(SolverError):
            solver.solve(_spd_matrix(4), np.ones(5))


class TestConjugateGradient:
    def test_matches_direct(self, rng):
        matrix = _spd_matrix(20)
        x_true = rng.standard_normal(20)
        rhs = matrix @ x_true
        solution = conjugate_gradient(matrix, rhs, tolerance=1e-12)
        assert np.allclose(solution, x_true, atol=1e-6)


class TestConditionEstimate:
    def test_identity_is_one(self):
        estimate = estimate_condition_number(sp.identity(10, format="csc"))
        assert estimate == pytest.approx(1.0, rel=0.2)

    def test_detects_bad_conditioning(self):
        diagonal = sp.diags([1.0e8, 1.0, 1.0, 1.0e-8]).tocsc()
        estimate = estimate_condition_number(diagonal, probes=30)
        assert estimate > 1.0e12
