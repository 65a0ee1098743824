"""Tests for the Sherman-Morrison-Woodbury update solver."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.solvers.woodbury import WoodburySolver


def _base(n, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n))
    return sp.csc_matrix(raw @ raw.T + n * np.eye(n))


def _stamp_vectors(n, k, seed=1):
    """Wire-like +1/-1 incidence columns."""
    rng = np.random.default_rng(seed)
    u = np.zeros((n, k))
    for j in range(k):
        a, b = rng.choice(n, size=2, replace=False)
        u[a, j] = 1.0
        u[b, j] = -1.0
    return u


def _nominal(u):
    """Expansion-point conductances the tests' samples scatter around."""
    return np.ones(u.shape[1])


def _direct(base, u, g, rhs):
    """Independent reference: sparse LU of the stamped matrix."""
    stamped = (base + sp.csc_matrix(u @ np.diag(g) @ u.T)).tocsc()
    return sp.linalg.spsolve(stamped, rhs)


class TestAgainstDirect:
    def test_single_rank_one_update(self, rng):
        n = 10
        base = _base(n)
        u = _stamp_vectors(n, 1)
        solver = WoodburySolver(base, u, _nominal(u))
        g = np.array([3.7])
        rhs = rng.standard_normal(n)
        direct = np.linalg.solve(
            base.toarray() + g[0] * np.outer(u[:, 0], u[:, 0]), rhs
        )
        assert np.allclose(solver.solve(g, rhs), direct)

    def test_twelve_wires(self, rng):
        """The paper's case: 12 rank-1 wire stamps."""
        n = 40
        base = _base(n)
        u = _stamp_vectors(n, 12)
        solver = WoodburySolver(base, u, _nominal(u))
        g = rng.uniform(0.1, 20.0, 12)
        rhs = rng.standard_normal(n)
        full = base.toarray() + u @ np.diag(g) @ u.T
        assert np.allclose(solver.solve(g, rhs), np.linalg.solve(full, rhs))

    def test_zero_conductances_fall_back_to_base(self, rng):
        n = 15
        base = _base(n)
        u = _stamp_vectors(n, 3)
        solver = WoodburySolver(base, u, _nominal(u))
        rhs = rng.standard_normal(n)
        assert np.allclose(
            solver.solve(np.zeros(3), rhs),
            np.linalg.solve(base.toarray(), rhs),
        )

    def test_partial_zeros(self, rng):
        n = 15
        base = _base(n)
        u = _stamp_vectors(n, 3)
        solver = WoodburySolver(base, u, _nominal(u))
        g = np.array([5.0, 0.0, 2.0])
        rhs = rng.standard_normal(n)
        full = base.toarray() + u @ np.diag(g) @ u.T
        assert np.allclose(solver.solve(g, rhs), np.linalg.solve(full, rhs))

    def test_repeated_solves_with_different_g(self, rng):
        """The Monte Carlo pattern: one base, many conductance sets."""
        n = 25
        base = _base(n)
        u = _stamp_vectors(n, 5)
        solver = WoodburySolver(base, u, _nominal(u))
        rhs = rng.standard_normal(n)
        for seed in range(5):
            g = np.random.default_rng(seed).uniform(0.5, 10.0, 5)
            full = base.toarray() + u @ np.diag(g) @ u.T
            assert np.allclose(
                solver.solve(g, rhs), np.linalg.solve(full, rhs)
            )


class TestEdgeCases:
    def test_rank_zero_update(self, rng):
        """k = 0 (no wires) degenerates to the plain base solve."""
        n = 12
        base = _base(n)
        solver = WoodburySolver(base, np.zeros((n, 0)), [])
        assert solver.rank == 0
        rhs = rng.standard_normal(n)
        solution = solver.solve(np.zeros(0), rhs)
        assert np.allclose(solution, np.linalg.solve(base.toarray(), rhs))

    def test_rank_zero_rejects_nonempty_conductances(self):
        solver = WoodburySolver(_base(6), np.zeros((6, 0)), [])
        with pytest.raises(SolverError):
            solver.solve([1.0], np.ones(6))

    def test_all_zero_conductances_match_direct_sparse(self, rng):
        n = 18
        base = _base(n)
        u = _stamp_vectors(n, 4)
        solver = WoodburySolver(base, u, _nominal(u))
        rhs = rng.standard_normal(n)
        direct = sp.linalg.spsolve(base.tocsc(), rhs)
        assert np.allclose(solver.solve(np.zeros(4), rhs), direct,
                           rtol=0, atol=1e-10)

    def test_negative_conductance_rejected_even_with_zeros(self):
        solver = WoodburySolver(_base(8), _stamp_vectors(8, 3), np.ones(3))
        with pytest.raises(SolverError):
            solver.solve([0.0, -1.0e-12, 2.0], np.ones(8))

    def test_agreement_with_direct_sparse_solve(self, rng):
        """Woodbury vs a fresh sparse LU of the stamped matrix, 1e-10."""
        n = 30
        base = _base(n)
        u = _stamp_vectors(n, 6)
        solver = WoodburySolver(base, u, _nominal(u))
        g = rng.uniform(0.1, 50.0, 6)
        rhs = rng.standard_normal(n)
        stamped = (base + sp.csc_matrix(u @ np.diag(g) @ u.T)).tocsc()
        direct = sp.linalg.spsolve(stamped, rhs)
        assert np.allclose(solver.solve(g, rhs), direct, rtol=0, atol=1e-10)

    def test_extreme_conductance_contrast(self, rng):
        """Orders-of-magnitude spread in g (hot vs cold wires) stays exact."""
        n = 20
        base = _base(n)
        u = _stamp_vectors(n, 3)
        solver = WoodburySolver(base, u, _nominal(u))
        g = np.array([1.0e-8, 1.0, 1.0e6])
        rhs = rng.standard_normal(n)
        full = base.toarray() + u @ np.diag(g) @ u.T
        assert np.allclose(solver.solve(g, rhs), np.linalg.solve(full, rhs),
                           rtol=0, atol=1e-8)


class TestNominalExpansion:
    def test_nominal_is_required(self):
        with pytest.raises(TypeError):
            WoodburySolver(_base(6), _stamp_vectors(6, 2))

    def test_nominal_count_checked(self):
        with pytest.raises(SolverError, match="nominal"):
            WoodburySolver(_base(6), _stamp_vectors(6, 2), np.ones(3))

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_nominal_must_be_finite_non_negative(self, bad):
        with pytest.raises(SolverError, match="finite and non-negative"):
            WoodburySolver(_base(6), _stamp_vectors(6, 2), [1.0, bad])

    def test_expansion_point_solves_the_nominal_operator(self, rng):
        """At g = g0 the update vanishes: the answer is the nominal LU's."""
        n = 16
        base, u = _base(n), _stamp_vectors(n, 3)
        g0 = np.array([0.5, 2.0, 7.0])
        solver = WoodburySolver(base, u, g0)
        rhs = rng.standard_normal(n)
        assert np.array_equal(solver.solve(g0, rhs),
                              solver._handle.lu.solve(rhs))

    def test_node_reached_only_through_stamps(self, rng):
        """An internal wire node: no base coupling, so A_base is singular;
        the nominal stamps connect it and every sample stays exact."""
        n = 12
        dense = _base(n).toarray()
        dense[n - 1, :] = 0.0
        dense[:, n - 1] = 0.0
        base = sp.csc_matrix(dense)
        u = np.zeros((n, 2))
        u[[0, n - 1], 0] = [1.0, -1.0]
        u[[n - 1, 3], 1] = [1.0, -1.0]
        solver = WoodburySolver(base, u, [4.0, 4.0])
        rhs = rng.standard_normal(n)
        for g in ([3.1, 5.2], [4.0, 0.5]):
            np.testing.assert_allclose(
                solver.solve(g, rhs), _direct(base, u, np.array(g), rhs),
                rtol=1e-10, atol=0.0,
            )


class TestDate16WireDrops:
    def test_wire_drops_match_direct_lu(self):
        """Wire voltage drops U^T x, which set every wire's Joule power,
        on the paper's coarse electrical system (n = 5360, 12 wires)
        against a direct LU of the stamped matrix with one refinement
        step: 16 sampled elongations at three wire temperatures."""
        import scipy.sparse.linalg as spla

        from repro.coupled.electrical import embed_grid_matrix
        from repro.coupled.electrothermal import CoupledSolver
        from repro.package3d.chip_example import (
            Date16Parameters,
            build_date16_problem,
            wire_lengths_from_deltas,
        )

        problem, mesh = build_date16_problem(resolution="coarse")
        solver = CoupledSolver(problem, mode="fast")
        woodbury = solver._fast_el
        u = woodbury.update_vectors
        sigma, _, _ = solver._field_diagonals(
            np.full(solver.n_grid, problem.t_initial)
        )
        field = embed_grid_matrix(
            solver.discretization.stiffness_from_diagonal(sigma),
            solver.total_size,
        )
        parameters = Date16Parameters()
        rng = np.random.default_rng(16)
        for temperature in (300.0, 340.0, 400.0):
            deltas = np.clip(rng.normal(parameters.elongation_mean,
                                        parameters.elongation_std,
                                        (16, 12)), 0.0, 0.9)
            g_block = []
            for row in deltas:
                solver.set_wire_lengths(
                    wire_lengths_from_deltas(row, mesh.layout)
                )
                g_block.append(solver.topology.segment_electrical_conductances(
                    np.full(solver.total_size, temperature)
                ))
            g_block = np.array(g_block)
            drops = u.T @ woodbury.solve_batch(g_block, solver._fast_el_rhs)
            for s, g in enumerate(g_block):
                matrix, rhs = solver._reduce_electrical(
                    field + solver._wire_stamp_matrix(g)
                )
                lu = spla.splu(matrix)
                reference = lu.solve(rhs)
                reference += lu.solve(rhs - matrix @ reference)
                np.testing.assert_allclose(
                    drops[:, s], u.T @ reference, rtol=1e-10, atol=0.0
                )


class TestFactorizationCache:
    def test_shared_lu_across_solvers(self, rng):
        from repro.solvers.cache import FactorizationCache

        cache = FactorizationCache()
        base = _base(10)
        u = _stamp_vectors(10, 2)
        first = WoodburySolver(base, u, _nominal(u), cache=cache)
        second = WoodburySolver(base.copy(), u, _nominal(u), cache=cache)
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}
        assert first._handle is second._handle
        g = rng.uniform(0.5, 5.0, 2)
        rhs = rng.standard_normal(10)
        assert np.array_equal(first.solve(g, rhs), second.solve(g, rhs))

    def test_different_matrices_do_not_collide(self):
        from repro.solvers.cache import FactorizationCache

        cache = FactorizationCache()
        u = np.zeros((10, 0))
        WoodburySolver(_base(10, seed=0), u, [], cache=cache)
        WoodburySolver(_base(10, seed=1), u, [], cache=cache)
        assert cache.stats()["entries"] == 2
        assert cache.stats()["hits"] == 0

    def test_fingerprint_does_not_mutate_input(self):
        from repro.solvers.cache import matrix_fingerprint

        base = _base(6).tocsc()
        # Force unsorted indices via a reversed-permutation construction.
        unsorted = sp.csc_matrix(
            (base.data[::-1],
             base.indices[::-1],
             base.indptr.copy()),
            shape=base.shape,
        )
        unsorted.has_sorted_indices = False
        indices_before = unsorted.indices.copy()
        matrix_fingerprint(unsorted)
        assert np.array_equal(unsorted.indices, indices_before)

    def test_lru_eviction(self):
        from repro.solvers.cache import FactorizationCache

        cache = FactorizationCache(max_entries=2)
        matrices = [_base(8, seed=s) for s in range(3)]
        for matrix in matrices:
            cache.factorize(matrix)
        assert len(cache) == 2
        # The oldest entry was evicted -> refactorized on next request.
        cache.factorize(matrices[0])
        assert cache.stats()["misses"] == 4


class TestValidation:
    def test_negative_conductance_rejected(self):
        solver = WoodburySolver(_base(6), _stamp_vectors(6, 2), np.ones(2))
        with pytest.raises(SolverError):
            solver.solve([-1.0, 1.0], np.ones(6))

    def test_wrong_conductance_count(self):
        solver = WoodburySolver(_base(6), _stamp_vectors(6, 2), np.ones(2))
        with pytest.raises(SolverError):
            solver.solve([1.0], np.ones(6))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SolverError):
            WoodburySolver(_base(6), np.zeros((5, 2)), np.ones(2))

    def test_1d_update_rejected(self):
        with pytest.raises(SolverError):
            WoodburySolver(_base(6), np.zeros(6), [])


class TestMultiRhs:
    def test_multi_rhs_matches_per_column(self, rng):
        n = 20
        solver = WoodburySolver(_base(n), _stamp_vectors(n, 4), np.ones(4))
        g = rng.uniform(0.5, 8.0, 4)
        rhs = rng.standard_normal((n, 5))
        block = solver.solve(g, rhs)
        assert block.shape == (n, 5)
        for j in range(5):
            assert np.allclose(block[:, j], solver.solve(g, rhs[:, j]),
                               rtol=0, atol=1e-11)

    def test_vector_rhs_shape_preserved(self, rng):
        n = 12
        solver = WoodburySolver(_base(n), _stamp_vectors(n, 2), np.ones(2))
        solution = solver.solve(rng.uniform(0.5, 2.0, 2),
                                rng.standard_normal(n))
        assert solution.shape == (n,)

    def test_rejects_3d_rhs(self):
        solver = WoodburySolver(_base(6), _stamp_vectors(6, 2), np.ones(2))
        with pytest.raises(SolverError, match="1D .* or 2D"):
            solver.solve([1.0, 1.0], np.ones((6, 2, 2)))

    def test_rejects_wrong_row_count(self):
        solver = WoodburySolver(_base(6), _stamp_vectors(6, 2), np.ones(2))
        with pytest.raises(SolverError, match="unknowns"):
            solver.solve([1.0, 1.0], np.ones(7))
        with pytest.raises(SolverError, match="unknowns"):
            solver.solve([1.0, 1.0], np.ones((5, 3)))


class TestSolveBatch:
    def test_matches_direct_sparse_solve(self, rng):
        """Every column of the batch matches its own stamped system."""
        n = 30
        base, u = _base(n), _stamp_vectors(n, 6)
        solver = WoodburySolver(base, u, _nominal(u))
        g_block = rng.uniform(0.2, 20.0, (7, 6))
        rhs_block = rng.standard_normal((n, 7))
        batch = solver.solve_batch(g_block, rhs_block)
        assert batch.shape == (n, 7)
        for s in range(7):
            np.testing.assert_allclose(
                batch[:, s], _direct(base, u, g_block[s], rhs_block[:, s]),
                rtol=1e-10, atol=0.0,
            )

    def test_shared_rhs_matches_direct_sparse_solve(self, rng):
        """The electrical hot path: one (n,) RHS shared by every sample."""
        n = 25
        base, u = _base(n), _stamp_vectors(n, 5)
        solver = WoodburySolver(base, u, _nominal(u))
        g_block = rng.uniform(0.2, 10.0, (9, 5))
        rhs = rng.standard_normal(n)
        batch = solver.solve_batch(g_block, rhs)
        assert batch.shape == (n, 9)
        for s in range(9):
            np.testing.assert_allclose(
                batch[:, s], _direct(base, u, g_block[s], rhs),
                rtol=1e-10, atol=0.0,
            )

    def test_single_sample_block(self, rng):
        n = 15
        solver = WoodburySolver(_base(n), _stamp_vectors(n, 3), np.ones(3))
        g = rng.uniform(0.5, 5.0, (1, 3))
        rhs = rng.standard_normal((n, 1))
        batch = solver.solve_batch(g, rhs)
        assert np.array_equal(batch[:, 0], solver.solve(g[0], rhs[:, 0]))

    def test_heterogeneous_zero_conductances(self, rng):
        """Samples with dropped stamps need no separate path."""
        n = 20
        base, u = _base(n), _stamp_vectors(n, 4)
        solver = WoodburySolver(base, u, _nominal(u))
        g_block = rng.uniform(0.5, 5.0, (4, 4))
        g_block[1, 2] = 0.0
        g_block[3, :] = 0.0
        rhs_block = rng.standard_normal((n, 4))
        batch = solver.solve_batch(g_block, rhs_block)
        for s in range(4):
            np.testing.assert_allclose(
                batch[:, s], _direct(base, u, g_block[s], rhs_block[:, s]),
                rtol=1e-10, atol=0.0,
            )

    def test_all_zero_conductances_return_base_solves(self, rng):
        n = 14
        solver = WoodburySolver(_base(n), _stamp_vectors(n, 3), np.ones(3))
        rhs_block = rng.standard_normal((n, 3))
        batch = solver.solve_batch(np.zeros((3, 3)), rhs_block)
        for s in range(3):
            assert np.allclose(
                batch[:, s], np.linalg.solve(_base(n).toarray(),
                                             rhs_block[:, s])
            )

    def test_rank_zero_update(self, rng):
        n = 10
        solver = WoodburySolver(_base(n), np.zeros((n, 0)), [])
        rhs_block = rng.standard_normal((n, 4))
        batch = solver.solve_batch(np.zeros((4, 0)), rhs_block)
        assert batch.shape == (n, 4)
        assert np.allclose(batch, np.linalg.solve(_base(n).toarray(),
                                                  rhs_block))

    def test_matches_direct_dense_solves(self, rng):
        n = 22
        base = _base(n)
        u = _stamp_vectors(n, 5)
        solver = WoodburySolver(base, u, _nominal(u))
        g_block = rng.uniform(0.1, 30.0, (6, 5))
        rhs_block = rng.standard_normal((n, 6))
        batch = solver.solve_batch(g_block, rhs_block)
        for s in range(6):
            full = base.toarray() + u @ np.diag(g_block[s]) @ u.T
            assert np.allclose(batch[:, s],
                               np.linalg.solve(full, rhs_block[:, s]),
                               rtol=0, atol=1e-9)

    def test_rejects_1d_conductances(self):
        solver = WoodburySolver(_base(6), _stamp_vectors(6, 2), np.ones(2))
        with pytest.raises(SolverError, match="2D"):
            solver.solve_batch(np.ones(2), np.ones((6, 1)))

    def test_rejects_wrong_rank(self):
        solver = WoodburySolver(_base(6), _stamp_vectors(6, 2), np.ones(2))
        with pytest.raises(SolverError, match="conductances per sample"):
            solver.solve_batch(np.ones((3, 5)), np.ones((6, 3)))

    def test_rejects_negative_conductances(self):
        solver = WoodburySolver(_base(6), _stamp_vectors(6, 2), np.ones(2))
        g = np.ones((3, 2))
        g[2, 0] = -1.0e-9
        with pytest.raises(SolverError, match="non-negative"):
            solver.solve_batch(g, np.ones((6, 3)))

    def test_rejects_sample_count_mismatch(self):
        solver = WoodburySolver(_base(6), _stamp_vectors(6, 2), np.ones(2))
        with pytest.raises(SolverError, match="columns"):
            solver.solve_batch(np.ones((3, 2)), np.ones((6, 4)))

    def test_rejects_single_column_where_shared_vector_meant(self):
        # An (n, 1) column for an S>1 block is the classic shared-RHS
        # mistake; the error must point at the 1D (n,) alternative.
        solver = WoodburySolver(_base(6), _stamp_vectors(6, 2), np.ones(2))
        with pytest.raises(SolverError, match=r"pass a 1D \(n,\) vector"):
            solver.solve_batch(np.ones((3, 2)), np.ones((6, 1)))

    def test_single_column_valid_for_single_sample_block(self, rng):
        # With exactly one sample an (n, 1) rhs IS a legitimate block.
        n = 10
        solver = WoodburySolver(_base(n), _stamp_vectors(n, 2), np.ones(2))
        g = rng.uniform(0.5, 2.0, (1, 2))
        rhs = rng.standard_normal((n, 1))
        solution = solver.solve_batch(g, rhs)
        assert solution.shape == (n, 1)
        assert np.array_equal(solution[:, 0], solver.solve(g[0], rhs[:, 0]))

    def test_counts_blocked_solves(self, rng):
        from repro.telemetry.tracing import capture

        solver = WoodburySolver(_base(8), _stamp_vectors(8, 2), np.ones(2))
        with capture() as collector:
            solver.solve_batch(np.ones((2, 2)), rng.standard_normal((8, 2)))
        counters = collector.registry.as_dict()["counters"]
        assert counters.get("solver.blocked_solves") == 1


@given(
    k=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=20, deadline=None)
def test_property_matches_direct_solve(k, seed):
    rng = np.random.default_rng(seed)
    n = 20
    base = _base(n, seed)
    u = _stamp_vectors(n, k, seed + 1)
    solver = WoodburySolver(base, u, _nominal(u))
    g = rng.uniform(0.0, 10.0, k)
    rhs = rng.standard_normal(n)
    full = base.toarray() + u @ np.diag(g) @ u.T
    assert np.allclose(
        solver.solve(g, rhs), np.linalg.solve(full, rhs), atol=1e-8
    )
