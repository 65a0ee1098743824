"""Sparse linear solves with factorization reuse.

The coupled electrothermal loop solves many systems with identical sparsity
and often identical values (e.g. when material nonlinearities have
converged, or in the frozen-materials ablation).  :class:`LinearSolver`
caches the LU factorization and only refactorizes when the matrix values
actually changed.
"""

import numpy as np
import scipy.sparse.linalg as spla

from ..errors import SolverError
from .cache import matrix_fingerprint


def solve_sparse(matrix, rhs):
    """One-shot sparse direct solve with result validation."""
    matrix = matrix.tocsc()
    rhs = np.asarray(rhs, dtype=float)
    try:
        solution = spla.spsolve(matrix, rhs)
    except RuntimeError as exc:
        raise SolverError(f"sparse direct solve failed: {exc}") from exc
    if not np.all(np.isfinite(solution)):
        raise SolverError("sparse direct solve produced non-finite values")
    return solution


class LinearSolver:
    """LU-backed solver that reuses factorizations across calls.

    ``solve(matrix, rhs)`` refactorizes only when the matrix changed since
    the previous call, detected by
    :func:`~repro.solvers.cache.matrix_fingerprint` (structure and
    values).
    """

    def __init__(self):
        self._lu = None
        self._fingerprint = None
        self.factorization_count = 0
        self.solve_count = 0

    def solve(self, matrix, rhs):
        """Solve ``matrix @ x = rhs``, reusing the cached LU if possible."""
        matrix = matrix.tocsc()
        rhs = np.asarray(rhs, dtype=float)
        if rhs.size != matrix.shape[0]:
            raise SolverError(
                f"rhs size {rhs.size} does not match matrix "
                f"{matrix.shape[0]}x{matrix.shape[1]}"
            )
        fingerprint = matrix_fingerprint(matrix)
        if self._lu is None or fingerprint != self._fingerprint:
            try:
                self._lu = spla.splu(matrix)
            except RuntimeError as exc:
                raise SolverError(f"LU factorization failed: {exc}") from exc
            self._fingerprint = fingerprint
            self.factorization_count += 1
        solution = self._lu.solve(rhs)
        self.solve_count += 1
        if not np.all(np.isfinite(solution)):
            raise SolverError("LU solve produced non-finite values")
        return solution

    def invalidate(self):
        """Drop the cached factorization (e.g. after a mesh change)."""
        self._lu = None
        self._fingerprint = None


def conjugate_gradient(matrix, rhs, x0=None, tolerance=1.0e-10, max_iterations=None):
    """CG solve for symmetric positive definite systems.

    Provided for very large meshes where LU memory becomes the bottleneck;
    raises :class:`SolverError` when CG does not converge.
    """
    matrix = matrix.tocsr()
    rhs = np.asarray(rhs, dtype=float)
    if max_iterations is None:
        max_iterations = 10 * matrix.shape[0]
    try:
        solution, info = spla.cg(
            matrix, rhs, x0=x0, rtol=tolerance, maxiter=max_iterations
        )
    except TypeError:
        # SciPy < 1.12 uses `tol` instead of `rtol`.
        solution, info = spla.cg(
            matrix, rhs, x0=x0, tol=tolerance, maxiter=max_iterations
        )
    if info != 0:
        raise SolverError(f"CG failed to converge (info={info})")
    return solution


def estimate_condition_number(matrix, probes=5, seed=0):
    """Rough condition estimate via power iteration on ``A`` and ``A^-1``.

    Diagnostic only -- used by tests to document the ill-conditioning that
    the huge copper/epoxy conductivity contrast produces.
    """
    matrix = matrix.tocsc()
    n = matrix.shape[0]
    rng = np.random.default_rng(seed)
    vector = rng.standard_normal(n)
    vector /= np.linalg.norm(vector)
    for _ in range(probes):
        vector = matrix @ vector
        norm = np.linalg.norm(vector)
        if norm == 0.0:
            return np.inf
        vector /= norm
    largest = norm
    lu = spla.splu(matrix)
    vector = rng.standard_normal(n)
    vector /= np.linalg.norm(vector)
    for _ in range(probes):
        vector = lu.solve(vector)
        norm = np.linalg.norm(vector)
        if norm == 0.0:
            return np.inf
        vector /= norm
    smallest = 1.0 / norm
    return largest / smallest
