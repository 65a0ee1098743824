"""Sherman-Morrison-Woodbury solver for low-rank matrix updates.

Between Monte Carlo samples only the bonding wire conductances change, and
each wire stamps a rank-1 update ``g_j p_j p_j^T`` into the system matrix
(Section III-B of the paper).  With ``A = A_base + U diag(g) U^T`` the
solver factorizes the *nominal* operator ``A_nom = A_base + U diag(g0)
U^T`` once, at fixed expansion-point conductances ``g0``, and treats each
sample as the update ``dG = diag(g - g0)`` of it.  In the inverse-free
form

``(I + dG C1) c = dG U^T x_b``,  ``x = x_b - A_nom^-1 U c``

with ``C1 = U^T A_nom^-1 U`` and ``x_b = A_nom^-1 b``, every sample costs
one small dense solve instead of a fresh sparse LU.

Why the nominal expansion point: the textbook form expands around the
wire-free ``A_base`` with the core ``diag(1/g) + U^T A_base^-1 U``.  On
the paper's electrical system that core has cond ~ 8e10 (the wire-free
base barely connects the wire end nodes), and the correction cancels
``A_base^-1 b`` to ~1e-5 relative accuracy -- the known instability of
Sherman-Morrison-Woodbury over an ill-conditioned base.  Around ``g0``
the core ``I + dG C1`` has cond ~ 1 for sampled geometries, no ``1/g``
appears (zero conductances drop a stamp exactly through
``dG = -g0``), and the update is accurate to rounding in any summation
order.  This is the fast path benchmarked by ``bench_ablation_woodbury``.
"""

import numpy as np
import scipy.sparse as sp

from ..backends import get_array_backend
from ..errors import SolverError
from ..telemetry import tracing as telemetry


class WoodburySolver:
    """Solver for ``(A_base + U diag(g) U^T) x = b`` with varying ``g``.

    Parameters
    ----------
    base_matrix:
        Sparse base matrix ``A_base`` without the stamps.
    update_vectors:
        Dense ``(n, k)`` matrix ``U`` whose columns are the stamp vectors
        ``p_j`` (entries +1/-1 at the wire end nodes, after Dirichlet
        reduction).
    nominal:
        The ``k`` expansion-point conductances ``g0``: the operator
        ``A_base + U diag(g0) U^T`` is the one factorized, and every
        solve is an update of it.  Part of the operator like
        ``base_matrix`` -- pick the conductances the samples scatter
        around (the coupled solver uses the construction lengths at the
        initial temperature).
    cache:
        Optional :class:`~repro.solvers.cache.FactorizationCache`; when
        given, the nominal LU is looked up / stored there so structurally
        identical solvers built in the same process share one
        factorization (the campaign worker pattern).
    symmetric:
        Factorize in SuperLU's symmetric mode (see
        :func:`~repro.solvers.cache.checked_splu`); only for operators
        known to be symmetric positive definite.
    backend:
        :class:`~repro.backends.ArrayBackend` (or registered name)
        carrying the linear algebra of :meth:`solve_batch`: the
        factorization/backsolve seam and the batched core solve.
        ``None`` resolves the process default (``numpy`` unless
        ``REPRO_ARRAY_BACKEND`` overrides it).
    """

    def __init__(self, base_matrix, update_vectors, nominal, cache=None,
                 symmetric=False, backend=None):
        self.backend = get_array_backend(backend)
        base_matrix = base_matrix.tocsc()
        update_vectors = np.asarray(update_vectors, dtype=float)
        if update_vectors.ndim != 2:
            raise SolverError("update_vectors must be a 2D (n, k) array")
        if update_vectors.shape[0] != base_matrix.shape[0]:
            raise SolverError(
                f"update vectors have {update_vectors.shape[0]} rows, matrix "
                f"is {base_matrix.shape[0]}x{base_matrix.shape[1]}"
            )
        self.rank = update_vectors.shape[1]
        nominal = np.asarray(nominal, dtype=float).ravel()
        if nominal.size != self.rank:
            raise SolverError(
                f"expected {self.rank} nominal conductances, got "
                f"{nominal.size}"
            )
        if not np.all(np.isfinite(nominal)) or np.any(nominal < 0.0):
            raise SolverError(
                "nominal conductances must be finite and non-negative"
            )
        self.update_vectors = update_vectors
        self.nominal = nominal
        stamps = sp.csc_matrix(update_vectors)
        nominal_matrix = (
            base_matrix + stamps @ sp.diags(nominal) @ stamps.T
        ).tocsc()
        if cache is not None:
            self._handle = cache.factorize(
                nominal_matrix, symmetric=symmetric, backend=self.backend
            )
        else:
            self._handle = self.backend.factorize(
                nominal_matrix, symmetric=symmetric
            )
        # A_nom^-1 U in one multi-RHS sweep, and the core C1 = U^T A_nom^-1 U.
        # A rank-0 update (no wires) is a valid degenerate case: every
        # solve is then just the nominal LU solve.
        if self.rank:
            self._nominal_inverse_u = np.asarray(
                self._handle.lu.solve(np.ascontiguousarray(update_vectors))
            )
        else:
            self._nominal_inverse_u = np.zeros((self.size, 0))
        self._core = update_vectors.T @ self._nominal_inverse_u
        # Backend mirrors of U and A_nom^-1 U, uploaded (and transfer-
        # counted) once, on the first solve.
        self._operators = None

    @property
    def size(self):
        """Number of unknowns ``n`` of the base system."""
        return self.update_vectors.shape[0]

    def _check_rhs(self, rhs):
        """Validate an ``(n,)`` or ``(n, m)`` right-hand side."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim not in (1, 2):
            raise SolverError(
                f"rhs must be a 1D (n,) vector or 2D (n, m) multi-RHS "
                f"block, got a {rhs.ndim}D array of shape {rhs.shape}"
            )
        if rhs.shape[0] != self.size:
            raise SolverError(
                f"rhs has {rhs.shape[0]} rows, the system has "
                f"{self.size} unknowns"
            )
        return rhs

    def solve(self, conductances, rhs):
        """Solve for the given per-stamp conductances ``g`` (length k).

        ``rhs`` is either one vector ``(n,)`` or a multi-RHS block
        ``(n, m)`` sharing the same conductances -- the solution has the
        same shape.  The shared-``g`` view of :meth:`solve_batch`.
        """
        conductances = np.asarray(conductances, dtype=float).ravel()
        if conductances.size != self.rank:
            raise SolverError(
                f"expected {self.rank} conductances, got {conductances.size}"
            )
        rhs = self._check_rhs(rhs)
        columns = 1 if rhs.ndim == 1 else rhs.shape[1]
        solution = self.solve_batch(
            np.broadcast_to(conductances, (columns, self.rank)), rhs
        )
        return solution[:, 0] if rhs.ndim == 1 else solution

    def solve_batch(self, conductances, rhs):
        """Sample-blocked solve: ``(S, k)`` conductances in one pass.

        Solves ``(A_base + U diag(g_s) U^T) x_s = b_s`` for every sample
        ``s`` of a block at once, in the backend's memory space: one
        multi-RHS nominal backsolve, the projection ``U^T x_b``, a
        stacked ``(S, k, k)`` core solve and one batched correction
        product ``A_nom^-1 U c_s``.  Zero conductances need no special case
        (``g - g0 = -g0`` removes the nominal stamp); negative ones are
        rejected as non-physical.

        Parameters
        ----------
        conductances:
            ``(S, k)`` block of per-stamp conductances, one row per
            sample.
        rhs:
            Either an ``(n, S)`` block (one column per sample) or a
            single shared ``(n,)`` vector -- the campaign's electrical
            fast path drives every sample with the same reduced RHS, so
            the backsolve collapses to one vector solve.

        Returns
        -------
        ``(n, S)`` solution block, column ``s`` for sample ``s``.  Per
        call a device backend pays three counted transfers (RHS up,
        cores up, solution down) after the one-time operator uploads.
        """
        conductances = np.asarray(conductances, dtype=float)
        if conductances.ndim != 2:
            raise SolverError(
                f"conductances must be a 2D (S, k) block, got shape "
                f"{conductances.shape}"
            )
        num_samples, k = conductances.shape
        if k != self.rank:
            raise SolverError(
                f"expected {self.rank} conductances per sample, got {k}"
            )
        if np.any(conductances < 0.0):
            raise SolverError("wire conductances must be non-negative")
        rhs = self._check_rhs(rhs)
        if rhs.ndim == 1:
            # A shared RHS is one column that broadcasts over the block.
            rhs = rhs[:, None]
        elif rhs.shape[1] != num_samples:
            if rhs.shape[1] == 1:
                # A single column where a shared vector is meant is a
                # classic silent-broadcast hazard; name the fix.
                raise SolverError(
                    f"rhs block has 1 column for {num_samples} samples; "
                    f"pass a 1D (n,) vector to share one right-hand "
                    f"side across the block, or an (n, {num_samples}) "
                    f"block with one column per sample"
                )
            raise SolverError(
                f"rhs block has {rhs.shape[1]} columns for "
                f"{num_samples} samples"
            )
        backend = self.backend
        u, nominal_inverse_u = self._device_operators()
        base = self._handle.backsolve(
            backend.to_device(np.ascontiguousarray(rhs))
        )
        telemetry.increment("solver.blocked_solves")
        delta = conductances - self.nominal
        cores = delta[:, :, None] * self._core
        diag = np.arange(self.rank)
        cores[:, diag, diag] += 1.0
        try:
            coefficients = backend.batched_core_solve(
                cores, delta, (u.T @ base).T
            )
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"Woodbury core solve failed: {exc}") from exc
        # One matrix-vector product per sample, batched in one call:
        # (n, k) @ (S, k, 1) -> (S, n, 1).  A single (n, k) x (k, S)
        # gemm would run multithreaded in OpenBLAS, and its spinning
        # workers slow the next SuperLU backsolve about twofold on a
        # two-core host with default BLAS threading.
        correction = nominal_inverse_u @ coefficients
        solution = backend.from_device(base - correction.T)[0]
        if not np.all(np.isfinite(solution)):
            raise SolverError("Woodbury solve produced non-finite values")
        return solution

    def _device_operators(self):
        """Upload U and A_nom^-1 U to the backend once (counted)."""
        if self._operators is None:
            self._operators = (
                self.backend.to_device(self.update_vectors),
                self.backend.to_device(self._nominal_inverse_u),
            )
        return self._operators
