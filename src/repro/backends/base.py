"""The :class:`ArrayBackend` protocol: the solver stack's linear-algebra
substrate as a declared, swappable dependency.

The Monte Carlo hot path reduces to exactly two numerical seams -- the
sparse nominal factorization behind :class:`~repro.solvers.woodbury.
WoodburySolver` (one multi-RHS backsolve per solve) and the stacked
``(S, k, k)`` batched core solve.  An :class:`ArrayBackend` owns both
seams plus the host/device memory boundary around them, so a device
runtime (CuPy) or a test double (``devicesim``) slots in without the
solver layer knowing which substrate it runs on.

Every backend runs the same algebra in the same order: the Woodbury
update is expanded around the nominal wire conductances, its core has
cond ~ 1, and the correction is accurate to rounding in any summation
order (see DESIGN.md "Array backends").  There is no per-backend numerical
contract to declare; backends differ only in where the arrays live.

Transfers between the host and the device memory space go through
:meth:`~ArrayBackend.to_device` / :meth:`~ArrayBackend.from_device`
*only*.  Each call increments the backend's :attr:`transfer_count` and
the ``solver.device_transfers`` telemetry counter together, so a test
(or an operator reading a campaign's metrics) can prove that zero
transfers happened outside the accounted seams.
"""

from ..telemetry import tracing as telemetry


class FactorizationHandle:
    """A factorized sparse matrix with a device-side solve entry point.

    ``lu`` is the underlying host SuperLU object (the solver precomputes
    its host-side operators with it).  ``backsolve`` takes and returns
    arrays in the backend's memory space and is the multi-RHS seam.
    """

    def __init__(self, lu):
        self.lu = lu

    def backsolve(self, rhs):
        """Multi-RHS solve in the backend's memory space."""
        raise NotImplementedError


class ArrayBackend:
    """Base class for array backends (see the module docstring).

    Concrete backends set :attr:`name` and implement the factorization,
    core-solve and transfer methods.  Device arrays only need ``.T``,
    batched ``@`` and broadcasting ``-`` (the blocked Woodbury
    algebra), so raw ndarrays qualify for CPU backends and
    wrapped/device arrays for the rest.
    """

    #: Registry name (also the cache-key component; see
    #: :meth:`repro.solvers.cache.FactorizationCache.factorize`).
    name = None

    def __init__(self):
        self._transfer_count = 0

    @property
    def transfer_count(self):
        """Lifetime host<->device transfers through this backend."""
        return self._transfer_count

    def _count_transfer(self):
        # The backend-local count and the telemetry counter move in
        # lockstep; comparing them is how tests prove zero unaccounted
        # transfers.
        self._transfer_count += 1
        telemetry.increment("solver.device_transfers")

    # -- memory boundary ------------------------------------------------
    def to_device(self, array):
        """Copy a host ndarray into the backend's memory space."""
        raise NotImplementedError

    def from_device(self, array):
        """Copy a backend array back to a host ndarray."""
        raise NotImplementedError

    # -- the two numerical seams ---------------------------------------
    def factorize(self, base_matrix, symmetric=False):
        """Factorize a sparse matrix into a :class:`FactorizationHandle`.
        Prefer :meth:`repro.solvers.cache.FactorizationCache.factorize`,
        which memoizes per ``(fingerprint, symmetric, backend.name)``."""
        raise NotImplementedError

    def batched_core_solve(self, cores, scale, rhs):
        """Solve ``cores[s] c_s = scale[s] * rhs[s]`` for every sample.

        ``cores`` ``(S, k, k)`` and ``scale`` ``(S, k)`` are host
        ndarrays (assembled on the host either way; a device backend
        uploads them together, as one transfer).  ``rhs`` lives in the
        backend's memory space with shape ``(S, k)`` or ``(1, k)``
        (broadcast over the samples), and so does the result, stacked
        as ``(S, k, 1)`` columns for the batched correction product.
        """
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} name={self.name!r}>"
