"""Array-backend protocol, registry and numpy-reference behavior."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.backends import (
    ArrayBackend,
    get_array_backend,
    register_array_backend,
    registered_array_backends,
)
from repro.backends.registry import ENV_DEFAULT, default_array_backend_name
from repro.errors import SolverError
from repro.solvers.woodbury import WoodburySolver


def _base(n, seed=0):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n)) * 0.1
    matrix = sp.csc_matrix(dense + dense.T + 10.0 * np.eye(n))
    return matrix


def _stamps(n, k):
    u = np.zeros((n, k))
    for j in range(k):
        u[2 * j, j] = 1.0
        u[2 * j + 1, j] = -1.0
    return u


class TestRegistry:
    def test_builtins_registered(self):
        names = registered_array_backends()
        assert {"numpy", "cupy", "devicesim"} <= set(names)
        assert names == sorted(names)

    def test_default_is_numpy(self, monkeypatch):
        # The out-of-the-box default, with no environment override.
        monkeypatch.delenv(ENV_DEFAULT, raising=False)
        backend = get_array_backend(None)
        assert backend.name == "numpy"
        assert get_array_backend() is backend  # process singleton

    def test_instance_passthrough(self):
        backend = get_array_backend("numpy")
        assert get_array_backend(backend) is backend

    def test_unknown_name_lists_registered(self):
        with pytest.raises(SolverError, match="unknown array backend"):
            get_array_backend("tpu")
        with pytest.raises(SolverError, match="numpy"):
            get_array_backend("tpu")

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv(ENV_DEFAULT, "devicesim")
        assert default_array_backend_name() == "devicesim"
        assert get_array_backend(None).name == "devicesim"
        # Explicit selection still wins over the environment.
        assert get_array_backend("numpy").name == "numpy"

    def test_decorator_registration(self):
        @register_array_backend("_test_backend")
        def _factory():
            backend = ArrayBackend()
            backend.name = "_test_backend"
            return backend

        try:
            assert "_test_backend" in registered_array_backends()
            assert get_array_backend("_test_backend").name == "_test_backend"
        finally:
            from repro.backends import registry

            registry._FACTORIES.pop("_test_backend", None)
            registry._INSTANCES.pop("_test_backend", None)


class TestCupyGuard:
    def test_missing_extra_is_a_clear_solver_error(self):
        # The container has no GPU stack; selecting cupy must name the
        # missing [gpu] extra, not die with a raw ImportError.
        try:
            import cupy  # noqa: F401
        except ImportError:
            with pytest.raises(SolverError, match=r"\[gpu\]"):
                get_array_backend("cupy")
            with pytest.raises(SolverError, match="cupy"):
                get_array_backend("cupy")
        else:
            pytest.skip("cupy installed; the guard does not fire")

    def test_registration_never_requires_cupy(self):
        # Listing backends is import-safe without the extra.
        assert "cupy" in registered_array_backends()


class TestNumpyBackendIsTheReferencePath:
    def test_solver_default_backend_bitwise_unchanged(self, monkeypatch):
        # Out of the box the solver runs on numpy: bit for bit the
        # explicitly selected numpy backend, and both right against an
        # independent sparse LU of each stamped system.
        monkeypatch.delenv(ENV_DEFAULT, raising=False)
        rng = np.random.default_rng(7)
        n, k, samples = 30, 3, 9
        base, u = _base(n), _stamps(n, k)
        solver = WoodburySolver(base, u, np.ones(k))
        assert solver.backend.name == "numpy"
        explicit = WoodburySolver(base, u, np.ones(k), backend="numpy")
        g = rng.uniform(0.5, 5.0, (samples, k))
        rhs = rng.standard_normal(n)
        blocked = solver.solve_batch(g, rhs)
        assert np.array_equal(blocked, explicit.solve_batch(g, rhs))
        for s in range(samples):
            stamped = (base + sp.csc_matrix(u @ np.diag(g[s]) @ u.T)).tocsc()
            np.testing.assert_allclose(
                blocked[:, s], sp.linalg.spsolve(stamped, rhs),
                rtol=1e-10, atol=0.0,
            )

    def test_batched_core_solve_matches_per_matrix(self):
        backend = get_array_backend("numpy")
        rng = np.random.default_rng(3)
        cores = rng.standard_normal((5, 4, 4)) + 4.0 * np.eye(4)
        scale = rng.standard_normal((5, 4))
        rhs = rng.standard_normal((5, 4))
        batched = backend.batched_core_solve(cores, scale, rhs)
        shared = backend.batched_core_solve(cores, scale, rhs[:1])
        assert batched.shape == shared.shape == (5, 4, 1)
        for s in range(5):
            assert np.array_equal(
                batched[s, :, 0],
                np.linalg.solve(cores[s], scale[s] * rhs[s]),
            )
            assert np.array_equal(
                shared[s, :, 0],
                np.linalg.solve(cores[s], scale[s] * rhs[0]),
            )

    def test_transfers_are_identity_and_uncounted(self):
        backend = get_array_backend("numpy")
        before = backend.transfer_count
        array = np.arange(3.0)
        assert backend.from_device(backend.to_device(array)) is not None
        assert backend.transfer_count == before
