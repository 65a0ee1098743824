"""The coupled nonlinear transient electrothermal solver.

Implements the paper's scheme: implicit Euler in time, successive
substitution (fixed point) over the two-directional nonlinear coupling in
every step:

1. freeze the temperature iterate ``T*``;
2. assemble ``sigma(T*)``, ``lambda(T*)`` and the wire conductances
   ``G_el(T_bw*)``, ``G_th(T_bw*)``;
3. solve the stationary current problem for ``Phi``;
4. compute the Joule sources (field cells + wire elements);
5. solve the thermal step for the new ``T``;
6. repeat until no node moves by more than the tolerance.

Two execution modes:

* ``mode="full"`` -- everything reassembled from the current iterate
  (the reference scheme);
* ``mode="fast"`` -- field material matrices frozen at the initial
  temperature so both base matrices can be LU-factorized *once*; the only
  matrix changes left are the bonding wire stamps and the internal-node
  heat capacities of segmented wires, handled by Sherman-Morrison-Woodbury
  updates, and the radiation
  nonlinearity, which converges through the fixed point on the right-hand
  side.  This is the Monte Carlo fast path: the wire nonlinearities (the
  dominant electrothermal feedback of this application) are retained
  exactly.
"""

from collections import OrderedDict

import numpy as np
import scipy.sparse as sp

from ..backends import get_array_backend
from ..errors import AssemblyError, ConvergenceError, SolverError
from ..fit.assembly import FITDiscretization
from ..fit.boundary import apply_dirichlet, combine_dirichlet
from ..fit.joule import joule_cell_power_density
from ..fit.material_matrices import conductance_diagonal
from ..solvers.linear import LinearSolver
from ..solvers.newton import fixed_point
from ..solvers.time_integration import TimeGrid
from ..solvers.woodbury import WoodburySolver
from ..telemetry import MetricsRegistry
from ..telemetry import tracing as telemetry
from .electrical import embed_grid_matrix
from .quantities import StationaryResult, TransientResult

_MODES = ("full", "fast")


class CoupledSolver:
    """Transient/stationary solver bound to one problem instance.

    Parameters
    ----------
    problem:
        The :class:`~repro.coupled.problem.ElectrothermalProblem`.
    mode:
        ``"full"`` (reference) or ``"fast"`` (frozen field materials +
        Woodbury wire updates; see module docstring).
    tolerance:
        Fixed-point tolerance on the temperature update [K]; finite, > 0.
    max_iterations:
        Fixed-point iteration budget per time step; >= 1.
    damping:
        Fixed-point relaxation factor in (0, 1].
    factorization_cache:
        Optional :class:`~repro.solvers.cache.FactorizationCache` shared
        across solver instances; fast-mode base LUs are looked up there,
        so rebuilding the solver for the same problem in one process
        (campaign workers, resumed runs) skips the factorization cost.
    max_thermal_solvers:
        Fast-mode bound on the per-``dt`` thermal solver map.  Adaptive
        step doubling alternates between ``dt`` and ``dt/2`` within one
        attempt, so the map must hold at least the handful of distinct
        step sizes in flight (a quantized-dt ladder fits comfortably in
        the default 8); the least recently used solver is evicted first.
    array_backend:
        :class:`~repro.backends.ArrayBackend` (or registered name) the
        fast-mode Woodbury solvers resolve their linear algebra
        through; ``None`` picks the process default (``numpy``).  Every
        fast-mode step -- per sample or blocked -- runs the one
        sample-blocked kernel on this backend; assembly and the
        full-mode path stay on the host regardless.
    """

    def __init__(
        self,
        problem,
        mode="full",
        tolerance=1.0e-6,
        max_iterations=40,
        damping=1.0,
        factorization_cache=None,
        max_thermal_solvers=8,
        array_backend=None,
    ):
        if mode not in _MODES:
            raise SolverError(f"unknown mode {mode!r}; expected one of {_MODES}")
        self.problem = problem
        self.mode = mode
        self.tolerance = float(tolerance)
        self.max_iterations = int(max_iterations)
        self.damping = float(damping)
        if not (np.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise SolverError(
                f"tolerance must be finite and > 0, got {tolerance!r}"
            )
        if self.max_iterations < 1:
            raise SolverError(
                f"max_iterations must be >= 1, got {max_iterations!r}"
            )
        if not 0.0 < self.damping <= 1.0:
            raise SolverError(f"damping must be in (0, 1], got {damping!r}")
        self.factorization_cache = factorization_cache
        self.array_backend = get_array_backend(array_backend)

        self.discretization = FITDiscretization(problem.grid, problem.materials)
        self.topology = problem.topology
        n_grid = problem.grid.num_nodes
        self.n_grid = n_grid
        self.total_size = problem.total_size

        # Heat capacitance over all unknowns (grid + internal wire nodes);
        # full mode and the energy audit read it, set_wire_lengths keeps
        # its internal rows current.  The fast-mode bases take the grid
        # rows only.
        capacitance = np.zeros(self.total_size)
        capacitance[:n_grid] = self.discretization.thermal_capacitance()
        self._grid_capacitance = capacitance.copy()
        capacitance[n_grid:] = self.topology.extra_heat_capacities()
        self.capacitance = capacitance

        # Thermal boundary structures (grid block only).
        dual = self.discretization.dual
        self.conv_diag = np.zeros(self.total_size)
        self.conv_rhs = np.zeros(self.total_size)
        if problem.convection is not None:
            diag, rhs = problem.convection.contributions(dual)
            self.conv_diag[:n_grid] = diag
            self.conv_rhs[:n_grid] = rhs
        self.rad_coeff = np.zeros(self.total_size)
        if problem.radiation is not None:
            self.rad_coeff[:n_grid] = problem.radiation.node_coefficients(dual)
        self.t_ambient_rad = (
            problem.radiation.t_ambient if problem.radiation is not None else 0.0
        )

        # Electrical Dirichlet reduction pattern (constant across solves).
        if not problem.electrical_dirichlet:
            raise AssemblyError(
                "the coupled problem needs electrical Dirichlet (PEC) nodes"
            )
        fixed, fixed_values = combine_dirichlet(
            problem.electrical_dirichlet, self.total_size
        )
        mask = np.ones(self.total_size, dtype=bool)
        mask[fixed] = False
        self.el_fixed = fixed
        self.el_fixed_values = fixed_values
        self.el_free = np.nonzero(mask)[0]

        # Length-invariant wire data of the fast-mode step kernel
        # (segment node indices, material, cross section, segment
        # count); only the lengths vary between samples.
        topology = self.topology
        self._seg_start, self._seg_end, self._seg_wire = (
            topology.segment_node_indices()
        )
        self._wire_materials = [wire.material for wire in topology.wires]
        self._wire_areas = np.array(
            [wire.cross_section_area for wire in topology.wires]
        )
        self._wire_segments = np.array(
            [wire.num_segments for wire in topology.wires], dtype=int
        )
        # Internal wire node i (row n_grid + i) holds the heat capacity
        # c_i * L of one segment of its wire, c_i = rho_c A / n_seg.
        # Linear in the length, so fast mode carries it as one more
        # column of the thermal Woodbury update.
        self._int_wire = np.array([
            wire for wire, chain in enumerate(topology.wire_nodes)
            for _ in chain[1:-1]
        ], dtype=int)
        self._int_capacity = np.array([
            self._wire_materials[wire].volumetric_heat_capacity()
            for wire in self._int_wire
        ]) * self._wire_areas[self._int_wire] / self._wire_segments[
            self._int_wire
        ]
        #: ``(1, W)`` lengths row of the per-sample fast step.
        self._wire_lengths = np.array(
            [[wire.length for wire in topology.wires]]
        )

        self._linear_el = LinearSolver()
        self._linear_th = LinearSolver()
        self.max_thermal_solvers = int(max_thermal_solvers)
        if self.max_thermal_solvers < 1:
            raise SolverError(
                f"max_thermal_solvers must be >= 1, got "
                f"{self.max_thermal_solvers}"
            )
        #: Lifetime cost counters (``thermal_solver_builds``,
        #: ``coupled_steps``); the attribute accessors below are thin
        #: views over this registry, and ``solver_statistics()`` reports
        #: windowed deltas against ``_stats_baseline``.
        self.metrics = MetricsRegistry()
        # The window opens BEFORE fast-mode setup, so the el-base
        # factorization this constructor pays is part of the first
        # window (a shared cache may carry counts from other solvers;
        # those must not leak into this solver's per-run statistics).
        self._stats_baseline = self._lifetime_counters()
        self._fast_th_solvers = OrderedDict()
        if self.mode == "fast":
            self._setup_fast()

    @property
    def thermal_solver_builds(self):
        """Fast-mode per-dt thermal solver constructions so far (one per
        distinct dt not found in the per-dt map; the reuse statistic).
        View over the metrics registry."""
        return int(self.metrics.counter_value("thermal_solver_builds"))

    @property
    def num_steps(self):
        """Coupled implicit Euler steps taken (all modes).  View over
        the metrics registry."""
        return int(self.metrics.counter_value("coupled_steps"))

    # ------------------------------------------------------------------
    # Monte Carlo support
    # ------------------------------------------------------------------
    def set_wire_lengths(self, lengths):
        """Rebind the wire lengths without rebuilding any factorization.

        The wire stamps (and therefore both Woodbury bases, the Dirichlet
        reduction and the FIT operators) are length-independent -- only the
        conductances fed into the solves change.  This makes the per-sample
        cost of a Monte Carlo study a pure solve cost.  Internal wire
        nodes' heat capacities enter fast mode as Woodbury columns too,
        so this holds for multi-segment wires as well; ``capacitance``
        is updated for full mode and the energy audit.
        """
        lengths = np.asarray(lengths, dtype=float).ravel()
        if lengths.size != len(self.topology.wires):
            raise SolverError(
                f"expected {len(self.topology.wires)} wire lengths, got "
                f"{lengths.size}"
            )
        new_wires = [
            wire.with_length(length)
            for wire, length in zip(self.topology.wires, lengths)
        ]
        self.topology.wires = new_wires
        self.problem.wires = new_wires
        self._wire_lengths = np.array([[wire.length for wire in new_wires]])
        self.capacitance[self.n_grid:] = self.topology.extra_heat_capacities()

    # ------------------------------------------------------------------
    # Assembly helpers
    # ------------------------------------------------------------------
    def _field_diagonals(self, grid_temperatures):
        """Per-edge sigma and lambda conductance diagonals at the iterate."""
        cell_t = self.discretization.cell_temperatures(grid_temperatures)
        sigma = self.discretization.materials.sigma_cells(cell_t)
        lam = self.discretization.materials.lambda_cells(cell_t)
        dual = self.discretization.dual
        return (
            conductance_diagonal(dual, sigma),
            conductance_diagonal(dual, lam),
            cell_t,
        )

    def _wire_stamp_matrix(self, conductances):
        """Sparse sum of all segment stamps with the given conductances."""
        from ..bondwire.lumped import stamp_conductance_matrix

        stamps = [stamp for _, stamp in self.topology.flat_segments]
        return stamp_conductance_matrix(self.total_size, stamps, conductances)

    def _reduce_electrical(self, matrix, scale=1.0):
        """Apply the (precomputed) electrical Dirichlet reduction.

        The contact values are scaled by the drive waveform value
        ``scale`` (``1.0`` for the paper's constant drive).
        """
        matrix = matrix.tocsr()
        a_ff = matrix[self.el_free][:, self.el_free]
        a_fc = matrix[self.el_free][:, self.el_fixed]
        rhs = -(a_fc @ (self.el_fixed_values * scale))
        return a_ff.tocsc(), rhs

    def _expand_electrical(self, free_solution, scale):
        full = np.empty(self.total_size)
        full[self.el_free] = free_solution
        full[self.el_fixed] = self.el_fixed_values * scale
        return full

    # ------------------------------------------------------------------
    # Fast-path setup
    # ------------------------------------------------------------------
    def _setup_fast(self):
        problem = self.problem
        if problem.thermal_dirichlet:
            raise SolverError(
                "fast mode does not support thermal Dirichlet conditions; "
                "use mode='full'"
            )
        wire_nodes = set()
        for chain in self.topology.wire_nodes:
            wire_nodes.update(chain)
        if wire_nodes.intersection(self.el_fixed.tolist()):
            raise SolverError(
                "fast mode requires wire contact nodes to be free (not PEC "
                "Dirichlet); use mode='full'"
            )
        freeze = np.full(self.n_grid, problem.t_initial)
        sigma_diag, lambda_diag, cell_t = self._field_diagonals(freeze)
        self._fast_sigma_cells = self.discretization.materials.sigma_cells(cell_t)

        k_el = embed_grid_matrix(
            self.discretization.stiffness_from_diagonal(sigma_diag),
            self.total_size,
        )
        a_el, rhs_el = self._reduce_electrical(k_el)
        u_full = self.topology.segment_incidence_matrix()
        u_el = u_full[self.el_free]
        # Both Woodbury operators are expanded around the wire
        # conductances at the initial temperature and the construction
        # lengths: the samples scatter around them, which keeps every
        # update small and well conditioned, and they connect the
        # internal wire nodes of multi-segment wires.  The thermal
        # update also carries one unit column per internal node for its
        # heat capacity over dt, so every per-dt base is
        # length-independent.  Both bases are symmetric positive
        # definite (FIT stiffness + positive diagonals + stamps,
        # Dirichlet-reduced), so the cheaper symmetric factorization
        # mode applies.
        uniform = np.full(self.total_size, problem.t_initial)
        self._fast_el = WoodburySolver(
            a_el, u_el,
            self.topology.segment_electrical_conductances(uniform),
            cache=self.factorization_cache,
            symmetric=True,
            backend=self.array_backend,
        )
        self._fast_th_nominal = (
            self.topology.segment_thermal_conductances(uniform)
        )
        self._fast_el_rhs = rhs_el
        self._fast_u_th = np.hstack([u_full, np.eye(
            self.total_size, self._int_wire.size, k=-self.n_grid
        )])
        self._fast_int_heat = (
            self._int_capacity * self._wire_lengths[0, self._int_wire]
        )
        self._fast_k_th = embed_grid_matrix(
            self.discretization.stiffness_from_diagonal(lambda_diag),
            self.total_size,
        )

    def _fast_thermal_solver(self, dt):
        """The per-dt thermal Woodbury solver (bounded LRU map).

        Adaptive step doubling alternates ``dt`` and ``dt/2`` inside
        every attempt; a single-slot memo would rebuild (and
        re-fingerprint) the base on each alternation, so the map keeps
        the last ``max_thermal_solvers`` distinct step sizes alive.
        """
        key = float(dt)
        solver = self._fast_th_solvers.get(key)
        if solver is not None:
            self._fast_th_solvers.move_to_end(key)
            return solver
        base = (
            sp.diags(self._grid_capacitance / dt)
            + self._fast_k_th
            + sp.diags(self.conv_diag)
        ).tocsc()
        nominal = np.concatenate(
            [self._fast_th_nominal, self._fast_int_heat / dt]
        )
        solver = WoodburySolver(base, self._fast_u_th, nominal,
                                cache=self.factorization_cache,
                                symmetric=True,
                                backend=self.array_backend)
        self.metrics.increment("thermal_solver_builds")
        telemetry.increment("solver.thermal_builds")
        self._fast_th_solvers[key] = solver
        while len(self._fast_th_solvers) > self.max_thermal_solvers:
            self._fast_th_solvers.popitem(last=False)
        return solver

    def _lifetime_counters(self):
        """Raw lifetime totals of every windowed counter."""
        counters = {
            "coupled_steps": self.num_steps,
            "thermal_solver_builds": self.thermal_solver_builds,
        }
        if self.factorization_cache is not None:
            counters["factorization_cache_hits"] = (
                self.factorization_cache.hits
            )
            counters["factorization_cache_misses"] = (
                self.factorization_cache.misses
            )
        return counters

    def begin_statistics_window(self):
        """Open a fresh per-run statistics window.

        After this call, ``solver_statistics()`` reports only what
        happened since -- including factorization-cache hits/misses,
        even on a cache shared with other solvers.  Returns ``self``
        for chaining.
        """
        self._stats_baseline = self._lifetime_counters()
        return self

    def solver_statistics(self, lifetime=False):
        """Reuse/cost counters for reports and benchmarks.

        ``thermal_solver_builds`` counts fast-mode per-dt solver
        constructions (each pays a base-matrix assembly, a fingerprint
        and -- on a factorization-cache miss -- an ``splu``); with the
        quantized-dt adaptive controller it stays O(#ladder rungs)
        instead of O(#solves).  Factorization-cache hit/miss counters
        are included when a cache is attached.

        All counters report the current statistics window -- the delta
        since construction or the latest
        :meth:`begin_statistics_window` call -- so repeated runs and
        shared caches yield per-run numbers; ``lifetime=True`` is the
        escape hatch for raw process-lifetime totals.  Gauges
        (``thermal_solvers_cached``, ``factorization_cache_entries``)
        are instantaneous either way.
        """
        counters = self._lifetime_counters()
        if not lifetime:
            counters = {
                key: value - self._stats_baseline.get(key, 0)
                for key, value in counters.items()
            }
        stats = {
            "mode": self.mode,
            **counters,
            "thermal_solvers_cached": len(self._fast_th_solvers),
        }
        if self.factorization_cache is not None:
            stats["factorization_cache_entries"] = len(
                self.factorization_cache
            )
        return stats

    # ------------------------------------------------------------------
    # Single-iterate physics evaluation
    # ------------------------------------------------------------------
    def _solve_electrical_full(self, t_star, scale):
        sigma_diag, lambda_diag, cell_t = self._field_diagonals(
            t_star[: self.n_grid]
        )
        k_el = embed_grid_matrix(
            self.discretization.stiffness_from_diagonal(sigma_diag),
            self.total_size,
        )
        g_el = self.topology.segment_electrical_conductances(t_star)
        matrix = k_el + self._wire_stamp_matrix(g_el)
        a_ff, rhs = self._reduce_electrical(matrix, scale)
        phi = self._expand_electrical(self._linear_el.solve(a_ff, rhs), scale)
        return phi, cell_t, lambda_diag, g_el

    def _joule_sources(self, phi, t_star, cell_t):
        """Field + wire Joule node powers at the iterate (full mode)."""
        grid_phi = phi[: self.n_grid]
        density = joule_cell_power_density(
            self.discretization, grid_phi, cell_t
        )
        q = np.zeros(self.total_size)
        q[: self.n_grid] = self.discretization.node_power_from_cells(density)
        field_power = float(np.dot(density, self.discretization.cell_volumes))
        q_wire, wire_powers = self.topology.joule_powers(phi, t_star)
        return q + q_wire, wire_powers, field_power

    def _full_advance(self, cache, t_old=None, dt=None, scale=1.0):
        """The full-mode fixed-point map ``T* -> T``.

        Reassembles both operators at the iterate and solves the thermal
        system; with ``dt`` it is one implicit Euler step from ``t_old``
        (adds the ``C/dt`` mass term and ``C/dt * t_old``), without it
        the steady state.  ``scale`` is the drive waveform value.  The
        outputs of the latest call land in ``cache``.
        """
        problem = self.problem

        def advance(t_star):
            phi, cell_t, lambda_diag, _ = self._solve_electrical_full(
                t_star, scale
            )
            q, wire_powers, field_power = self._joule_sources(
                phi, t_star, cell_t
            )
            k_th = embed_grid_matrix(
                self.discretization.stiffness_from_diagonal(lambda_diag),
                self.total_size,
            )
            g_th = self.topology.segment_thermal_conductances(t_star)
            k_th = k_th + self._wire_stamp_matrix(g_th)
            diagonal = self.conv_diag.copy()
            rhs_bc = self.conv_rhs.copy()
            if problem.radiation is not None:
                rad_diag, rad_rhs = problem.radiation.linearized_contributions(
                    self.discretization.dual, t_star[: self.n_grid]
                )
                diagonal[: self.n_grid] += rad_diag
                rhs_bc[: self.n_grid] += rad_rhs
            rhs = q
            if dt is not None:
                k_th = sp.diags(self.capacitance / dt) + k_th
                rhs = self.capacitance / dt * t_old + q
            matrix = (k_th + sp.diags(diagonal)).tocsr()
            rhs = rhs + rhs_bc
            if problem.thermal_dirichlet:
                reduced = apply_dirichlet(
                    matrix, rhs, problem.thermal_dirichlet
                )
                t_new = reduced.expand(
                    self._linear_th.solve(reduced.matrix, reduced.rhs)
                )
            else:
                t_new = self._linear_th.solve(matrix.tocsc(), rhs)
            cache["phi"] = phi
            cache["wire_powers"] = wire_powers
            cache["field_power"] = field_power
            return t_new

        return advance

    def _segment_conductances_block(self, seg_t, lengths, electrical):
        """``(k, S)`` per-segment conductances at the iterate block.

        Matches the scalar ``LumpedBondWire.segment_*_conductance``
        operation order exactly (``sigma * A / L * n_seg``), vectorized
        over the sample axis per wire -- the property models are plain
        ufunc arithmetic, so array evaluation is bitwise identical to
        the per-sample scalar calls.
        """
        conductances = np.empty_like(seg_t)
        for segment in range(self._seg_start.size):
            wire = int(self._seg_wire[segment])
            material = self._wire_materials[wire]
            conductivity = (
                material.electrical_conductivity(seg_t[segment])
                if electrical
                else material.thermal_conductivity(seg_t[segment])
            )
            conductances[segment] = (
                conductivity * self._wire_areas[wire] / lengths[:, wire]
                * self._wire_segments[wire]
            )
        return conductances

    def _joule_block(self, phi, g_el):
        """Field + wire Joule node powers for a fast-mode block.

        ``phi`` is ``(n, S)``, ``g_el`` ``(k, S)``; returns the node
        power block ``(n, S)``, per-wire powers ``(W, S)`` and the field
        dissipation ``(S,)``.  The field conductivity is the frozen one.
        """
        disc = self.discretization
        n_grid = self.n_grid
        ex, ey, ez = disc.cell_field_components(phi[:n_grid])
        density = self._fast_sigma_cells[:, None] * (
            ex * ex + ey * ey + ez * ez
        )
        q = np.zeros((self.total_size, phi.shape[1]))
        q[:n_grid] = disc.node_power_from_cells(density)
        field_power = density.T @ disc.cell_volumes
        drop = phi[self._seg_start] - phi[self._seg_end]
        power = g_el * drop * drop
        q_wire = np.zeros_like(q)
        np.add.at(q_wire, self._seg_start, 0.5 * power)
        np.add.at(q_wire, self._seg_end, 0.5 * power)
        wire_power = np.zeros((len(self.topology.wires), phi.shape[1]))
        np.add.at(wire_power, self._seg_wire, power)
        return q + q_wire, wire_power, field_power

    # ------------------------------------------------------------------
    # Time stepping
    # ------------------------------------------------------------------
    def _step_full(self, t_old, dt, scale, guess=None):
        """:meth:`_step_block`'s contract in full mode, at ``S = 1`` with
        the lengths :meth:`set_wire_lengths` bound."""
        cache = {}
        result = fixed_point(
            self._full_advance(cache, t_old[:, 0], dt, scale),
            (t_old if guess is None else guess)[:, 0],
            tolerance=self.tolerance,
            max_iterations=self.max_iterations,
            damping=self.damping,
        )
        self.metrics.increment("coupled_steps")
        telemetry.increment("solver.coupled_steps")
        return (
            result.solution[:, None],
            np.array([result.iterations]),
            cache["phi"][:, None],
            cache["wire_powers"][:, None],
            np.array([cache["field_power"]]),
        )

    def _step_block(self, t_old, lengths, dt, scale, guess=None):
        """One fast-mode implicit Euler step for an ``(n, S)`` block.

        The only fast-mode step: column ``s`` advances sample ``s``
        with wire lengths ``lengths[s]`` (``(S, W)``) under the drive
        scale ``scale``, starting the fixed point from ``guess`` (an
        ``(n, S)`` warm start) or from ``t_old``.  The per-sample fixed
        point (``x <- x + w (advance(x) - x)``, max-norm residual,
        strict ``< tolerance``) runs with an active-sample mask: every
        iteration only evaluates the columns still above tolerance, and
        a sample's outputs (``phi``, wire powers, field power) are
        frozen at its converging iteration -- the same "cache from the
        last advance call" contract as
        :func:`~repro.solvers.newton.fixed_point`.

        Returns ``(T_new, iterations, phi, wire_powers, field_power)``
        with shapes ``(n, S)``, ``(S,)``, ``(n, S)``, ``(W, S)`` and
        ``(S,)``.
        """
        thermal = self._fast_thermal_solver(dt)
        rhs_el = self._fast_el_rhs * scale
        fixed_phi = self.el_fixed_values * scale
        # Per-sample internal-node heat capacities over dt: the extra
        # thermal update columns, and the internal rows of C/dt * T_n.
        int_heat = (
            self._int_capacity[:, None] * lengths[:, self._int_wire].T / dt
        )
        heat_old = (self._grid_capacitance / dt)[:, None] * t_old
        heat_old[self.n_grid:] = int_heat * t_old[self.n_grid:]
        num_samples = t_old.shape[1]
        current = np.array(t_old if guess is None else guess, dtype=float)
        active = np.arange(num_samples)
        iterations = np.zeros(num_samples, dtype=int)
        phi_out = np.zeros((self.total_size, num_samples))
        wire_power_out = np.zeros((len(self.topology.wires), num_samples))
        field_power_out = np.zeros(num_samples)
        residual = np.zeros(num_samples)
        for iteration in range(1, self.max_iterations + 1):
            t_star = current[:, active]
            active_lengths = lengths[active]
            seg_t = 0.5 * (
                t_star[self._seg_start] + t_star[self._seg_end]
            )
            g_el = self._segment_conductances_block(
                seg_t, active_lengths, electrical=True
            )
            phi_free = self._fast_el.solve_batch(g_el.T, rhs_el)
            phi = np.empty((self.total_size, active.size))
            phi[self.el_free] = phi_free
            phi[self.el_fixed] = fixed_phi[:, None]
            q, wire_power, field_power = self._joule_block(phi, g_el)
            g_th = self._segment_conductances_block(
                seg_t, active_lengths, electrical=False
            )
            rhs = heat_old[:, active] + q + self.conv_rhs[:, None]
            if self.problem.radiation is not None:
                # Explicit radiative source at the iterate; the
                # nonlinearity converges through the fixed point.
                rhs = rhs + self.rad_coeff[:, None] * (
                    self.t_ambient_rad**4 - t_star**4
                )
            t_new = thermal.solve_batch(
                np.vstack([g_th, int_heat[:, active]]).T, rhs
            )
            damped = self.damping * (t_new - t_star)
            current[:, active] = t_star + damped
            step_norm = np.max(np.abs(damped), axis=0)
            # Outputs track the latest advance of every active sample;
            # once a sample converges it leaves ``active`` and its last
            # written values stand.
            phi_out[:, active] = phi
            wire_power_out[:, active] = wire_power
            field_power_out[active] = field_power
            residual[active] = step_norm
            converged = step_norm < self.tolerance
            iterations[active[converged]] = iteration
            active = active[~converged]
            if not active.size:
                break
        if active.size:
            worst = float(np.max(residual[active]))
            raise ConvergenceError(
                f"fixed-point iteration did not converge within "
                f"{self.max_iterations} iterations for "
                f"{active.size}/{num_samples} blocked samples "
                f"(worst step norm {worst:.3e}, tol "
                f"{self.tolerance:.3e})",
                iterations=self.max_iterations,
                residual=worst,
            )
        self.metrics.increment("coupled_steps", num_samples)
        telemetry.increment("solver.coupled_steps", num_samples)
        return current, iterations, phi_out, wire_power_out, field_power_out

    def _step(self, t_old, lengths, dt, scale, guess=None):
        """One implicit Euler step of an ``(n, S)`` block, either mode."""
        if self.mode == "fast":
            return self._step_block(t_old, lengths, dt, scale, guess=guess)
        return self._step_full(t_old, dt, scale, guess=guess)

    def _transient(self, time_grid, lengths, waveform=None,
                   store_fields=False):
        """The one time loop: advance an ``(n, S)`` block over a grid.

        Column ``s`` starts at ``t_initial`` with wire lengths
        ``lengths[s]``.  Returns time-major traces (``(P, W, S)`` wire
        blocks, ``(P, S)`` field power, ``(P - 1, S)`` iterations), the
        final ``(n, S)`` temperatures and potentials and, with
        ``store_fields``, the ``(n, S)`` state at every time point.
        """
        from .excitation import as_waveform

        if not isinstance(time_grid, TimeGrid):
            raise SolverError("time_grid must be a TimeGrid")
        drive = as_waveform(waveform)
        num_samples = lengths.shape[0]
        topology = self.topology
        temperatures = np.full(
            (self.total_size, num_samples), self.problem.t_initial
        )
        phi = np.zeros((self.total_size, num_samples))
        wire_t = [topology.wire_temperatures(temperatures)]
        wire_peak = [topology.wire_peak_temperatures(temperatures)]
        wire_p = [np.zeros((len(topology.wires), num_samples))]
        field_p = [np.zeros(num_samples)]
        iterations = []
        fields = [temperatures.copy()] if store_fields else None
        times = time_grid.times
        for step_index in range(time_grid.num_steps):
            scale = float(drive(times[step_index + 1]))
            (temperatures, n_iter, phi, wire_power,
             field_power) = self._step(
                temperatures, lengths, time_grid.dt, scale
            )
            iterations.append(n_iter)
            wire_t.append(topology.wire_temperatures(temperatures))
            wire_peak.append(topology.wire_peak_temperatures(temperatures))
            wire_p.append(wire_power)
            field_p.append(field_power)
            if store_fields:
                fields.append(temperatures.copy())
        return {
            "wire_temperatures": np.stack(wire_t),
            "wire_peak_temperatures": np.stack(wire_peak),
            "wire_powers": np.stack(wire_p),
            "field_joule_power": np.stack(field_p),
            "iterations": np.stack(iterations),
            "temperatures": temperatures,
            "potentials": phi,
            "fields": fields,
        }

    def step_once(self, temperatures, dt, drive_scale=1.0, guess=None):
        """One implicit Euler step of the coupled system; the new state.

        The public stepping hook for external time-step controllers
        (e.g. :func:`repro.solvers.adaptive.adaptive_implicit_euler`,
        whose ``step_function(state, dt)`` signature this matches with
        the default constant drive).  Uses the same fixed-point step as
        :meth:`solve_transient`; ``drive_scale`` scales the contact
        potentials for this step (callers integrating a waveform
        evaluate it at the step's new time level themselves).
        ``guess`` warm-starts the fixed point (e.g. the adaptive
        controller's linear predictor) -- the converged solution is the
        same within the fixed-point tolerance, just cheaper to reach.
        """
        new_state = self._step(
            np.asarray(temperatures, dtype=float)[:, None],
            self._wire_lengths, float(dt), float(drive_scale),
            guess=None if guess is None
            else np.asarray(guess, dtype=float)[:, None],
        )[0]
        return new_state[:, 0]

    def solve_transient(self, time_grid, store_fields=False, waveform=None):
        """Integrate the coupled system over a :class:`TimeGrid`.

        The ``S = 1`` view of the time loop the blocked solves run, with
        the wire lengths :meth:`set_wire_lengths` bound.

        Parameters
        ----------
        time_grid:
            The time axis (paper: 50 s, 51 points).
        store_fields:
            When ``True``, the full temperature field at every time point
            is kept on the result object (``result.fields``).
        waveform:
            Optional drive waveform (a number, callable ``w(t)`` or
            :class:`~repro.coupled.excitation.Waveform`) scaling the
            contact potentials over time; evaluated at the *new* time
            level of each implicit Euler step.  ``None`` is the paper's
            constant drive.

        Returns
        -------
        :class:`~repro.coupled.quantities.TransientResult`
        """
        traces = self._transient(
            time_grid, self._wire_lengths, waveform, store_fields
        )
        result = TransientResult(
            times=time_grid.times,
            wire_temperatures=traces["wire_temperatures"][:, :, 0],
            wire_peak_temperatures=traces["wire_peak_temperatures"][:, :, 0],
            wire_powers=traces["wire_powers"][:, :, 0],
            field_joule_power=traces["field_joule_power"][:, 0],
            final_temperatures=traces["temperatures"][:, 0],
            final_potentials=traces["potentials"][:, 0],
            iterations_per_step=traces["iterations"][:, 0].tolist(),
            wire_names=self.problem.wire_names(),
        )
        if store_fields:
            result.fields = [field[:, 0] for field in traces["fields"]]
        return result

    def solve_stationary(self, max_iterations=200, damping=0.8):
        """Steady state of the coupled system (d/dt = 0).

        Requires a heat escape path (convection, radiation or thermal
        Dirichlet), otherwise the thermal operator is singular.
        """
        problem = self.problem
        if (
            problem.convection is None
            and problem.radiation is None
            and not problem.thermal_dirichlet
        ):
            raise SolverError(
                "steady state needs convection, radiation or a thermal "
                "Dirichlet condition to be well-posed"
            )
        t_old = problem.initial_temperatures()
        cache = {}
        result = fixed_point(
            self._full_advance(cache),
            t_old,
            tolerance=self.tolerance,
            max_iterations=max_iterations,
            damping=damping,
        )
        temperatures = result.solution
        return StationaryResult(
            temperatures=temperatures,
            potentials=cache["phi"],
            wire_temperatures=self.topology.wire_temperatures(temperatures),
            wire_powers=cache["wire_powers"],
            field_joule_power=cache["field_power"],
            iterations=result.iterations,
            wire_names=problem.wire_names(),
        )


class BlockedTransientResult:
    """Traces of one sample-blocked transient (one chunk of MC samples).

    The per-sample counterpart of
    :class:`~repro.coupled.quantities.TransientResult` carries ``(P, W)``
    arrays; here every array gains a leading sample axis ``S``.

    Attributes
    ----------
    times:
        Time axis, length ``P``.
    wire_temperatures, wire_peak_temperatures, wire_powers:
        ``(S, P, W)`` per-sample traces.
    field_joule_power:
        ``(S, P)`` field dissipation per time point.
    final_temperatures:
        ``(S, n)`` final temperature states.
    iterations_per_step:
        ``(S, P - 1)`` fixed-point iteration counts.
    """

    def __init__(self, times, wire_temperatures, wire_peak_temperatures,
                 wire_powers, field_joule_power, final_temperatures,
                 iterations_per_step, wire_names):
        self.times = np.asarray(times, dtype=float)
        self.wire_temperatures = wire_temperatures
        self.wire_peak_temperatures = wire_peak_temperatures
        self.wire_powers = wire_powers
        self.field_joule_power = field_joule_power
        self.final_temperatures = final_temperatures
        self.iterations_per_step = iterations_per_step
        self.wire_names = list(wire_names)

    @property
    def num_samples(self):
        return self.wire_temperatures.shape[0]

    def __repr__(self):
        return (
            f"BlockedTransientResult(S={self.num_samples}, "
            f"P={self.times.size}, W={len(self.wire_names)})"
        )


class BlockedCoupledSolver:
    """Sample-blocked transients over a fast-mode :class:`CoupledSolver`.

    Advances all ``S`` samples of a Monte Carlo chunk through the same
    time grid simultaneously, carrying an ``(n, S)`` temperature block
    (one column per sample).  Per fixed-point iteration the electrical
    and thermal Woodbury corrections are applied for the whole block at
    once (:meth:`~repro.solvers.woodbury.WoodburySolver.solve_batch`),
    so the per-sample Python loop collapses into BLAS-3 linear algebra
    sharing one factorized base.

    Convergence is tracked per sample with an active-sample mask:
    converged columns stop paying iterations (and their cached
    ``phi`` / wire powers are the ones from their converging iteration,
    matching the per-sample fixed point), while the rest keep iterating.

    The wrapped solver must run ``mode="fast"`` (shared frozen bases;
    checked at construction).  The time loop and the step are the
    wrapped solver's own -- its per-sample path runs them as the
    ``S = 1`` view -- so the block shares every factorization with the
    per-sample path, including the per-``dt`` thermal solver map, and
    both run on the solver's array backend.
    """

    def __init__(self, solver):
        if not isinstance(solver, CoupledSolver):
            raise SolverError(
                f"expected a CoupledSolver, got {type(solver).__name__}"
            )
        if solver.mode != "fast":
            raise SolverError(
                "blocked solves need the fast (Woodbury) mode; "
                "mode='full' reassembles per sample"
            )
        self.solver = solver
        self.num_wires = len(solver.topology.wires)
        self._lengths = None

    # ------------------------------------------------------------------
    # Monte Carlo support
    # ------------------------------------------------------------------
    def set_wire_lengths_block(self, lengths):
        """Bind the ``(S, W)`` per-sample wire lengths for the next solve.

        Like :meth:`CoupledSolver.set_wire_lengths`, this never touches a
        factorization -- lengths only scale the conductances and
        internal-node heat capacities fed into the blocked solves.
        """
        lengths = np.asarray(lengths, dtype=float)
        if lengths.ndim != 2 or lengths.shape[1] != self.num_wires:
            raise SolverError(
                f"expected an (S, {self.num_wires}) length block, got "
                f"shape {lengths.shape}"
            )
        if not np.all((lengths > 0.0) & np.isfinite(lengths)):
            raise SolverError("wire lengths must be positive and finite")
        self._lengths = lengths

    # ------------------------------------------------------------------
    # Time stepping
    # ------------------------------------------------------------------
    def solve_transient_block(self, time_grid, waveform=None):
        """Integrate all bound samples over a :class:`TimeGrid` at once.

        Requires :meth:`set_wire_lengths_block` first.  ``waveform``
        scales the contact potentials exactly like
        :meth:`CoupledSolver.solve_transient` -- the drive is shared by
        every sample, which is what keeps the electrical base backsolve
        a single shared vector per iteration.

        Returns a :class:`BlockedTransientResult` whose sample ``s``
        reproduces the per-sample
        :meth:`CoupledSolver.solve_transient` traces for lengths row
        ``s`` up to floating-point summation-order differences of the
        batched products.
        """
        if self._lengths is None:
            raise SolverError(
                "no sample block bound; call set_wire_lengths_block first"
            )
        solver = self.solver
        traces = solver._transient(time_grid, self._lengths, waveform)
        solver.metrics.increment("blocked_steps", time_grid.num_steps)
        telemetry.increment("solver.blocked_steps", time_grid.num_steps)

        def sample_major(per_step):
            # (P, W, S) -> (S, P, W)
            return np.transpose(per_step, (2, 0, 1))

        return BlockedTransientResult(
            times=time_grid.times,
            wire_temperatures=sample_major(traces["wire_temperatures"]),
            wire_peak_temperatures=sample_major(
                traces["wire_peak_temperatures"]
            ),
            wire_powers=sample_major(traces["wire_powers"]),
            field_joule_power=traces["field_joule_power"].T,
            final_temperatures=traces["temperatures"].T.copy(),
            iterations_per_step=traces["iterations"].T,
            wire_names=solver.problem.wire_names(),
        )
