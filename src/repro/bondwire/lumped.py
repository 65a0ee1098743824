"""Lumped electrothermal bonding wire elements and their FIT stamps.

A wire connecting grid nodes ``a`` and ``b`` contributes (Section III-B)

* the conductance stamp ``G_bw = g * [[1, -1], [-1, 1]]`` to both the
  electrical (``g = G_el``) and the thermal (``g = G_th``) system, realized
  through the incidence vector ``P_j`` with entries +1 at ``a`` and -1 at
  ``b``;
* its Joule power ``Q_bw,j = Phi^T P_j G_el,j P_j^T Phi`` distributed to
  the end nodes by the averaging vector ``X_j`` (two 1/2 entries);
* its representative temperature ``T_bw,j = X_j^T T`` (eq. (5)).

For nonlinear temperature profiles a wire can be split into ``num_segments``
concatenated lumped elements (last paragraph of Section III-B); the extra
internal nodes are appended to the grid unknowns by the coupled assembler.
"""

import numpy as np
import scipy.sparse as sp

from ..errors import BondWireError
from ..materials.base import Material


class LumpedBondWire:
    """One bonding wire as a (chain of) lumped electrothermal element(s).

    Parameters
    ----------
    start_node, end_node:
        Flat primary-grid node indices of the two contacts.
    material:
        The wire :class:`~repro.materials.base.Material` (usually copper).
    diameter:
        Wire diameter [m] (paper: 25.4 um).
    length:
        Total wire length [m]; this is the uncertain quantity.
    num_segments:
        Number of concatenated lumped elements (1 = the paper's default).
    name:
        Identifier used in reports (e.g. ``"wire03"``).
    """

    def __init__(
        self,
        start_node,
        end_node,
        material,
        diameter,
        length,
        num_segments=1,
        name="",
    ):
        start_node = int(start_node)
        end_node = int(end_node)
        if start_node == end_node:
            raise BondWireError("wire must connect two distinct nodes")
        if start_node < 0 or end_node < 0:
            raise BondWireError("wire node indices must be non-negative")
        if not isinstance(material, Material):
            raise BondWireError(
                f"material must be a Material, got {type(material).__name__}"
            )
        diameter = float(diameter)
        length = float(length)
        if not 0.0 < diameter < np.inf:
            raise BondWireError(
                f"diameter must be positive and finite, got {diameter!r}"
            )
        if not 0.0 < length < np.inf:
            raise BondWireError(
                f"length must be positive and finite, got {length!r}"
            )
        num_segments = int(num_segments)
        if num_segments < 1:
            raise BondWireError(
                f"num_segments must be >= 1, got {num_segments!r}"
            )
        self.start_node = start_node
        self.end_node = end_node
        self.material = material
        self.diameter = diameter
        self.length = length
        self.num_segments = num_segments
        self.name = name

    # ------------------------------------------------------------------
    # Geometry-derived quantities
    # ------------------------------------------------------------------
    @property
    def cross_section_area(self):
        """Cross-section area ``pi d^2 / 4`` [m^2]."""
        return 0.25 * np.pi * self.diameter**2

    @property
    def segment_length(self):
        """Length of each of the ``num_segments`` lumped elements [m]."""
        return self.length / self.num_segments

    @property
    def volume(self):
        """Wire volume [m^3] (used for internal node heat capacity)."""
        return self.cross_section_area * self.length

    # ------------------------------------------------------------------
    # Electrothermal conductances (temperature dependent)
    # ------------------------------------------------------------------
    def electrical_conductance(self, temperature):
        """Whole-wire ``G_el(T) = sigma(T) A / L`` [S]."""
        sigma = self.material.electrical_conductivity(temperature)
        return sigma * self.cross_section_area / self.length

    def thermal_conductance(self, temperature):
        """Whole-wire ``G_th(T) = lambda(T) A / L`` [W/K]."""
        lam = self.material.thermal_conductivity(temperature)
        return lam * self.cross_section_area / self.length

    def segment_electrical_conductance(self, temperature):
        """Per-segment electrical conductance [S] (= whole-wire * S)."""
        return self.electrical_conductance(temperature) * self.num_segments

    def segment_thermal_conductance(self, temperature):
        """Per-segment thermal conductance [W/K]."""
        return self.thermal_conductance(temperature) * self.num_segments

    def resistance(self, temperature):
        """Whole-wire electrical resistance [Ohm]."""
        return 1.0 / self.electrical_conductance(temperature)

    def segment_heat_capacity(self):
        """Heat capacity of one segment [J/K] (lumped to internal nodes)."""
        rhoc = self.material.volumetric_heat_capacity()
        return rhoc * self.volume / self.num_segments

    def with_length(self, length):
        """Copy of this wire with a different length (MC resampling)."""
        return LumpedBondWire(
            self.start_node,
            self.end_node,
            self.material,
            self.diameter,
            length,
            num_segments=self.num_segments,
            name=self.name,
        )

    def with_segments(self, num_segments):
        """Copy of this wire subdivided into ``num_segments`` elements."""
        return LumpedBondWire(
            self.start_node,
            self.end_node,
            self.material,
            self.diameter,
            self.length,
            num_segments=num_segments,
            name=self.name,
        )

    def __repr__(self):
        return (
            f"LumpedBondWire({self.name or 'wire'}: {self.start_node}->"
            f"{self.end_node}, d={self.diameter!r} m, L={self.length!r} m, "
            f"segments={self.num_segments})"
        )


class WireStamp:
    """The sparse incidence (P) and averaging (X) vectors of one element.

    ``P`` has +1 at the start node and -1 at the end node; ``X`` has 1/2 at
    both (eq. (5) of the paper).  ``size`` is the total unknown count
    (grid nodes plus any internal wire nodes).
    """

    def __init__(self, start_node, end_node, size):
        start_node = int(start_node)
        end_node = int(end_node)
        if not (0 <= start_node < size and 0 <= end_node < size):
            raise BondWireError(
                f"stamp nodes ({start_node}, {end_node}) out of range for "
                f"size {size}"
            )
        if start_node == end_node:
            raise BondWireError("stamp must connect two distinct nodes")
        self.start_node = start_node
        self.end_node = end_node
        self.size = size

    def incidence_vector(self):
        """Dense ``P_j`` (+1 / -1) of length ``size``."""
        vector = np.zeros(self.size)
        vector[self.start_node] = 1.0
        vector[self.end_node] = -1.0
        return vector

    def averaging_vector(self):
        """Dense ``X_j`` (two 1/2 entries) of length ``size``."""
        vector = np.zeros(self.size)
        vector[self.start_node] = 0.5
        vector[self.end_node] = 0.5
        return vector

    def potential_drop(self, potentials):
        """``P_j^T Phi``: voltage (or temperature drop) across the element."""
        potentials = np.asarray(potentials, dtype=float)
        return float(potentials[self.start_node] - potentials[self.end_node])

    def average_value(self, values):
        """``X_j^T T``: the element's representative (average) value."""
        values = np.asarray(values, dtype=float)
        return 0.5 * float(values[self.start_node] + values[self.end_node])

    def conductance_matrix(self, conductance):
        """Sparse ``g P P^T`` stamp of shape ``(size, size)``."""
        conductance = float(conductance)
        if conductance < 0.0:
            raise BondWireError(
                f"conductance must be non-negative, got {conductance!r}"
            )
        rows = [self.start_node, self.start_node, self.end_node, self.end_node]
        cols = [self.start_node, self.end_node, self.start_node, self.end_node]
        vals = [conductance, -conductance, -conductance, conductance]
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.size, self.size))

    def joule_power(self, potentials, conductance):
        """``Q_bw = g (P^T Phi)^2`` [W] dissipated in the element."""
        drop = self.potential_drop(potentials)
        return float(conductance) * drop * drop


def stamp_conductance_matrix(size, stamps, conductances):
    """Sum of all element stamps ``sum_j g_j P_j P_j^T`` as one sparse matrix."""
    stamps = list(stamps)
    conductances = np.asarray(conductances, dtype=float).ravel()
    if len(stamps) != conductances.size:
        raise BondWireError(
            f"{len(stamps)} stamps but {conductances.size} conductances"
        )
    rows = []
    cols = []
    vals = []
    for stamp, conductance in zip(stamps, conductances):
        conductance = float(conductance)
        if conductance < 0.0:
            raise BondWireError("conductance must be non-negative")
        rows.extend(
            [stamp.start_node, stamp.start_node, stamp.end_node, stamp.end_node]
        )
        cols.extend(
            [stamp.start_node, stamp.end_node, stamp.start_node, stamp.end_node]
        )
        vals.extend([conductance, -conductance, -conductance, conductance])
    return sp.csr_matrix((vals, (rows, cols)), shape=(size, size))
