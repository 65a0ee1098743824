"""Tests for the lumped wire element and its FIT stamps (Section III-B)."""

import numpy as np
import pytest

from repro.bondwire.lumped import LumpedBondWire, WireStamp, stamp_conductance_matrix
from repro.circuit.netlist import Netlist
from repro.errors import BondWireError
from repro.materials.library import copper


@pytest.fixture
def paper_wire():
    """Table II wire: copper, 25.4 um diameter, 1.55 mm long."""
    return LumpedBondWire(0, 1, copper(), 25.4e-6, 1.55e-3, name="w")


class TestWireProperties:
    def test_cross_section(self, paper_wire):
        assert paper_wire.cross_section_area == pytest.approx(
            np.pi / 4.0 * (25.4e-6) ** 2
        )

    def test_conductance_at_300k(self, paper_wire):
        """G = sigma A / L with Table I copper: about 19 S."""
        g = paper_wire.electrical_conductance(300.0)
        expected = 5.8e7 * paper_wire.cross_section_area / 1.55e-3
        assert g == pytest.approx(expected)
        assert 15.0 < g < 25.0

    def test_resistance_about_50_mohm(self, paper_wire):
        assert paper_wire.resistance(300.0) == pytest.approx(0.0527, rel=0.01)

    def test_conductance_drops_when_hot(self, paper_wire):
        assert paper_wire.electrical_conductance(500.0) < (
            paper_wire.electrical_conductance(300.0)
        )

    def test_thermal_conductance(self, paper_wire):
        g = paper_wire.thermal_conductance(300.0)
        expected = 398.0 * paper_wire.cross_section_area / 1.55e-3
        assert g == pytest.approx(expected)

    def test_segment_conductance_scales(self, paper_wire):
        chain = paper_wire.with_segments(4)
        assert chain.segment_electrical_conductance(300.0) == pytest.approx(
            4.0 * paper_wire.electrical_conductance(300.0)
        )

    def test_with_length(self, paper_wire):
        longer = paper_wire.with_length(3.1e-3)
        assert longer.electrical_conductance(300.0) == pytest.approx(
            0.5 * paper_wire.electrical_conductance(300.0)
        )
        assert longer.name == paper_wire.name

    def test_validation(self):
        with pytest.raises(BondWireError):
            LumpedBondWire(0, 0, copper(), 1e-6, 1e-3)
        with pytest.raises(BondWireError):
            LumpedBondWire(0, 1, copper(), -1e-6, 1e-3)
        with pytest.raises(BondWireError):
            LumpedBondWire(0, 1, copper(), 1e-6, 0.0)
        with pytest.raises(BondWireError):
            LumpedBondWire(0, 1, "copper", 1e-6, 1e-3)
        with pytest.raises(BondWireError):
            LumpedBondWire(0, 1, copper(), 1e-6, 1e-3, num_segments=0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_geometry_rejected(self, bad, paper_wire):
        # An infinite wire would silently carry zero power; a nan one
        # would only fail later, inside a solve.
        with pytest.raises(BondWireError, match="finite"):
            LumpedBondWire(0, 1, copper(), 25.4e-6, bad)
        with pytest.raises(BondWireError, match="finite"):
            LumpedBondWire(0, 1, copper(), bad, 1.55e-3)
        with pytest.raises(BondWireError, match="finite"):
            paper_wire.with_length(bad)


class TestWireStamp:
    def test_incidence_vector(self):
        stamp = WireStamp(1, 3, 5)
        p = stamp.incidence_vector()
        assert p[1] == 1.0
        assert p[3] == -1.0
        assert np.sum(np.abs(p)) == 2.0

    def test_averaging_vector_eq5(self):
        """X_j has two 1/2 entries (eq. (5) of the paper)."""
        stamp = WireStamp(1, 3, 5)
        x = stamp.averaging_vector()
        assert x[1] == 0.5
        assert x[3] == 0.5
        assert np.sum(x) == 1.0

    def test_average_value(self):
        stamp = WireStamp(0, 2, 3)
        assert stamp.average_value([300.0, 0.0, 400.0]) == 350.0

    def test_stamp_matrix_pattern(self):
        """G_bw = g [[1, -1], [-1, 1]] at the right positions."""
        stamp = WireStamp(0, 2, 3)
        matrix = stamp.conductance_matrix(5.0).toarray()
        expected = np.array(
            [[5.0, 0.0, -5.0], [0.0, 0.0, 0.0], [-5.0, 0.0, 5.0]]
        )
        assert np.allclose(matrix, expected)

    def test_stamp_matrix_psd(self):
        matrix = WireStamp(0, 2, 4).conductance_matrix(3.0).toarray()
        eigenvalues = np.linalg.eigvalsh(matrix)
        assert np.min(eigenvalues) > -1e-14

    def test_joule_power(self):
        stamp = WireStamp(0, 1, 2)
        phi = np.array([0.02, -0.02, 0.0])
        assert stamp.joule_power(phi, 19.0) == pytest.approx(19.0 * 0.04**2)

    def test_validation(self):
        with pytest.raises(BondWireError):
            WireStamp(0, 0, 3)
        with pytest.raises(BondWireError):
            WireStamp(0, 9, 3)
        with pytest.raises(BondWireError):
            WireStamp(0, 1, 3).conductance_matrix(-1.0)


class TestStampAggregation:
    def test_sum_matches_individual(self):
        stamps = [WireStamp(0, 1, 4), WireStamp(1, 2, 4), WireStamp(2, 3, 4)]
        g = [1.0, 2.0, 3.0]
        total = stamp_conductance_matrix(4, stamps, g).toarray()
        expected = sum(
            s.conductance_matrix(gi).toarray() for s, gi in zip(stamps, g)
        )
        assert np.allclose(total, expected)

    def test_count_mismatch(self):
        with pytest.raises(BondWireError):
            stamp_conductance_matrix(4, [WireStamp(0, 1, 4)], [1.0, 2.0])


class TestAgainstCircuitSolver:
    """Field-circuit consistency: the stamp equals nodal analysis."""

    def test_voltage_divider(self):
        """Two wires in series between +-20 mV match the netlist solution."""
        g1, g2 = 19.0, 9.5
        stamps = [WireStamp(0, 1, 3), WireStamp(1, 2, 3)]
        matrix = stamp_conductance_matrix(3, stamps, [g1, g2]).toarray()
        # Fix node 0 at +0.02, node 2 at -0.02; solve node 1.
        # Row 1: -g1 phi0 + (g1+g2) phi1 - g2 phi2 = 0.
        phi1 = (g1 * 0.02 + g2 * (-0.02)) / (g1 + g2)

        netlist = Netlist()
        netlist.add_conductance("a", "m", g1)
        netlist.add_conductance("m", "b", g2)
        netlist.fix_potential("a", 0.02)
        netlist.fix_potential("b", -0.02)
        solution = netlist.solve()
        assert solution.potential("m") == pytest.approx(phi1)
        # And the matrix row equation holds for that potential.
        phi = np.array([0.02, phi1, -0.02])
        assert matrix[1] @ phi == pytest.approx(0.0, abs=1e-12)
