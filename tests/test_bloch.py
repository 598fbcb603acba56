"""Unit tests for the Bloch-vector / density-operator dictionary."""

import random
from math import pi, sqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blochiso.bloch import BlochVector, DensityOperator, bloch_to_density, density_to_bloch
from blochiso.errors import DomainError, NonStateError
from blochiso.matrix import max_abs_diff
from blochiso.sampling import bloch_in_ball
from helpers import (
    SphericalAngles,
    angles_to_bloch,
    angles_to_pure_state,
    from_rows,
    is_pure,
    pure_state_to_density,
    purity_generic,
    to_rows,
)


def vec(x1, x2, x3):
    return BlochVector(x1, x2, x3)


class TestAngles:
    def test_north_pole(self):
        r = angles_to_bloch(SphericalAngles(0.0, 0.0))
        assert r.as_tuple() == (0.0, 0.0, 1.0)

    def test_equator(self):
        r = angles_to_bloch(SphericalAngles(pi / 2, 0.0))
        assert abs(r.x1 - 1.0) <= 1e-12
        assert abs(r.x2) <= 1e-12
        assert abs(r.x3) <= 1e-12

    def test_equator_quarter_turn(self):
        r = angles_to_bloch(SphericalAngles(pi / 2, pi / 2))
        assert abs(r.x1) <= 1e-12
        assert abs(r.x2 - 1.0) <= 1e-12
        assert abs(r.x3) <= 1e-12

    def test_output_is_unit(self):
        rng = random.Random(21)
        for _ in range(100):
            a = SphericalAngles(rng.random() * pi, rng.random() * 2 * pi)
            assert abs(angles_to_bloch(a).norm() - 1.0) <= 1e-12

    def test_range_validation(self):
        with pytest.raises(DomainError):
            SphericalAngles(-0.1, 0.0)
        with pytest.raises(DomainError):
            SphericalAngles(3.2, 0.0)
        with pytest.raises(DomainError):
            SphericalAngles(1.0, 2 * pi)


class TestPureStates:
    def test_ground_state(self):
        assert angles_to_pure_state(SphericalAngles(0.0, 0.0)) == (1 + 0j, 0j)

    def test_excited_state(self):
        v0, v1 = angles_to_pure_state(SphericalAngles(pi, 0.0))
        assert abs(v0) <= 1e-12
        assert abs(v1 - 1.0) <= 1e-12

    def test_circular_state(self):
        v0, v1 = angles_to_pure_state(SphericalAngles(pi / 2, pi / 2))
        assert abs(v0 - 1 / sqrt(2)) <= 1e-12
        assert abs(v1 - 1j / sqrt(2)) <= 1e-12

    def test_unit_norm(self):
        rng = random.Random(22)
        for _ in range(100):
            a = SphericalAngles(rng.random() * pi, rng.random() * 2 * pi)
            v0, v1 = angles_to_pure_state(a)
            assert abs(abs(v0) ** 2 + abs(v1) ** 2 - 1.0) <= 1e-12

    def test_outer_product_matches_bloch_route(self):
        rng = random.Random(23)
        for _ in range(50):
            a = SphericalAngles(rng.random() * pi, rng.random() * 2 * pi)
            via_state = pure_state_to_density(angles_to_pure_state(a))
            via_bloch = bloch_to_density(angles_to_bloch(a))
            assert max_abs_diff(via_state.matrix, via_bloch.matrix) <= 1e-12


class TestDensity:
    def test_north_pole_projector(self):
        rho = bloch_to_density(vec(0, 0, 1))
        assert to_rows(rho.matrix) == [[1, 0], [0, 0]]

    def test_maximally_mixed(self):
        rho = bloch_to_density(vec(0, 0, 0))
        assert to_rows(rho.matrix) == [[0.5, 0], [0, 0.5]]

    def test_x_pole(self):
        rho = bloch_to_density(vec(1, 0, 0))
        assert to_rows(rho.matrix) == [[0.5, 0.5], [0.5, 0.5]]

    def test_rejects_outside_ball(self):
        with pytest.raises(NonStateError):
            bloch_to_density(vec(1.1, 0, 0))

    def test_renormalizes_marginal_overshoot(self):
        rho = bloch_to_density(vec(1.0 + 5e-10, 0, 0))
        assert abs(density_to_bloch(rho).norm() - 1.0) <= 1e-12

    def test_round_trip_exact_points(self):
        assert density_to_bloch(bloch_to_density(vec(0, 0, 1))).as_tuple() == (0.0, 0.0, 1.0)
        assert density_to_bloch(bloch_to_density(vec(0, 0, 0))).as_tuple() == (0.0, 0.0, 0.0)

    def test_round_trip_random(self):
        rng = random.Random(24)
        for _ in range(100):
            r = bloch_in_ball(rng)
            back = density_to_bloch(bloch_to_density(r))
            assert max(
                abs(a - b) for a, b in zip(r.as_tuple(), back.as_tuple())
            ) <= 1e-12

    def test_invariant_validation(self):
        with pytest.raises(NonStateError):
            DensityOperator(from_rows([[1, 0], [0, 1]]))  # trace 2
        with pytest.raises(NonStateError):
            DensityOperator(from_rows([[1.5, 0], [0, -0.5]]))  # not PSD
        with pytest.raises(NonStateError):
            DensityOperator(from_rows([[0.5, 0.5], [0.1, 0.5]]))  # not Hermitian

    @given(
        st.tuples(
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
            st.floats(0.0, 0.999, allow_nan=False),
        )
    )
    def test_trace_and_hermiticity_property(self, raw):
        x, y, z, radius = raw
        nrm = sqrt(x * x + y * y + z * z)
        if nrm < 1e-6:
            x, y, z, nrm = 1.0, 0.0, 0.0, 1.0
        r = vec(x / nrm * radius, y / nrm * radius, z / nrm * radius)
        m = bloch_to_density(r).matrix
        assert abs((m.at(0, 0) + m.at(1, 1)) - 1.0) <= 1e-12
        assert abs(m.at(0, 1) - m.at(1, 0).conjugate()) <= 1e-12


class TestPurity:
    def test_pure_projector(self):
        p = purity_generic(bloch_to_density(vec(0, 0, 1)))
        assert p == 1.0
        assert is_pure(p)

    def test_maximally_mixed(self):
        p = purity_generic(bloch_to_density(vec(0, 0, 0)))
        assert p == 0.5
        assert not is_pure(p)

    def test_interior_point(self):
        # (1 + 0.36) / 2 = 0.68.
        p = purity_generic(bloch_to_density(vec(0.6, 0, 0)))
        assert abs(p - 0.68) <= 1e-12
        assert not is_pure(p)

    def test_formula_matches_norm(self):
        rng = random.Random(25)
        for _ in range(200):
            r = bloch_in_ball(rng)
            p = purity_generic(bloch_to_density(r))
            assert abs(p - (1.0 + r.norm() ** 2) / 2.0) <= 1e-12

    def test_kind_flips_at_unit_sphere(self):
        rng = random.Random(26)
        for _ in range(100):
            direction = bloch_in_ball(rng)
            nrm = direction.norm()
            if nrm < 1e-6:
                continue
            on_sphere = vec(*(c / nrm for c in direction.as_tuple()))
            inside = vec(*(0.999 * c / nrm for c in direction.as_tuple()))
            assert is_pure(purity_generic(bloch_to_density(on_sphere)))
            assert not is_pure(purity_generic(bloch_to_density(inside)))
