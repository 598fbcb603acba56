"""Unit tests for rotations: the quaternion form and axis-angle extraction."""

import random
from math import pi, sqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blochiso.bloch import BlochVector
from blochiso.errors import DomainError
from blochiso.matrix import max_abs_diff
from blochiso.sampling import axis_angle as random_axis_angle
from blochiso.sampling import bloch_in_ball, unit_vector
from blochiso.so3 import (
    AxisAngle,
    Rotation3,
    axis_angle_from_rotation,
    orthogonality_deviation,
    rotation_from_axis_angle,
)
from helpers import (
    expm_taylor,
    rotation_as_cmatrix,
    rotation_generator,
    so3_apply_reference,
    so3_compose_reference,
)

Z = (0.0, 0.0, 1.0)
QUARTER_TURN_Z = ((0.0, -1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))


def matrix_close(a, b, tol):
    return all(abs(a[i][j] - b[i][j]) <= tol for i in range(3) for j in range(3))


class TestTypes:
    def test_axis_must_be_unit(self):
        with pytest.raises(DomainError):
            AxisAngle((1.0, 1.0, 0.0), 0.5)

    def test_angle_range(self):
        with pytest.raises(DomainError):
            AxisAngle(Z, -0.1)
        with pytest.raises(DomainError):
            AxisAngle(Z, 7.0)
        AxisAngle(Z, 2 * pi)  # closed upper endpoint is allowed

    def test_rotation_rejects_reflection(self):
        with pytest.raises(DomainError):
            Rotation3(((1, 0, 0), (0, 1, 0), (0, 0, -1)))

    def test_rotation_rejects_non_orthogonal(self):
        with pytest.raises(DomainError):
            Rotation3(((1, 0.1, 0), (0, 1, 0), (0, 0, 1)))


class TestRodrigues:
    def test_zero_angle_is_identity(self):
        rng = random.Random(31)
        for _ in range(10):
            rot = rotation_from_axis_angle(AxisAngle(unit_vector(rng), 0.0))
            assert rot.matrix == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

    def test_quarter_turn_about_z(self):
        rot = rotation_from_axis_angle(AxisAngle(Z, pi / 2))
        assert matrix_close(rot.matrix, QUARTER_TURN_Z, 1e-12)

    def test_invariants_on_random_inputs(self):
        rng = random.Random(32)
        for _ in range(200):
            rot = rotation_from_axis_angle(random_axis_angle(rng))
            assert orthogonality_deviation(rot.matrix) <= 1e-11

    def test_matches_series_exponential(self):
        # Closed form against the truncated exponential of -i a (n . tau).
        rng = random.Random(33)
        for _ in range(50):
            aa = random_axis_angle(rng)
            series = expm_taylor(rotation_generator(aa.axis, aa.angle), 48)
            closed = rotation_as_cmatrix(rotation_from_axis_angle(aa))
            assert max_abs_diff(series, closed) <= 1e-10


class TestExtraction:
    def test_identity_is_canonical(self):
        aa = axis_angle_from_rotation(
            Rotation3(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        )
        assert aa.axis == Z
        assert aa.angle == 0.0

    def test_quarter_turn_worked_example(self):
        aa = axis_angle_from_rotation(Rotation3(QUARTER_TURN_Z))
        assert max(abs(a - b) for a, b in zip(aa.axis, Z)) <= 1e-12
        assert abs(aa.angle - pi / 2) <= 1e-12

    def test_round_trip_random(self):
        rng = random.Random(34)
        for _ in range(300):
            rot = rotation_from_axis_angle(random_axis_angle(rng))
            back = rotation_from_axis_angle(axis_angle_from_rotation(rot))
            assert matrix_close(back.matrix, rot.matrix, 1e-10)

    def test_round_trip_half_turns(self):
        # trace = -1 rotations: the quaternion's w is 0 up to roundoff, and
        # Shepperd's form roots the largest axis component instead.
        rng = random.Random(35)
        for _ in range(100):
            rot = rotation_from_axis_angle(AxisAngle(unit_vector(rng), pi))
            back = rotation_from_axis_angle(axis_angle_from_rotation(rot))
            assert matrix_close(back.matrix, rot.matrix, 1e-9)

    def test_exact_half_turn_axis_has_its_largest_component_positive(self):
        # At an exact half turn the quaternion's w is exactly 0, so n and -n
        # tie; the rule keeps the axis whose largest component is positive.
        for n in ((0.6, -0.8, 0.0), (-0.6, 0.8, 0.0), (0.0, 0.0, -1.0), (-0.8, 0.0, 0.6)):
            rows = tuple(
                tuple(2.0 * n[i] * n[j] - (i == j) for j in range(3)) for i in range(3)
            )
            aa = axis_angle_from_rotation(Rotation3(rows))
            big = max(range(3), key=lambda i: abs(n[i]))
            sign = 1.0 if n[big] > 0.0 else -1.0
            assert aa.angle == pi
            assert max(abs(a - sign * b) for a, b in zip(aa.axis, n)) <= 1e-15

    def test_rodrigues_half_turn_returns_its_axis(self):
        # The rotation at angle pi keeps 2 w v, w = cos(pi / 2) = 6.1e-17, in
        # its skew part, which gives w its sign: the axis comes back as it went in.
        rng = random.Random(39)
        for _ in range(200):
            n = unit_vector(rng)
            aa = axis_angle_from_rotation(rotation_from_axis_angle(AxisAngle(n, pi)))
            assert max(abs(a - b) for a, b in zip(aa.axis, n)) <= 1e-15

    def test_tiny_angles_read_z_hat(self):
        # The band of the unitary logarithm: |v| = sin(angle / 2) <= 1e-12.
        rng = random.Random(40)
        for angle, zhat in ((1e-15, True), (1e-12, True), (1.9e-12, True), (3e-12, False)):
            n = unit_vector(rng)
            aa = axis_angle_from_rotation(rotation_from_axis_angle(AxisAngle(n, angle)))
            assert (aa.axis == Z) is zhat
            assert abs(aa.angle - angle) <= 1e-15 * angle + 1e-27

    def test_near_half_turns(self):
        rng = random.Random(36)
        for delta in (1e-5, 1e-7, 1e-9):
            rot = rotation_from_axis_angle(AxisAngle(unit_vector(rng), pi - delta))
            back = rotation_from_axis_angle(axis_angle_from_rotation(rot))
            assert matrix_close(back.matrix, rot.matrix, 1e-9)

    def test_small_angles(self):
        rng = random.Random(37)
        for delta in (1e-3, 1e-6, 1e-8):
            rot = rotation_from_axis_angle(AxisAngle(unit_vector(rng), delta))
            back = rotation_from_axis_angle(axis_angle_from_rotation(rot))
            assert matrix_close(back.matrix, rot.matrix, 1e-10)

    def test_canonical_angle_range(self):
        rng = random.Random(38)
        for _ in range(100):
            rot = rotation_from_axis_angle(random_axis_angle(rng))
            aa = axis_angle_from_rotation(rot)
            assert 0.0 <= aa.angle <= pi


class TestAction:
    def test_apply_identity(self):
        r = BlochVector(0.3, -0.2, 0.5)
        rot = Rotation3(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert so3_apply_reference(rot, r).as_tuple() == r.as_tuple()

    def test_angle_additivity_about_fixed_axis(self):
        quarter = rotation_from_axis_angle(AxisAngle(Z, pi / 2))
        half = rotation_from_axis_angle(AxisAngle(Z, pi))
        assert matrix_close(so3_compose_reference(quarter, quarter), half.matrix, 1e-12)

    def test_apply_is_isometry(self):
        rng = random.Random(39)
        for _ in range(200):
            rot = rotation_from_axis_angle(random_axis_angle(rng))
            r = bloch_in_ball(rng)
            assert abs(so3_apply_reference(rot, r).norm() - r.norm()) <= 1e-12

    @given(
        st.floats(0.0, 2 * pi - 1e-9, allow_nan=False),
        st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1),
    )
    def test_rotation_preserves_dot_products(self, angle, x, y, z):
        nrm = sqrt(x * x + y * y + z * z)
        if nrm < 1e-6:
            x, y, z, nrm = 0.0, 0.0, 1.0, 1.0
        rot = rotation_from_axis_angle(AxisAngle((x / nrm, y / nrm, z / nrm), angle))
        a = BlochVector(0.1, 0.2, 0.3)
        b = BlochVector(-0.4, 0.5, 0.6)
        ra, rb = so3_apply_reference(rot, a), so3_apply_reference(rot, b)
        dot = a.x1 * b.x1 + a.x2 * b.x2 + a.x3 * b.x3
        rdot = ra.x1 * rb.x1 + ra.x2 * rb.x2 + ra.x3 * rb.x3
        assert abs(dot - rdot) <= 1e-12
