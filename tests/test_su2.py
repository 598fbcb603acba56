"""Unit tests for special unitaries: closed form, logarithm, conjugation."""

import cmath
import random
from math import pi

import pytest

from blochiso.bloch import BlochVector, DensityOperator, bloch_to_density
from blochiso.errors import DomainError
from blochiso.isomorphism import phi, phi_inverse
from blochiso.matrix import ComplexMatrix, adjoint, max_abs_diff, scale
from blochiso.sampling import axis_angle as random_axis_angle
from blochiso.sampling import su2_haar, unit_vector
from blochiso.so3 import AxisAngle
from blochiso.su2 import (
    Unitary2,
    axis_angle_from_unitary,
    det2,
    negate,
    normalize_phase,
    unitary_from_axis_angle,
)
from helpers import (
    expm_taylor,
    from_rows,
    identity,
    mul,
    pauli_generator,
    purity_generic,
    random_density,
    su2_compose_reference,
    su2_conjugate_reference,
    trace,
)

Z = (0.0, 0.0, 1.0)
X = (1.0, 0.0, 0.0)
I2 = identity(2)


class TestTypes:
    def test_rejects_nonunitary(self):
        with pytest.raises(DomainError):
            Unitary2(from_rows([[1, 0], [0, 2]]))

    def test_rejects_a_nan_entry(self):
        # A value built trusted, as the library builds its own, fails the
        # unitarity check closed on NaN.
        nan = float("nan")
        with pytest.raises(DomainError, match="not unitary"):
            Unitary2(ComplexMatrix._trusted(2, 2, (complex(nan), 0j, 0j, 1 + 0j)))

    def test_rejects_phased_determinant(self):
        phased = scale(I2, cmath.exp(0.3j))
        with pytest.raises(DomainError):
            Unitary2(phased)

    def test_normalize_phase_recovers(self):
        phased = scale(I2, cmath.exp(0.3j))
        fixed = normalize_phase(phased)
        assert abs(det2(fixed.matrix) - 1.0) <= 1e-12
        assert max_abs_diff(fixed.matrix, I2) <= 1e-12

    def test_normalize_phase_lifts_as_phi_does(self):
        # The lift of the rotation of U, as phi's of phi_inverse(U); the two
        # read R by different sums, so near a half turn (Re tr U = 0)
        # roundoff can give w opposite signs.
        rng = random.Random(11)
        compared = 0
        for _ in range(2000):
            u = su2_haar(rng)
            phased = scale(u.matrix, cmath.exp(1j * rng.uniform(-pi, pi)))
            lifted = phi(phi_inverse(u)).matrix
            if abs((lifted.at(0, 0) + lifted.at(1, 1)).real) > 1e-6:
                compared += 1
                assert max_abs_diff(normalize_phase(phased).matrix, lifted) <= 2e-15
        assert compared >= 1990

    def test_normalize_phase_rejects_nonunitary(self):
        for m in (from_rows([[1, 0], [0, 2]]), scale(I2, 2.0)):
            with pytest.raises(DomainError, match="not unitary"):
                normalize_phase(m)

    @pytest.mark.parametrize(
        "entries",
        [
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (1, 1, 1, 1),
            (float("inf"), 0, 0, 1),
            (1e150, 1e-160, 1e-160, 0),
            (float("nan"), 0, 0, 1),
        ],
    )
    def test_normalize_phase_refuses_a_singular_or_infinite_matrix(self, entries):
        # Built trusted, as the library builds its own values: the guard is
        # negated, so an infinite or NaN deviation fails it too.
        m = ComplexMatrix._trusted(2, 2, tuple(complex(e) for e in entries))
        with pytest.raises(DomainError, match="not unitary"):
            normalize_phase(m)

    @pytest.mark.parametrize(
        "check", [Unitary2, normalize_phase], ids=["Unitary2", "normalize_phase"]
    )
    def test_a_modulus_past_the_float_range_is_an_infinite_deviation(self, check):
        # U* U has the finite entry 1.3e308 (1 + i), whose modulus abs()
        # refused with a bare OverflowError.
        m = ComplexMatrix(2, 2, (1e154, 1.3e154 + 1.3e154j, 0, 0))
        with pytest.raises(DomainError, match=r"^matrix is not unitary \(deviation inf\)$"):
            check(m)

    def test_rejects_a_matrix_not_2x2(self):
        with pytest.raises(DomainError, match="^unitary must be 2x2$"):
            Unitary2(identity(3))
        with pytest.raises(DomainError, match="^normalize_phase expects a 2x2 matrix$"):
            normalize_phase(identity(3))


class TestClosedForm:
    def test_zero_angle_identity(self):
        rng = random.Random(41)
        for _ in range(10):
            u = unitary_from_axis_angle(AxisAngle(unit_vector(rng), 0.0))
            assert u.matrix == I2

    def test_z_axis_diagonal(self):
        for angle in (0.3, 1.0, pi / 2, 2.5, 5.1):
            u = unitary_from_axis_angle(AxisAngle(Z, angle))
            assert abs(u.matrix.at(0, 0) - cmath.exp(-0.5j * angle)) <= 1e-15
            assert abs(u.matrix.at(1, 1) - cmath.exp(0.5j * angle)) <= 1e-15
            assert u.matrix.at(0, 1) == 0j
            assert u.matrix.at(1, 0) == 0j

    def test_full_turn_is_minus_identity(self):
        u = unitary_from_axis_angle(AxisAngle(Z, 2 * pi))
        assert max_abs_diff(u.matrix, scale(I2, -1.0)) <= 1e-15

    def test_group_invariants(self):
        rng = random.Random(42)
        for _ in range(200):
            u = unitary_from_axis_angle(random_axis_angle(rng))
            assert max_abs_diff(mul(adjoint(u.matrix), u.matrix), I2) <= 1e-12
            assert abs(det2(u.matrix) - 1.0) <= 1e-12

    def test_matches_series_exponential(self):
        rng = random.Random(43)
        for _ in range(50):
            aa = random_axis_angle(rng)
            series = expm_taylor(pauli_generator(aa.axis, aa.angle), 48)
            assert max_abs_diff(series, unitary_from_axis_angle(aa).matrix) <= 1e-10

    def test_composition_closure(self):
        rng = random.Random(44)
        for _ in range(100):
            w = su2_compose_reference(su2_haar(rng), su2_haar(rng))
            assert max_abs_diff(mul(adjoint(w.matrix), w.matrix), I2) <= 1e-11
            assert abs(det2(w.matrix) - 1.0) <= 1e-11


class TestLogarithm:
    def test_identity(self):
        aa = axis_angle_from_unitary(Unitary2(I2))
        assert aa.axis == Z
        assert aa.angle == 0.0

    def test_minus_identity_hits_upper_endpoint(self):
        aa = axis_angle_from_unitary(Unitary2(scale(I2, -1.0)))
        assert aa.axis == Z
        assert aa.angle == 2 * pi

    def test_quarter_turn_worked_example(self):
        u = Unitary2(
            from_rows(
                [[cmath.exp(-0.25j * pi), 0], [0, cmath.exp(0.25j * pi)]]
            )
        )
        aa = axis_angle_from_unitary(u)
        assert max(abs(a - b) for a, b in zip(aa.axis, Z)) <= 1e-12
        assert abs(aa.angle - pi / 2) <= 1e-12

    def test_round_trip(self):
        rng = random.Random(45)
        for _ in range(300):
            u = su2_haar(rng)
            back = unitary_from_axis_angle(axis_angle_from_unitary(u))
            assert max_abs_diff(back.matrix, u.matrix) <= 1e-12

    def test_plus_minus_resolved(self):
        # The logarithm keeps U and -U apart: angles a and 2*pi - a.
        rng = random.Random(46)
        for _ in range(50):
            u = su2_haar(rng)
            a_plus = axis_angle_from_unitary(u)
            a_minus = axis_angle_from_unitary(negate(u))
            assert abs((a_plus.angle + a_minus.angle) - 2 * pi) <= 1e-9


class TestConjugation:
    def test_identity_fixes_state(self):
        rng = random.Random(47)
        rho = random_density(rng)
        out = su2_conjugate_reference(Unitary2(I2), rho)
        assert max_abs_diff(out, rho.matrix) <= 1e-15

    def test_bit_flip(self):
        u = unitary_from_axis_angle(AxisAngle(X, pi))
        rho = bloch_to_density(BlochVector(0, 0, 1))
        flipped = su2_conjugate_reference(u, rho)
        expected = bloch_to_density(BlochVector(0, 0, -1))
        assert max_abs_diff(flipped, expected.matrix) <= 1e-12

    def test_purity_invariance(self):
        rng = random.Random(48)
        for _ in range(100):
            u = su2_haar(rng)
            rho = random_density(rng)
            before = trace(mul(rho.matrix, rho.matrix)).real
            after_rho = su2_conjugate_reference(u, rho)
            after = trace(mul(after_rho, after_rho)).real
            assert abs(before - after) <= 1e-12

    def test_preserves_state_invariants(self):
        rng = random.Random(49)
        for _ in range(100):
            out = DensityOperator(su2_conjugate_reference(su2_haar(rng), random_density(rng)))
            # DensityOperator construction re-validates Hermiticity, trace,
            # positivity; purity stays within the physical band.
            assert purity_generic(out) <= 1.0 + 1e-12
