"""Unit tests for the rotation/unitary correspondence and its verifiers."""

import itertools
import random
from math import pi

import pytest

from blochiso import so3
from blochiso.bloch import BlochVector, bloch_to_density
from blochiso.errors import DomainError
from blochiso.isomorphism import phi, phi_inverse, verify_group_diagram, verify_state_diagram
from blochiso.matrix import ComplexMatrix, max_abs_diff
from blochiso.sampling import axis_angle as random_axis_angle
from blochiso.sampling import bloch_in_ball, gaussian, su2_haar, unit_vector
from blochiso.so3 import AxisAngle, Rotation3
from blochiso.su2 import (
    Unitary2,
    det2,
    negate,
    unitarity_deviation,
    unitary_from_axis_angle,
)
from helpers import (
    Su2AlgebraElement,
    adjoint_action_generic,
    fingerprint,
    identity,
    psi,
    psi_inverse,
    so3_apply_reference,
    su2_compose_reference,
    su2_conjugate_reference,
)

IDENTITY_ROTATION = Rotation3(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
Z = (0.0, 0.0, 1.0)
X = (1.0, 0.0, 0.0)


def rot_diff(a: Rotation3, b: Rotation3) -> float:
    return max(
        abs(a.matrix[i][j] - b.matrix[i][j]) for i in range(3) for j in range(3)
    )


class TestPhi:
    def test_identity(self):
        assert phi(IDENTITY_ROTATION).matrix == identity(2)

    def test_quarter_turn_chained_example(self):
        import cmath

        u = phi(so3.rotation_from_axis_angle(AxisAngle(Z, pi / 2)))
        assert abs(u.matrix.at(0, 0) - cmath.exp(-0.25j * pi)) <= 1e-12
        assert abs(u.matrix.at(1, 1) - cmath.exp(0.25j * pi)) <= 1e-12

    def test_state_transport(self):
        # The lifted unitary moves states exactly as the rotation moves vectors.
        rng = random.Random(51)
        for _ in range(200):
            rot = so3.rotation_from_axis_angle(random_axis_angle(rng))
            r = bloch_in_ball(rng)
            lhs = su2_conjugate_reference(phi(rot), bloch_to_density(r))
            rhs = bloch_to_density(so3_apply_reference(rot, r))
            assert max_abs_diff(lhs, rhs.matrix) <= 1e-10


class TestPhiInverse:
    def test_identity(self):
        rot = phi_inverse(Unitary2(identity(2)))
        assert rot.matrix == IDENTITY_ROTATION.matrix

    def test_double_cover_is_bitwise(self):
        rng = random.Random(52)
        for _ in range(100):
            u = su2_haar(rng)
            assert phi_inverse(u).matrix == phi_inverse(negate(u)).matrix

    def test_output_is_proper_rotation(self):
        rng = random.Random(54)
        for _ in range(200):
            rot = phi_inverse(su2_haar(rng))
            assert so3.orthogonality_deviation(rot.matrix) <= 1e-11

    def test_round_trip_on_rotations(self):
        # Angles from 1e-16 to 1e-3 away from 0 and from pi as well: the
        # lift reads one quaternion off R, with no cutoff between branches.
        rng = random.Random(55)
        rots = [so3.rotation_from_axis_angle(random_axis_angle(rng)) for _ in range(200)]
        for exponent in range(-16, -2):
            for angle in (10.0**exponent, pi - 10.0**exponent):
                rots.append(so3.rotation_from_axis_angle(AxisAngle(unit_vector(rng), angle)))
        for rot in rots:
            assert rot_diff(phi_inverse(phi(rot)), rot) <= 2e-15

    def test_round_trip_on_noisy_rotations(self):
        # Entrywise noise of 4.9e-10 on rotations that Rotation3 accepts
        # within its 1e-9 bounds: phi normalizes the quaternion, so it
        # never raises, and the round trip stays within the noise.
        rng = random.Random(5)
        accepted = 0
        for _ in range(2000):
            rot = so3.rotation_from_axis_angle(random_axis_angle(rng))
            rows = tuple(
                tuple(x + 4.9e-10 * (2.0 * rng.random() - 1.0) for x in row)
                for row in rot.matrix
            )
            try:
                noisy = Rotation3(rows)
            except DomainError:
                continue
            accepted += 1
            assert rot_diff(phi_inverse(phi(noisy)), noisy) <= 2e-9
        assert accepted >= 1500

    def test_round_trip_on_unitaries_up_to_sign(self):
        rng = random.Random(56)
        for _ in range(200):
            u = su2_haar(rng)
            lifted = phi(phi_inverse(u))
            direct = max_abs_diff(lifted.matrix, u.matrix)
            flipped = max_abs_diff(lifted.matrix, negate(u).matrix)
            assert min(direct, flipped) <= 1e-10


def signed_zero_axes() -> list[tuple[float, float, float]]:
    """Each of +-x, +-y, +-z with every sign of its two zero components."""
    axes = []
    for k in range(3):
        for unit in (1.0, -1.0):
            for zeros in itertools.product((0.0, -0.0), repeat=2):
                rest = iter(zeros)
                axes.append(tuple(unit if i == k else next(rest) for i in range(3)))
    return axes


class TestOneQuaternion:
    """Both groups are built from one quaternion: the rotation of an
    axis-angle and the drop of its unitary are the same bits."""

    def test_both_paths_give_the_same_bits(self):
        rng = random.Random(2121)
        cases = [random_axis_angle(rng) for _ in range(20000)]
        cases += [
            AxisAngle(axis, angle)
            for axis in signed_zero_axes()
            for angle in (0.0, 1e-300, pi, 2.0 * pi)
        ]
        for aa in cases:
            direct = so3.rotation_from_axis_angle(aa).matrix
            dropped = phi_inverse(unitary_from_axis_angle(aa)).matrix
            assert fingerprint(direct) == fingerprint(dropped)

    def test_near_unitaries_are_never_refused(self):
        # Haar unitaries plus complex Gaussian noise of log-uniform size in
        # [1e-12, 2e-9]: every matrix Unitary2 accepts drops to a rotation,
        # though its U* U misses I by up to 1e-9 and the trace formula's R^T R
        # by about twice that.
        rng = random.Random(2122)
        accepted = near_edge = 0
        worst = 0.0
        for _ in range(10000):
            eps = 1e-12 * 2000.0 ** rng.random()
            noisy = [
                e + eps * complex(gaussian(rng), gaussian(rng))
                for e in su2_haar(rng).matrix.entries
            ]
            try:
                u = Unitary2(ComplexMatrix(2, 2, tuple(noisy)))
            except DomainError:
                continue
            accepted += 1
            near_edge += unitarity_deviation(u.matrix) > 5e-10
            worst = max(worst, so3.orthogonality_deviation(phi_inverse(u).matrix))
        assert accepted >= 7000 and near_edge >= 500
        # Dividing by |q|^2 leaves the rows orthonormal to rounding (1.1e-15).
        assert worst <= 2e-15


class TestAlgebraPicture:
    def test_psi_round_trip(self):
        rng = random.Random(57)
        for _ in range(50):
            r = BlochVector(*(3.0 * c for c in unit_vector(rng)))
            assert psi(psi_inverse(r)).as_tuple() == r.as_tuple()

    def test_coordinate_matrix_is_antihermitian(self):
        elem = Su2AlgebraElement((0.3, -1.2, 0.7))
        m = elem.matrix()
        for i in range(2):
            for j in range(2):
                assert m.at(i, j) == -m.at(j, i).conjugate()

    def test_determinant_is_squared_norm(self):
        rng = random.Random(58)
        for _ in range(100):
            r = tuple(2.0 * (rng.random() - 0.5) for _ in range(3))
            elem = Su2AlgebraElement(r)
            norm_sq = sum(c * c for c in r)
            assert abs(det2(elem.matrix()) - norm_sq) <= 1e-12

    def test_adjoint_action_identity(self):
        elem = Su2AlgebraElement((0.1, 0.2, 0.3))
        out = adjoint_action_generic(Unitary2(identity(2)), elem)
        assert out.vector == elem.vector

    def test_adjoint_action_is_homomorphism(self):
        rng = random.Random(59)
        for _ in range(100):
            u, v = su2_haar(rng), su2_haar(rng)
            elem = Su2AlgebraElement(tuple(rng.gauss(0, 1) for _ in range(3)))
            seq = adjoint_action_generic(u, adjoint_action_generic(v, elem))
            direct = adjoint_action_generic(su2_compose_reference(u, v), elem)
            assert max(
                abs(a - b) for a, b in zip(seq.vector, direct.vector)
            ) <= 1e-11

    def test_adjoint_action_matches_rotation(self):
        rng = random.Random(60)
        for _ in range(100):
            u = su2_haar(rng)
            r = BlochVector(*(rng.gauss(0, 1) for _ in range(3)))
            via_algebra = psi(adjoint_action_generic(u, psi_inverse(r)))
            via_rotation = so3_apply_reference(phi_inverse(u), r)
            assert max(
                abs(a - b)
                for a, b in zip(via_algebra.as_tuple(), via_rotation.as_tuple())
            ) <= 1e-10

    def test_adjoint_action_preserves_norm(self):
        rng = random.Random(61)
        for _ in range(100):
            u = su2_haar(rng)
            elem = Su2AlgebraElement(tuple(rng.gauss(0, 1) for _ in range(3)))
            assert abs(adjoint_action_generic(u, elem).norm() - elem.norm()) <= 1e-12


class TestDiagrams:
    def test_fixed_axis_state(self):
        report = verify_state_diagram(BlochVector(0, 0, 1), AxisAngle(Z, 1.234))
        assert report.commutes
        assert report.max_deviation <= 1e-12

    def test_spin_flip_both_ways(self):
        report = verify_state_diagram(BlochVector(0, 0, 1), AxisAngle(X, pi))
        assert report.commutes
        down = bloch_to_density(BlochVector(0, 0, -1))
        assert max_abs_diff(report.path_a_result.matrix, down.matrix) <= 1e-12
        assert max_abs_diff(report.path_b_result.matrix, down.matrix) <= 1e-12

    def test_random_states_commute(self):
        rng = random.Random(62)
        for _ in range(200):
            report = verify_state_diagram(
                bloch_in_ball(rng), random_axis_angle(rng), tol=1e-10
            )
            assert report.commutes

    def test_group_single_element(self):
        report = verify_group_diagram([AxisAngle(Z, 0.8)])
        assert report.commutes

    def test_group_additivity_about_z(self):
        report = verify_group_diagram([AxisAngle(Z, 0.7), AxisAngle(Z, 0.9)])
        assert report.commutes
        direct = so3.rotation_from_axis_angle(AxisAngle(Z, 1.6))
        assert rot_diff(report.path_b_result, direct) <= 1e-12

    def test_group_random_words(self):
        rng = random.Random(63)
        for _ in range(100):
            word = [random_axis_angle(rng) for _ in range(3)]
            assert verify_group_diagram(word, tol=1e-9).commutes

    def test_group_empty_word_rejected(self):
        with pytest.raises(DomainError):
            verify_group_diagram([])
