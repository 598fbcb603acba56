"""The closed 2x2 and 3x3 forms give the generic products' answers exactly.

``bloch_affine_action`` (and ``phi_inverse``, its one-operator case),
``unitarity_deviation`` and ``orthogonality_deviation`` perform the IEEE-754
operations of the generic matmul and sum formulas in ``helpers`` less the
terms that are exact zeros, so their results equal the oracles' (the Bloch
action bit for bit). The matmul counts are exact, so they gate regressions
without timing noise.
"""

import random
import struct
from math import pi

import pytest

import blochiso._kernels
from blochiso.channels import KrausSet, bloch_affine_action, make_depolarizing
from blochiso.isomorphism import phi_inverse, verify_state_diagram
from blochiso.matrix import ComplexMatrix
from blochiso.sampling import axis_angle, bloch_in_ball, redundant_unitary_kraus, su2_haar
from blochiso.so3 import AxisAngle, orthogonality_deviation
from blochiso.su2 import Unitary2, negate, unitarity_deviation, unitary_from_axis_angle
from helpers import (
    amplitude_damping,
    bloch_affine_action_generic,
    orthogonality_deviation_generic,
    phi_inverse_generic,
    random_cptp_kraus,
    random_matrix,
    unitarity_deviation_generic,
)

HAAR_DRAWS = 10_000
AXES = [
    tuple(sign * float(i == k) for i in range(3)) for k in range(3) for sign in (1.0, -1.0)
]
ANGLES = (0.0, 1.0, pi, 4.0, 2.0 * pi)


def edge_unitaries() -> list[Unitary2]:
    units = [Unitary2(ComplexMatrix.identity(2))]
    units += [unitary_from_axis_angle(AxisAngle(ax, a)) for ax in AXES for a in ANGLES]
    return units + [negate(u) for u in units]


def sampled_unitaries() -> list[Unitary2]:
    rng = random.Random(20251)
    return [su2_haar(rng) for _ in range(HAAR_DRAWS)] + edge_unitaries()


def bits(rows) -> bytes:
    return struct.pack("9d", *(x for row in rows for x in row))


def channel_sets() -> list[KrausSet]:
    """One-operator Haar and edge sets, redundant unitary, random, depolarizing
    and damping sets."""
    rng = random.Random(20254)
    sets = [KrausSet((su2_haar(rng).matrix,)) for _ in range(2000)]
    sets += [KrausSet((u.matrix,)) for u in edge_unitaries()]
    sets += [redundant_unitary_kraus(rng, 2 + rng.randrange(3))[0] for _ in range(500)]
    sets += [random_cptp_kraus(rng, 1 + rng.randrange(4)) for _ in range(500)]
    sets += [make_depolarizing(p) for p in (0.0, 0.2, 0.5, 1.0)]
    return sets + [amplitude_damping(g) for g in (0.0, 0.3, 1.0)]


@pytest.fixture(scope="module")
def unitaries():
    return sampled_unitaries()


class TestMatchesGenericFormulas:
    def test_phi_inverse(self, unitaries):
        for u in unitaries:
            # Both sum each trace from 0.0, so even the zeros' signs agree.
            assert bits(phi_inverse(u).matrix) == bits(phi_inverse_generic(u))

    def test_bloch_affine_action(self):
        sets = channel_sets()
        assert len(sets) == 3069
        for k in sets:
            got, want = bloch_affine_action(k), bloch_affine_action_generic(k)
            assert bits(got.matrix) == bits(want.matrix)
            assert struct.pack("3d", *got.translation) == struct.pack("3d", *want.translation)

    def test_unitarity_deviation_on_unitaries(self, unitaries):
        for u in unitaries:
            assert unitarity_deviation(u.matrix) == unitarity_deviation_generic(u.matrix)

    def test_unitarity_deviation_on_arbitrary_matrices(self):
        rng = random.Random(20252)
        for _ in range(2000):
            m = random_matrix(rng, 2)
            assert unitarity_deviation(m) == unitarity_deviation_generic(m)

    def test_orthogonality_deviation_on_rotations(self, unitaries):
        for u in unitaries:
            rows = phi_inverse_generic(u)
            assert orthogonality_deviation(rows) == orthogonality_deviation_generic(rows)

    def test_orthogonality_deviation_on_arbitrary_matrices(self):
        rng = random.Random(20253)
        mats = [
            tuple(tuple(rng.gauss(0.0, 1.0) for _ in range(3)) for _ in range(3))
            for _ in range(2000)
        ]
        mats += [bloch_affine_action(random_cptp_kraus(rng, 3)).matrix for _ in range(50)]
        mats.append(bloch_affine_action(make_depolarizing(0.5)).matrix)
        for m in mats:
            assert orthogonality_deviation(m) == orthogonality_deviation_generic(m)


def test_double_cover_is_bitwise_exact(unitaries):
    for u in unitaries:
        assert bits(phi_inverse(u).matrix) == bits(phi_inverse(negate(u)).matrix)


@pytest.fixture
def matmuls(monkeypatch):
    """Shapes ``(rows, inner, cols)`` handed to the matmul kernel, one per call."""
    shapes = []
    kernel = blochiso._kernels.matmul

    def counted(ar, ac, a, bc, b):
        shapes.append((ar, ac, bc))
        return kernel(ar, ac, a, bc, b)

    monkeypatch.setattr(blochiso._kernels, "matmul", counted)
    return shapes


class TestMatmulCounts:
    def test_phi_inverse_makes_none(self, matmuls):
        u = su2_haar(random.Random(3))
        matmuls.clear()
        phi_inverse(u)
        assert matmuls == []

    def test_unitary_check_makes_none(self, matmuls):
        entries = su2_haar(random.Random(4)).matrix.entries
        Unitary2(ComplexMatrix(2, 2, entries))
        assert matmuls == []

    def test_bloch_affine_action_makes_only_the_tp_check(self, matmuls, monkeypatch):
        eigensolves = []
        kernel = blochiso._kernels.jacobi_hermitian

        def counted(n, a):
            eigensolves.append(n)
            return kernel(n, a)

        monkeypatch.setattr(blochiso._kernels, "jacobi_hermitian", counted)
        k = make_depolarizing(0.5)
        matmuls.clear()
        bloch_affine_action(k)
        # A* A for each of the four operators; the Choi spectrum is one 4x4 solve.
        assert matmuls == [(2, 2, 2)] * 4
        assert eigensolves == [4]

    def test_state_diagram_makes_two(self, matmuls):
        rng = random.Random(5)
        r, aa = bloch_in_ball(rng), axis_angle(rng)
        assert verify_state_diagram(r, aa).commutes
        # U rho, then (U rho) U*: the conjugation of the state.
        assert matmuls == [(2, 2, 2), (2, 2, 2)]

