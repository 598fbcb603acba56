"""The geometry path trusts the values it builds and keeps their bytes.

Rotations from the quaternion form and ``phi_inverse`` skip the float
rebuild and the finiteness pass but keep the orthogonality and det checks.
The 2x2 values of ``su2`` and ``bloch_to_density`` skip validation, and the
SU(2) products are the closed ``matrix._mul2``; the ``Unitary2`` and
``DensityOperator`` checks still run on each value a public function returns.
The diagram checks compose in the private tuple forms (``so3._mul3``,
``so3._apply``, ``su2._entries``, ``bloch._density_entries``) and check only
the values they return. Every result is compared bit for bit, zero signs
included, with the fully validated generic forms kept in ``helpers``
(``*_reference``), the diagrams with the chains of such forms, and every
rejected input must raise the same error with the same message. The closed
forms that read a matrix's entries once (``so3._apply``, ``su2.det2``,
``axis_angle_from_unitary``) are compared with the forms that index it entry
by entry, on inputs holding exact zeros of both signs; the validators'
refusals are pinned by type and message.
"""

import random
from math import nan, pi

import pytest

from blochiso.bloch import BlochVector, DensityOperator, _hermiticity_deviation, bloch_to_density
from blochiso.errors import DomainError, NonStateError
from blochiso.isomorphism import phi_inverse, verify_group_diagram, verify_state_diagram
from blochiso.matrix import ComplexMatrix, _adjoint2, _mul2, adjoint, scale
from blochiso.sampling import axis_angle, bloch_in_ball, su2_haar, unit_vector
from blochiso.so3 import (
    AxisAngle,
    Rotation3,
    _apply,
    _mul3,
    orthogonality_deviation,
    rotation_from_axis_angle,
)
from blochiso.su2 import (
    Unitary2,
    axis_angle_from_unitary,
    det2,
    negate,
    unitarity_deviation,
    unitary_from_axis_angle,
)
from helpers import (
    axis_angle_from_unitary_reference,
    bloch_to_density_reference,
    density_operator_reference,
    det2_reference,
    fingerprint,
    hermitian_deviation_reference,
    identity,
    outcome,
    phi_inverse_reference,
    random_matrix,
    rotation_from_axis_angle_reference,
    rotation_reference,
    so3_apply_reference,
    so3_compose_reference,
    su2_compose_reference,
    su2_conjugate_reference,
    su2_negate_reference,
    unitary_from_axis_angle_reference,
    verify_group_diagram_reference,
    verify_state_diagram_reference,
)

SEED = 9090
TOL = 1e-9
AXES = [
    tuple(sign * float(i == k) for i in range(3)) for k in range(3) for sign in (1.0, -1.0)
]
EDGE_ANGLES = (0.0, pi, 2.0 * pi)
# Axis-aligned quarter and half turns: their unitaries hold exact zeros of
# both signs, their rotations exact positive zeros.
QUARTER_AND_HALF = [AxisAngle(axis, angle) for axis in AXES for angle in (0.5 * pi, pi)]


def axis_angles() -> list[AxisAngle]:
    """Axis-aligned and random axes at 0, pi and 2 pi, then sampled ones."""
    rng = random.Random(SEED)
    edges = [AxisAngle(axis, angle) for axis in AXES for angle in EDGE_ANGLES]
    random_axes = [AxisAngle(unit_vector(rng), a) for a in EDGE_ANGLES for _ in range(4)]
    return edges + random_axes + [axis_angle(rng) for _ in range(150)]


def unitaries() -> list[Unitary2]:
    """+-I (the negated one with signed zeros), the edge lifts, Haar draws."""
    rng = random.Random(SEED + 1)
    plus_i = Unitary2(identity(2))
    minus_i = Unitary2(ComplexMatrix(2, 2, (-1.0 + 0j, 0j, 0j, -1.0 + 0j)))
    lifts = [unitary_from_axis_angle(aa) for aa in axis_angles()[:30]]
    return [plus_i, minus_i, negate(plus_i)] + lifts + [su2_haar(rng) for _ in range(100)]


def edge_rotations() -> list[Rotation3]:
    """The quarter and half turns, then each with its exact zeros negated."""
    turns = [rotation_from_axis_angle(aa).matrix for aa in QUARTER_AND_HALF]
    flipped = [tuple(tuple(-0.0 if x == 0.0 else x for x in row) for row in m) for m in turns]
    return [Rotation3(m) for m in turns + flipped]


def edge_unitaries() -> list[Unitary2]:
    lifts = [unitary_from_axis_angle(aa) for aa in QUARTER_AND_HALF]
    return lifts + [negate(u) for u in lifts]


def rotations() -> list[Rotation3]:
    return [rotation_from_axis_angle(aa) for aa in axis_angles()] + [
        phi_inverse(u) for u in unitaries()[:40]
    ]


def bloch_vectors() -> list[BlochVector]:
    """The origin (both zero signs), the poles and axis points, points of
    the ball, and points with norm in (1, 1 + tol]."""
    rng = random.Random(SEED + 2)
    points = [BlochVector(0.0, 0.0, 0.0), BlochVector(-0.0, -0.0, -0.0)]
    points += [BlochVector(*axis) for axis in AXES]
    points += [bloch_in_ball(rng) for _ in range(100)]
    for excess in (1e-15, 1e-12, 1e-10, 5e-10, 9.99e-10):
        for _ in range(4):
            d = unit_vector(rng)
            points.append(BlochVector(*(c * (1.0 + excess) for c in d)))
    return points


# The tuple forms the diagrams compose in, each result checked as a public
# function checks the value it returns.


def composed_rotation(ra: Rotation3, rb: Rotation3) -> Rotation3:
    return Rotation3._built(_mul3(ra.matrix, rb.matrix))


def applied(rot: Rotation3, r: BlochVector) -> BlochVector:
    return BlochVector(*_apply(rot.matrix, r.as_tuple()))


def composed_unitary(ua: Unitary2, ub: Unitary2) -> Unitary2:
    return Unitary2(ComplexMatrix._trusted(2, 2, _mul2(ua.matrix.entries, ub.matrix.entries)))


def conjugated(u: Unitary2, rho: DensityOperator) -> DensityOperator:
    """U rho U*, as the state diagram's path B forms it."""
    ue = u.matrix.entries
    rho_u = _mul2(_mul2(ue, rho.matrix.entries), _adjoint2(ue))
    return DensityOperator(ComplexMatrix._trusted(2, 2, rho_u))


def test_the_cases_reach_every_edge():
    norms = [r.norm() for r in bloch_vectors()]
    assert min(norms) == 0.0
    assert sum(1.0 < n <= 1.0 + TOL for n in norms) >= 10
    assert {aa.angle for aa in axis_angles()} >= set(EDGE_ANGLES)
    zeros = {fingerprint(0.0), fingerprint(-0.0)}
    rotation_zeros = {fingerprint(x) for rot in edge_rotations() for row in rot.matrix for x in row}
    entries = [e for u in edge_unitaries() for e in u.matrix.entries]
    unitary_parts = [p for e in entries for p in (e.real, e.imag)]
    assert rotation_zeros >= zeros
    assert {fingerprint(p) for p in unitary_parts} >= zeros


class TestRotations:
    def test_public_construction(self):
        cases = [rot.matrix for rot in rotations()]
        cases += [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
            ((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0)),
            ((1.0, 1e-6, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
            ((1.0, 0.0), (0.0, 1.0)),
            ((float("nan"), 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
            ((float("inf"), 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
        ]
        for m in cases:
            assert outcome(lambda x: Rotation3(x).matrix, m) == outcome(rotation_reference, m)

    def test_rotation_from_axis_angle(self):
        for aa in axis_angles():
            got = outcome(lambda a: rotation_from_axis_angle(a).matrix, aa)
            assert got == outcome(rotation_from_axis_angle_reference, aa)

    def test_compose(self):
        rots = rotations()
        pairs = list(zip(rots, rots[1:])) + [(r, r) for r in rots[:30]]
        for ra, rb in pairs:
            got = outcome(lambda a, b: composed_rotation(a, b).matrix, ra, rb)
            assert got == outcome(so3_compose_reference, ra, rb)

    def test_apply(self):
        vectors = bloch_vectors()
        # Every edge rotation on the origin (both zero signs) and the axes.
        pairs = [(rot, r) for rot in edge_rotations() for r in vectors[:8]]
        pairs += list(zip(rotations(), vectors * 3))
        for rot, r in pairs:
            assert outcome(applied, rot, r) == outcome(so3_apply_reference, rot, r)

    def test_phi_inverse(self):
        for u in unitaries():
            assert outcome(lambda v: phi_inverse(v).matrix, u) == outcome(phi_inverse_reference, u)

    def test_built_values_equal_public_ones(self):
        for rot in rotations():
            twin = Rotation3(rot.matrix)
            assert twin == rot and hash(twin) == hash(rot) and repr(twin) == repr(rot)


class TestSpecialUnitaries:
    def test_unitary_from_axis_angle(self):
        for aa in axis_angles():
            got = outcome(unitary_from_axis_angle, aa)
            assert got == outcome(unitary_from_axis_angle_reference, aa)

    def test_compose(self):
        us = unitaries()
        pairs = list(zip(us, us[1:])) + [(u, u) for u in us[:30]]
        for ua, ub in pairs:
            assert outcome(composed_unitary, ua, ub) == outcome(su2_compose_reference, ua, ub)

    def test_negate(self):
        for u in unitaries():
            assert outcome(negate, u) == outcome(su2_negate_reference, u)

    def test_det2(self):
        rng = random.Random(SEED + 5)
        cases = [u.matrix for u in unitaries() + edge_unitaries()]
        cases += [random_matrix(rng, 2) for _ in range(100)]
        for m in cases:
            assert outcome(det2, m) == outcome(det2_reference, m)

    def test_axis_angle_from_unitary(self):
        for u in unitaries() + edge_unitaries():
            got = outcome(axis_angle_from_unitary, u)
            assert got == outcome(axis_angle_from_unitary_reference, u)

    def test_conjugate(self):
        states = [bloch_to_density(r) for r in bloch_vectors()]
        for u, rho in zip(unitaries() * 2, states):
            got = outcome(lambda v, s: conjugated(v, s).matrix, u, rho)
            assert got == outcome(su2_conjugate_reference, u, rho)


class TestStates:
    @pytest.mark.parametrize("tol", [TOL, 0.0, 1e-6])
    def test_bloch_to_density(self, tol):
        rng = random.Random(SEED + 3)
        beyond = [BlochVector(*(c * (1.0 + 2e-9) for c in unit_vector(rng))) for _ in range(4)]
        for r in bloch_vectors() + beyond:
            got = outcome(lambda v: bloch_to_density(v, tol).matrix, r)
            assert got == outcome(bloch_to_density_reference, r, tol)

    def test_hermiticity_deviation(self):
        rng = random.Random(SEED + 4)
        cases = [bloch_to_density(r).matrix for r in bloch_vectors()]
        for _ in range(100):
            g = random_matrix(rng, 2)
            hermitian = tuple((x + y) * 0.5 for x, y in zip(g.entries, adjoint(g).entries))
            cases += [g, scale(g, 1e-300), scale(g, 1e200), ComplexMatrix(2, 2, hermitian)]
            cases.append(ComplexMatrix(2, 2, g.entries[:3] + (-0.0j,)))
        cases.append(ComplexMatrix(2, 2, (1e308j, 1e308 + 0j, -1e308 + 0j, -1e308j)))
        for m in cases:
            assert outcome(_hermiticity_deviation, m) == outcome(hermitian_deviation_reference, m)


def density(*entries) -> ComplexMatrix:
    return ComplexMatrix(2, 2, entries)


def refusal(function, *args) -> tuple[type, str]:
    """The exact type and message of what ``function(*args)`` raised."""
    with pytest.raises(Exception) as info:
        function(*args)
    return type(info.value), str(info.value)


class TestErrorParity:
    REJECTED_ROTATIONS = [
        (
            ((1.0, 1e-6, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
            r"^matrix is not orthogonal \(deviation 1\.000e-06\)$",
        ),
        (
            ((2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
            r"^matrix is not orthogonal \(deviation 3\.000e\+00\)$",
        ),
        # The transpose map's Bloch action: orthogonal, det -1.
        (
            ((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0)),
            r"^rotation must have det \+1, got -1\.0$",
        ),
    ]

    @pytest.mark.parametrize("rows, message", REJECTED_ROTATIONS)
    def test_built_and_public_rotations_raise_alike(self, rows, message):
        with pytest.raises(DomainError, match=message):
            Rotation3._built(rows)
        with pytest.raises(DomainError, match=message):
            Rotation3(rows)
        assert outcome(Rotation3._built, rows) == outcome(rotation_reference, rows)

    @pytest.mark.parametrize(
        "m, message",
        [
            (density(0.5, 0.1, 0.2, 0.5), "^density operator must be Hermitian$"),
            (density(0.6, 0j, 0j, 0.6), r"^density operator trace must be 1, got 1\.2$"),
            (density(1.2, 0j, 0j, -0.2), "^density operator must be positive semidefinite$"),
            (density(1.0 + 9e-10, 0j, 0j, -9e-10), "^density operator purity exceeds 1$"),
            (identity(3), "^density operator must be 2x2$"),
        ],
        ids=["hermitian", "trace", "psd", "purity", "shape"],
    )
    def test_density_operator_messages(self, m, message):
        with pytest.raises(NonStateError, match=message):
            DensityOperator(m)
        reference = outcome(lambda x: DensityOperator(density_operator_reference(x)), m)
        assert outcome(DensityOperator, m) == reference

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_outside_values_are_still_checked_finite(self, bad):
        with pytest.raises(DomainError, match="^rotation entries must be finite$"):
            Rotation3(((bad, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
        with pytest.raises(DomainError, match="^matrix entries must be finite$"):
            ComplexMatrix(2, 2, (complex(bad, 0.0), 0j, 0j, 1.0))
        with pytest.raises(DomainError, match="^matrix entries must be finite$"):
            ComplexMatrix(2, 2, (complex(0.0, bad), 0j, 0j, 1.0))


class TestValidatorRefusals:
    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("bad", [nan, float("inf"), float("-inf")])
    def test_bloch_components_must_be_finite(self, position, bad):
        components = [0.5, -0.0, 0.25]
        components[position] = bad
        assert refusal(BlochVector, *components) == (DomainError, "Bloch components must be finite")

    def test_bloch_fields_are_converted_and_checked_in_order(self):
        finite = (DomainError, "Bloch components must be finite")
        assert refusal(BlochVector, nan, "x", 0.0) == finite
        assert refusal(BlochVector, "x", nan, 0.0) == (
            ValueError,
            "could not convert string to float: 'x'",
        )
        assert refusal(BlochVector, 0.0, float("inf"), "y") == finite

    @pytest.mark.parametrize(
        "axis, angle, message",
        [
            ((1.0, 0.0), 1.0, "axis must be a finite 3-vector"),
            ((1.0, 0.0, 0.0, 0.0), 1.0, "axis must be a finite 3-vector"),
            ((nan, 0.0, 1.0), 1.0, "axis must be a finite 3-vector"),
            ((1.0, 1.0, 0.0), 1.0, "axis must be a unit vector, got norm 1.4142135623730951"),
            ((1.0, 0.0, 0.0), -1e-300, "angle must lie in [0, 2*pi], got -1e-300"),
            (
                (1.0, 0.0, 0.0),
                2.0 * pi * (1.0 + 1e-15),
                "angle must lie in [0, 2*pi], got 6.283185307179593",
            ),
            ((1.0, 0.0, 0.0), nan, "angle must lie in [0, 2*pi], got nan"),
            # Two faults: the axis is checked before the angle is read.
            ((nan, 0.0), "x", "axis must be a finite 3-vector"),
            ((2.0, 0.0, 0.0), nan, "axis must be a unit vector, got norm 2.0"),
        ],
    )
    def test_axis_angle_refusals(self, axis, angle, message):
        assert refusal(AxisAngle, axis, angle) == (DomainError, message)

    def test_axis_angle_conversion_errors(self):
        assert refusal(AxisAngle, ("x", 0.0, 0.0), 1.0) == (
            ValueError,
            "could not convert string to float: 'x'",
        )
        assert refusal(AxisAngle, (1.0, 0.0, 0.0), "x") == (
            ValueError,
            "could not convert string to float: 'x'",
        )
        assert refusal(AxisAngle, 5.0, 1.0) == (TypeError, "'float' object is not iterable")


def diagram_words() -> list[list[AxisAngle]]:
    """Seeded 3-words, one-element words at every edge angle, and words of
    identities, half turns and quarter turns."""
    rng = random.Random(SEED + 6)
    words = [[axis_angle(rng) for _ in range(3)] for _ in range(2000)]
    words += [[aa] for aa in axis_angles()]
    identity_turn = AxisAngle(AXES[4], 0.0)
    words += [[identity_turn] * k for k in (1, 2, 5)]
    words += [[aa] * k for aa in QUARTER_AND_HALF for k in (2, 3, 4)]
    return words


def state_cases() -> list[tuple[BlochVector, AxisAngle]]:
    """Seeded pairs, then every edge vector (norms in (1, 1 + tol] too)
    under the edge axis-angles."""
    rng = random.Random(SEED + 7)
    cases = [(bloch_in_ball(rng), axis_angle(rng)) for _ in range(2000)]
    edges = axis_angles()[: len(AXES) * len(EDGE_ANGLES)] + QUARTER_AND_HALF
    return cases + [(r, aa) for r in bloch_vectors() for aa in edges[::3]]


class TestDiagramParity:
    """The diagrams equal the chains of fully checked values they replaced,
    under ``==`` and bit for bit, and refuse the same inputs alike."""

    def test_state_diagram(self):
        for r, aa in state_cases():
            got = verify_state_diagram(r, aa)
            want = verify_state_diagram_reference(r, aa)
            assert got == want and fingerprint(got) == fingerprint(want)

    def test_group_diagram(self):
        for word in diagram_words():
            got = verify_group_diagram(word)
            want = verify_group_diagram_reference(word)
            assert got == want and fingerprint(got) == fingerprint(want)

    @pytest.mark.parametrize(
        "r",
        [BlochVector(0.0, 0.0, 1.0 + 2e-9), BlochVector(2.0, 0.0, 0.0), BlochVector(0.6, 0.6, 0.6)],
    )
    def test_out_of_ball_vectors_are_refused_alike(self, r):
        aa = AxisAngle(AXES[0], 1.0)
        got = refusal(verify_state_diagram, r, aa)
        assert got == refusal(verify_state_diagram_reference, r, aa)
        assert got[0] is NonStateError and got[1].endswith(" exceeds 1")

    def test_a_rotation_past_the_float_range_is_refused_by_the_norm_check(self):
        # The one refusal that differs from the checked chain, which built
        # the rotated vector as a BlochVector and refused it as not finite.
        r, aa = BlochVector(1.7e308, 1.7e308, 0.0), AxisAngle(AXES[4], 0.25 * pi)
        assert refusal(verify_state_diagram, r, aa) == (
            NonStateError,
            "Bloch vector norm inf exceeds 1",
        )
        assert refusal(verify_state_diagram_reference, r, aa) == (
            DomainError,
            "Bloch components must be finite",
        )

    def test_empty_words_are_refused_alike(self):
        expected = (DomainError, "need at least one axis-angle")
        assert refusal(verify_group_diagram, []) == expected
        assert refusal(verify_group_diagram_reference, []) == expected


class TestLongWords:
    """The diagrams check only what they return, so a long word's partial
    products are never checked on their own. These words show what that
    leaves: the returned rotations are the checks that can bind."""

    def test_near_unit_axes_commute(self):
        # AxisAngle accepts an axis norm within 1e-12 of 1, and each such
        # factor adds about 1.8e-12 to the SU(2) product's unitarity
        # deviation. The chain that checked each partial product refused
        # the word after about 560 factors; the dropped rotation is
        # normalized, so the diagram itself is far inside its tolerance.
        word = [AxisAngle((0.0, 0.0, 1.0000000000009), 2.5)] * 1000
        report = verify_group_diagram(word)
        assert report.commutes and report.max_deviation < 1e-12
        refused = (DomainError, "matrix is not unitary (deviation 1.000e-09)")
        assert refusal(verify_group_diagram_reference, word) == refused

    def test_unit_axes_drift_far_under_the_tolerance(self):
        # The checked chain, step by step: no partial product comes near
        # DEFAULT_TOL, so the checks the diagram dropped could not fire.
        # The rotation side drifts faster than the unitary side (about 20
        # times here, 150 times over 2e5 factors), so the check on the
        # returned r_total is the one that binds.
        rng = random.Random(SEED + 8)
        word = [axis_angle(rng) for _ in range(10_000)]
        u = unitary_from_axis_angle_reference(word[0])
        rot = Rotation3(rotation_from_axis_angle_reference(word[0]))
        worst_u = worst_r = 0.0
        for aa in word[1:]:
            u = su2_compose_reference(u, unitary_from_axis_angle_reference(aa))
            factor = Rotation3(rotation_from_axis_angle_reference(aa))
            rot = Rotation3(so3_compose_reference(rot, factor))
            worst_u = max(worst_u, unitarity_deviation(u.matrix))
            worst_r = max(worst_r, orthogonality_deviation(rot.matrix))
        assert worst_u < 1e-11 and worst_r < 1e-11
        report = verify_group_diagram(word)
        assert report.commutes
        assert fingerprint(report.path_a_result.matrix) == fingerprint(phi_inverse_reference(u))
        assert fingerprint(report.path_b_result) == fingerprint(rot)
