"""The closed 2x2 and 3x3 forms give the generic products' answers exactly.

``density_to_bloch``, ``unitarity_deviation`` and ``orthogonality_deviation``
perform the IEEE-754 operations of the generic matmul and sum formulas in
``helpers`` less the terms that are exact zeros, so their results equal the
oracles' (the Bloch vector of a state bit for bit). ``phi_inverse`` and
``rotation_from_axis_angle`` take the Euler-Rodrigues form of a quaternion
instead, within 2e-15 of the trace formula and of the Rodrigues form, and
``bloch_affine_action`` reads M and t off the process matrix chi, within
1e-15 of the generic chain; on a unitary it is ``phi_inverse`` to 2e-15,
and ``tests/test_purity_rule.py`` bounds it against exact arithmetic.
``KrausSet.tp_deviation`` reads sum A* A off chi too: here it is within
1e-15 of the generic sum of each A* A, and test_purity_rule bounds it
against exact arithmetic as well. The Kraus-pair products of
``extract_unitary_via_gram`` and ``verify_inverse_pair`` perform the same
operations as the generic ones, so every result, and every exception on a
non-finite product, is the oracle's bit for bit; the diagram checks take the
same closed 2x2 product. The Choi
table computes its upper triangle and mirrors it, the bits the full square
holds, and each lower entry of the Gram table has the bits of its mirror. The library's sums run left to right on every Python version.
The matmul counts are exact, so they gate regressions without timing noise.
"""

import contextlib
import io
import itertools
import json
import random
import struct
from math import fsum, pi, sqrt
from types import SimpleNamespace

import pytest

import blochiso._kernels
import blochiso.channels
from blochiso.bloch import BlochVector, DensityOperator, bloch_to_density, density_to_bloch
from blochiso.channels import (
    DEFAULT_TOL,
    ChannelKind,
    KrausSet,
    _choi_entries,
    _deficit_bound,
    _pair_table,
    bloch_affine_action,
    choi_of,
    classify,
    extract_unitary_via_gram,
    invert,
    verify_inverse_pair,
)
from blochiso.cli import main
from blochiso.isomorphism import phi_inverse, verify_state_diagram
from blochiso.errors import DomainError, NotUnitaryConjugationError
from blochiso.matrix import (
    ComplexMatrix,
    _adjoint2,
    _hermitian_eig,
    adjoint,
    max_abs_diff,
    scale,
)
from blochiso.sampling import (
    axis_angle,
    bloch_in_ball,
    gaussian,
    mixing_unitary,
    probability_vector,
    redundant_unitary_kraus,
    su2_haar,
)
from blochiso.so3 import (
    AxisAngle,
    Rotation3,
    _apply,
    _det3,
    _mul3,
    orthogonality_deviation,
    rotation_from_axis_angle,
)
from blochiso.su2 import (
    Unitary2,
    _chi,
    _chi_lift,
    _from_quaternion,
    negate,
    unitarity_deviation,
    unitary_from_axis_angle,
)
from helpers import (
    amplitude_damping,
    bloch_affine_action_generic,
    chi_deficit,
    chi_deficit_loop,
    chi_lift_index_max,
    choi_entries_generic,
    choi_tp_deviation,
    density_to_bloch_generic,
    extract_unitary_via_gram_generic,
    fingerprint,
    geometry_inputs,
    hermitian_eig_reference,
    identity,
    make_depolarizing,
    mul,
    orthogonality_deviation_generic,
    outcome,
    phi_inverse_generic,
    random_cptp_kraus,
    random_matrix,
    rodrigues_generic,
    run_geometry_case,
    tp_deviation_generic,
    tp_deviation_loop,
    trace,
    unitarity_deviation_generic,
    verify_inverse_pair_generic,
)
from test_channels import near_unitary

HAAR_DRAWS = 10_000
# KrausSet.tp_deviation, read off chi, is within 4.1e-16 of max(1, deviation)
# of the sum of the products A* A over TestUnrolledForms' 4136 sets (the
# bits matched before it read chi); the bound leaves a factor of about 2.5.
TP_ROUNDOFF = 1e-15
AXES = [
    tuple(sign * float(i == k) for i in range(3)) for k in range(3) for sign in (1.0, -1.0)
]
ANGLES = (0.0, 1.0, pi, 4.0, 2.0 * pi)


def edge_unitaries() -> list[Unitary2]:
    units = [Unitary2(identity(2))]
    units += [unitary_from_axis_angle(AxisAngle(ax, a)) for ax in AXES for a in ANGLES]
    return units + [negate(u) for u in units]


def sampled_unitaries() -> list[Unitary2]:
    rng = random.Random(20251)
    return [su2_haar(rng) for _ in range(HAAR_DRAWS)] + edge_unitaries()


def bits(rows) -> bytes:
    return struct.pack("9d", *(x for row in rows for x in row))


def max_gap(ra, rb) -> float:
    return max(abs(x - y) for a, b in zip(ra, rb) for x, y in zip(a, b))


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


def densities() -> list[DensityOperator]:
    """Seeded states in the ball, and |0><0| and I/2 with every sign of
    their zero parts."""
    rng = random.Random(20256)
    states = [bloch_to_density(bloch_in_ball(rng)) for _ in range(3000)]

    def signed(x: float) -> list[complex]:
        reals = (x, -x) if x == 0.0 else (x,)
        return [complex(re, im) for re in reals for im in (0.0, -0.0)]

    for a, d in ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5)):
        corners = itertools.product(signed(a), signed(0.0), signed(0.0), signed(d))
        states += [DensityOperator(ComplexMatrix(2, 2, entries)) for entries in corners]
    return states


class TestMatchesGenericFormulas:
    def test_density_to_bloch(self):
        for rho in densities():
            closed = density_to_bloch(rho).as_tuple()
            assert fingerprint(closed) == fingerprint(density_to_bloch_generic(rho))

    def test_phi_inverse(self, unitaries):
        # The quaternion form and the trace formula round differently; the
        # largest gap on these cases is 8.9e-16.
        for u in unitaries:
            assert max_gap(phi_inverse(u).matrix, phi_inverse_generic(u)) <= 2e-15

    def test_rotation_from_axis_angle(self):
        rng = random.Random(20257)
        cases = [axis_angle(rng) for _ in range(5000)]
        cases += [AxisAngle(ax, a) for ax in AXES for a in ANGLES]
        for aa in cases:
            assert max_gap(rotation_from_axis_angle(aa).matrix, rodrigues_generic(aa)) <= 2e-15

    def test_bloch_affine_action(self):
        # chi's sums and the Pauli images round differently; the largest gap
        # on these sets is 3.3e-16.
        sets = channel_sets()
        assert len(sets) == 3069
        for k in sets:
            got, want = bloch_affine_action(k), bloch_affine_action_generic(k)
            assert max_gap(got.matrix, want.matrix) <= 1e-15
            assert max_gap((got.translation,), (want.translation,)) <= 1e-15

    def test_bloch_affine_action_of_a_unitary_is_phi_inverse(self, unitaries):
        # The paper's map, read off the channel: M is the rotation of U (the
        # largest gap here is 8.9e-16) and nothing is translated.
        for u in unitaries:
            action = bloch_affine_action(KrausSet((u.matrix,)))
            assert max_gap(action.matrix, phi_inverse(u).matrix) <= 2e-15
            assert action.translation == (0.0, 0.0, 0.0)

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


def kraus(*entry_tuples) -> KrausSet:
    return KrausSet(tuple(ComplexMatrix(2, 2, e) for e in entry_tuples))


def kraus_pair_sets() -> list[KrausSet]:
    """Sets reaching every branch of the Gram pipeline and of its products."""
    rng = random.Random(20255)
    sets = [redundant_unitary_kraus(rng, count)[0] for count in (1, 2, 3, 4) for _ in range(150)]
    sets += [make_depolarizing(p) for p in (0.0, 0.5, 1.0)]
    sets += [amplitude_damping(g) for g in (0.0, 0.3, 1.0)]
    # Not proportional, and not trace preserving.
    sets += [random_cptp_kraus(rng, 1 + rng.randrange(4)) for _ in range(100)]
    sets += [
        KrausSet(tuple(random_matrix(rng, 2) for _ in range(1 + rng.randrange(3))))
        for _ in range(100)
    ]
    # Exact zeros of both signs: axis-aligned unitaries, split into
    # redundant copies whose weights flip the zeros' signs.
    for u in edge_unitaries():
        m = u.matrix
        sets.append(KrausSet((m,)))
        sets.append(KrausSet((scale(m, 0.6), scale(m, -0.8))))
        sets.append(KrausSet((scale(m, -0.6j), scale(m, 0.8), scale(m, -0.0 + 0j))))
    nz = complex(-0.0, -0.0)
    sets.append(kraus((1.0, nz, complex(-0.0, 0.0), complex(1.0, -0.0))))
    sets.append(kraus((nz, 1.0, 1.0, nz), (sqrt(0.5), nz, nz, -sqrt(0.5))))
    # Overflow: the products (1e160, 1e200) or their square sums (1e150,
    # 1.2e154 twice) leave the float range, or |P - coeff I| does (1.3e154).
    for big in (1e150, 1e160, 1e200):
        sets.append(kraus((0.6 * big, 0j, 0j, 0.6 * big)))
        sets.append(KrausSet((scale(su2_haar(rng).matrix, big),) * 2))
    sets.append(kraus((1.2e154, 0j, 0j, 1.2e154), (1.2e154, 0j, 0j, 1.2e154)))
    sets.append(kraus((0j, 1e154, 0j, 0j), (complex(1.3e154, 1.3e154), 0j, 0j, 0j)))
    return sets


@pytest.fixture(scope="module")
def pair_sets():
    return kraus_pair_sets()


def assert_tp_deviation_within_roundoff(sets, oracle):
    """KrausSet.tp_deviation reads sum A* A off chi, not off the products
    the oracle sums, so the two agree to TP_ROUNDOFF of max(1, deviation),
    and raise the same exception where the oracle raises."""
    for k in sets:
        want = outcome(oracle, k)
        if isinstance(want[0], type):
            assert outcome(k.tp_deviation) == want
        else:
            want = oracle(k)
            assert abs(k.tp_deviation() - want) <= TP_ROUNDOFF * max(1.0, want)


class TestKrausPairProducts:
    def test_tp_deviation(self, pair_sets):
        assert_tp_deviation_within_roundoff(pair_sets, tp_deviation_generic)

    @pytest.mark.parametrize("tol", [1e-9, 0.3, 0.6])
    def test_extract_unitary_via_gram(self, pair_sets, tol):
        # Looser tolerances carry non-proportional sets into the remix.
        for k in pair_sets:
            got = outcome(extract_unitary_via_gram, k, tol)
            assert got == outcome(extract_unitary_via_gram_generic, k, tol)

    def test_verify_inverse_pair(self, pair_sets):
        for k in pair_sets:
            inverses = [k, KrausSet(tuple(adjoint(op) for op in k.operators))]
            try:
                unitary, _ = extract_unitary_via_gram_generic(k)
            except (ValueError, OverflowError):
                pass
            else:
                inverses.append(KrausSet((adjoint(unitary),)))
            for k_inv in inverses:
                got = outcome(verify_inverse_pair, k, k_inv)
                assert got == outcome(verify_inverse_pair_generic, k, k_inv)

    def test_every_branch_is_reached(self, pair_sets):
        def branch(success, function, *args):
            # A modulus past the float range raises DomainError from abs()'s
            # OverflowError, a branch of its own.
            try:
                function(*args)
            except Exception as exc:
                cause = exc.__cause__
                raised = cause if isinstance(cause, OverflowError) else exc
                return str(raised).split(" (")[0].split(":")[0]
            return success

        gram, pair = set(), set()
        for k in pair_sets:
            for tol in (1e-9, 0.3, 0.6):
                gram.add(branch("unitary", extract_unitary_via_gram_generic, k, tol))
            pair.add(branch("report", verify_inverse_pair_generic, k, k))
        finite, overflow = "matrix entries must be finite", "absolute value too large"
        assert gram == {"unitary", "channel is not a unitary conjugation", finite, overflow}
        assert pair == {"report", finite, overflow}


class TestUnrolledForms:
    """_chi_deficit unrolls its ten weighted squares: the loop form's
    operations in their order, so the same bits, or the same exception, on
    every set. tp_deviation reads sum A* A off chi, within TP_ROUNDOFF of
    the loop over each A* A."""

    @pytest.fixture(scope="class")
    def sets(self):
        family = [near_unitary(10.0 ** (-i / 4.0)) for i in range(65)]  # eps 1 to 1e-16
        return channel_sets() + family + kraus_pair_sets()

    def test_tp_deviation(self, sets):
        assert len(sets) == 3069 + 65 + len(kraus_pair_sets())
        assert_tp_deviation_within_roundoff(sets, tp_deviation_loop)

    def test_chi_deficit(self, sets):
        for k in sets:
            chi = _chi(k.operators)
            assert outcome(chi_deficit, chi) == outcome(chi_deficit_loop, chi)

    def test_chi_lift_picks_the_first_of_equal_rows(self, sets):
        # Half turns about (+-1, +-1, 0) / sqrt(2) and the like tie two or
        # more diagonal entries of chi; every phase of U keeps chi.
        ties = []
        for q in itertools.product((-1.0, 0.0, 1.0), repeat=4):
            norm = sqrt(sum(v * v for v in q))
            if norm:
                u = _from_quaternion(*(v / norm for v in q)).matrix
                ties += [KrausSet((scale(u, phase),)) for phase in (1.0, 1j, -1.0, -1j)]
        for k in sets + ties:
            chi = _chi(k.operators)
            assert outcome(_chi_lift, chi) == outcome(chi_lift_index_max, chi)


def near_proportional_sets() -> list[tuple[KrausSet, float]]:
    """Seeded sets A_a = c_a U + eps G_a of 2 to 4 operators, with eps
    log-uniform in [1e-8, 1], each paired with a tolerance log-uniform in
    [1e-9, 1e3]; G_a and c_a are complex Gaussian."""
    rng = random.Random(13)
    out = []
    for _ in range(2000):
        u = su2_haar(rng).matrix.entries
        count = 2 + rng.randrange(3)
        eps = 10.0 ** rng.uniform(-8.0, 0.0)
        tol = 10.0 ** rng.uniform(-9.0, 3.0)
        ops = []
        for _ in range(count):
            c = complex(rng.gauss(0, 1), rng.gauss(0, 1))
            noise = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
            ops.append(ComplexMatrix(2, 2, tuple(c * x + eps * g for x, g in zip(u, noise))))
        out.append((KrausSet(tuple(ops)), tol))
    return out


def gram_verdict(k: KrausSet, tol: float) -> bool | None:
    """Whether the Gram route accepts k at tol; None when it raises
    DomainError."""
    try:
        extract_unitary_via_gram(k, tol)
    except NotUnitaryConjugationError as exc:
        assert str(exc).startswith("channel is not a unitary conjugation: tp deviation")
        return False
    except DomainError:
        return None
    return True


def classify_verdict(k: KrausSet, tol: float) -> bool | None:
    try:
        return classify(k, tol).kind is ChannelKind.UNITARY_CONJUGATION
    except DomainError:
        return None


class TestGramRank:
    """The Gram rank is 1 exactly when the Choi purity is 1, and together
    with trace preservation that is the paper's criterion, so the Gram route
    gives classify's verdict at every tolerance. Past tol = 3/8, delta >= 3/4
    exceeds every deficit and the route accepts every set that is trace
    preserving within tol, as classify does."""

    @pytest.mark.parametrize("tol", [1e-9, 0.3, 0.6, 2.0, 1e3])
    def test_pair_sets(self, pair_sets, tol):
        verdicts = []
        for k in pair_sets:
            verdict = gram_verdict(k, tol)
            if verdict is not None:
                assert verdict is classify_verdict(k, tol)
            verdicts.append(verdict)
        assert verdicts.count(None) == 6  # past the float range
        # Past tol = 3/8 only the trace gate refuses.
        refused = [k for k, verdict in zip(pair_sets, verdicts) if verdict is False]
        assert refused
        if tol >= 0.375:
            assert all(k.tp_deviation() > tol for k in refused)
        assert verdicts.count(True) >= 600

    def test_near_proportional_sets(self):
        verdicts = []
        for k, tol in near_proportional_sets():
            verdict = gram_verdict(k, tol)
            assert verdict is classify_verdict(k, tol)
            verdicts.append(verdict)
        assert verdicts.count(False) > 100
        assert verdicts.count(True) > 100

    @pytest.mark.parametrize("entries", [(1, 0, 0, 0), (0, 1, 0, 0)])
    def test_a_single_operator_that_is_not_trace_preserving_is_refused(self, entries):
        # chi of one operator is pure, so only the trace gate refuses it.
        k = KrausSet((ComplexMatrix(2, 2, tuple(complex(x) for x in entries)),))
        assert chi_deficit(_chi(k.operators)) <= _deficit_bound(DEFAULT_TOL)
        with pytest.raises(NotUnitaryConjugationError, match="^channel is not a unitary conjugation"):
            extract_unitary_via_gram(k)
        assert classify(k).kind is ChannelKind.NOT_CPTP


MIRROR_SCALES = (1e-160, 1e-30, 1.0, 1e30, 1e150, 3e153)


def mirror_sets() -> list[list[ComplexMatrix]]:
    """Seeded sets of 1 to 4 operators with entries in the unit square, some
    of them zeros of either sign, and axis-aligned unitaries alone and in
    pairs, each at every scale in MIRROR_SCALES; then three sets near 1e154
    whose Choi entries are finite and, doubled, overflow. For the last one,
    diag(1e154, 0), the spectrum itself stays finite."""
    rng = random.Random(1515)
    zeros = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))
    sets = []
    for count in (1, 2, 3, 4):
        for _ in range(40):
            ops = []
            for _ in range(count):
                e = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
                for i in rng.sample(range(4), rng.randrange(3)):
                    e[i] = rng.choice(zeros)
                ops.append(e)
            sets.append(ops)
    edge = [list(u.matrix.entries) for u in edge_unitaries()]
    sets += [[u] for u in edge] + [[u, edge[(i + 5) % len(edge)]] for i, u in enumerate(edge)]
    scaled = [
        [ComplexMatrix(2, 2, tuple(x * s for x in op)) for op in ops] for ops in sets for s in MIRROR_SCALES
    ]
    overflow = [[ComplexMatrix(2, 2, (x, 0j, 0j, x))] * count for x, count in ((1.2e154, 1), (9e153, 2))]
    return scaled + overflow + [[ComplexMatrix(2, 2, (1e154, 0j, 0j, 0j))]]


class TestHermitianMirror:
    """The Choi table is built as half a matrix plus its mirror, the Gram
    table in full with each lower entry the bits of its mirror; both are
    factored with no Hermiticity check and no symmetrization."""

    @pytest.fixture(scope="class")
    def sets(self):
        return mirror_sets()

    def test_tables_equal_the_full_squares(self, sets):
        for ops in sets:
            # Not a KrausSet, which would drop the operators below 1e-12.
            choi = outcome(_choi_entries, SimpleNamespace(operators=ops))
            assert choi == outcome(lambda: ComplexMatrix(4, 4, choi_entries_generic(ops)))
            entries = [op.entries for op in ops]
            lefts = [_adjoint2(e) for e in entries]
            gram = outcome(_pair_table, lefts, entries)
            if not isinstance(gram[0], type):
                generic = [trace(mul(adjoint(x), y)) / 2.0 for x in ops for y in ops]
                n = len(ops)
                assert gram[0] == fingerprint(ComplexMatrix(n, n, tuple(generic)))
                table = _pair_table(lefts, entries)[0].entries
                for i in range(n):
                    for j in range(i):
                        mirror = 0j + table[j * n + i].conjugate()
                        assert fingerprint(table[i * n + j]) == fingerprint(mirror)

    def test_factoring_equals_hermitian_eig(self, sets):
        refused = []
        for ops in sets:
            entries = [op.entries for op in ops]
            tables = [_choi_entries(SimpleNamespace(operators=ops))]
            try:
                tables.append(_pair_table([_adjoint2(e) for e in entries], entries)[0])
            except DomainError:
                # Tr(A* A) overflowed: the table itself refuses.
                pass
            for m in tables:
                got = outcome(_hermitian_eig, m.rows, m.entries)
                assert got == outcome(hermitian_eig_reference, m)
                if isinstance(got[0], type):
                    refused.append((m.rows, got[1]))
        # A Gram coefficient is half a finite sum, so only the Choi tables of
        # the three sets near 1e154 have entries whose double overflows.
        assert refused == [(4, "matrix entries must be finite")] * 3


def exact_rotations() -> list[Rotation3]:
    """Signed permutations and axis rotations by 4 rad (cos and sin < 0)."""
    rotations = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            rows = tuple(tuple(signs[i] if j == perm[i] else 0.0 for j in range(3)) for i in range(3))
            if abs(_det3(rows) - 1.0) < 0.5:
                rotations.append(Rotation3(rows))
    axes = [tuple(sign * float(i == k) for i in range(3)) for k in range(3) for sign in (1.0, -1.0)]
    return rotations + [rotation_from_axis_angle(AxisAngle(ax, 4.0)) for ax in axes]


def left_to_right(terms, start=0.0):
    for t in terms:
        start += t
    return start


class TestLeftToRightSums:
    """Built-in ``sum`` compensates float rounding from Python 3.12 on, so
    the library sums left to right itself; these inputs tell the two apart."""

    def test_rotation_products(self):
        rng = random.Random(20256)
        # Exact zeros times negative entries give -0.0 products; a sum of
        # three of them is +0.0 only from a +0.0 start.
        edges = [phi_inverse(u) for u in edge_unitaries()] + exact_rotations()
        cases = [(ra, rb, BlochVector(*rb.matrix[0])) for ra in edges for rb in edges]
        for _ in range(1000):
            cases.append((phi_inverse(su2_haar(rng)), phi_inverse(su2_haar(rng)), bloch_in_ball(rng)))
        distinguishing = 0
        for ra, rb, r in cases:
            a, b, v = ra.matrix, rb.matrix, r.as_tuple()
            terms = [[[a[i][k] * b[k][j] for k in range(3)] for j in range(3)] for i in range(3)]
            want = [[left_to_right(t) for t in row] for row in terms]
            assert bits(_mul3(a, b)) == bits(want)
            v_terms = [[a[i][k] * v[k] for k in range(3)] for i in range(3)]
            want_v = [left_to_right(t) for t in v_terms]
            assert fingerprint(_apply(a, v)) == fingerprint(want_v)
            distinguishing += any(
                left_to_right(t) != fsum(t) for row in terms + [v_terms] for t in row
            )
        assert distinguishing > 0

    def test_frobenius_norm(self):
        rng = random.Random(20257)
        distinguishing = 0
        for _ in range(1000):
            m = random_matrix(rng, 2)
            terms = [e.real * e.real + e.imag * e.imag for e in m.entries]
            assert m.frobenius_norm() == sqrt(left_to_right(terms))
            distinguishing += left_to_right(terms) != fsum(terms)
        assert distinguishing > 0

    def test_probability_vector(self):
        distinguishing = 0
        for seed in range(300):
            got = probability_vector(random.Random(seed), 6)
            draws = random.Random(seed)
            raw = [0.1 + draws.random() for _ in range(6)]
            assert fingerprint(got) == fingerprint(tuple(w / left_to_right(raw) for w in raw))
            distinguishing += left_to_right(raw) != fsum(raw)
        assert distinguishing > 0

    def test_mixing_unitary(self):
        for seed in range(100):
            got = mixing_unitary(random.Random(seed), 4)
            assert fingerprint(got.entries) == fingerprint(mixing_unitary_left_to_right(seed, 4))

    def test_choi_partial_trace(self):
        rng = random.Random(20258)
        for _ in range(200):
            choi = choi_of(random_cptp_kraus(rng, 1 + rng.randrange(4)))
            m = choi.matrix
            reduced = tuple(
                left_to_right((m.at(i, j), m.at(2 + i, 2 + j)), 0j)
                for i in range(2)
                for j in range(2)
            )
            want = max_abs_diff(ComplexMatrix(2, 2, reduced), identity(2))
            assert fingerprint(choi_tp_deviation(choi)) == fingerprint(want)


def mixing_unitary_left_to_right(seed: int, n: int) -> tuple[complex, ...]:
    """``sampling.mixing_unitary`` with every sum written left to right."""
    rng = random.Random(seed)
    cols: list[list[complex]] = []
    for _ in range(n):
        while True:
            v = [complex(gaussian(rng), gaussian(rng)) for _ in range(n)]
            for _pass in range(2):
                for u in cols:
                    overlap = left_to_right((u[i].conjugate() * v[i] for i in range(n)), 0j)
                    for i in range(n):
                        v[i] -= overlap * u[i]
            nrm = sqrt(left_to_right(e.real * e.real + e.imag * e.imag for e in v))
            if nrm > 1e-6:
                cols.append([e / nrm for e in v])
                break
    return tuple(cols[j][i] for i in range(n) for j in range(n))


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
        eigensolves, chis = [], []
        kernel, chi = blochiso._kernels.jacobi_hermitian, blochiso.channels._chi

        def counted(n, a):
            eigensolves.append(n)
            return kernel(n, a)

        def counted_chi(operators):
            chis.append(len(operators))
            return chi(operators)

        monkeypatch.setattr(blochiso._kernels, "jacobi_hermitian", counted)
        monkeypatch.setattr(blochiso.channels, "_chi", counted_chi)
        k = make_depolarizing(0.5)
        matmuls.clear()
        bloch_affine_action(k)
        # The trace-preservation check is a closed form too, and the only
        # check: a Kraus set is completely positive, so no Choi spectrum.
        # M and t are read off one chi of the four operators.
        assert matmuls == []
        assert eigensolves == []
        assert chis == [4]

    def test_classify_invert_verify_make_none(self, matmuls):
        k = redundant_unitary_kraus(random.Random(6), 3)[0]
        matmuls.clear()
        assert verify_inverse_pair(k, invert(k)).valid
        assert classify(k).extracted_unitary is not None
        assert matmuls == []

    def test_state_diagram_makes_none(self, matmuls):
        rng = random.Random(5)
        r, aa = bloch_in_ball(rng), axis_angle(rng)
        assert verify_state_diagram(r, aa).commutes
        # U rho U* is the closed 2x2 product, twice.
        assert matmuls == []

    def test_cli_convert_to_bloch_makes_none(self, matmuls, tmp_path):
        rho = bloch_to_density(BlochVector(0.25, -0.5, 0.125))
        matrix = [[[z.real, z.imag] for z in rho.matrix.entries[r : r + 2]] for r in (0, 2)]
        doc = {"schema_version": "1", "kind": "density", "payload": {"matrix": matrix}}
        path = tmp_path / "density.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["convert", "--to", "bloch", str(path)]) == 0
        assert json.loads(out.getvalue())["payload"]["vector"] == [0.25, -0.5, 0.125]
        assert matmuls == []

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_geometry_case_makes_none(self, matmuls, seed):
        inputs = geometry_inputs(random.Random(seed))
        matmuls.clear()
        state, plus, minus, group, _lift, _negated = run_geometry_case(inputs)
        assert state.commutes and group.commutes and plus == minus
        assert matmuls == []

