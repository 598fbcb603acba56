"""The closed 2x2 and 3x3 forms give the generic products' answers exactly.

``bloch_affine_action`` (and ``phi_inverse``, its one-operator case),
``density_to_bloch``, ``unitarity_deviation`` and ``orthogonality_deviation``
perform the IEEE-754
operations of the generic matmul and sum formulas in ``helpers`` less the
terms that are exact zeros, so their results equal the oracles' (the Bloch
action and the Bloch vector of a state bit for bit). The Kraus-pair products of ``KrausSet.tp_deviation``,
``extract_unitary_via_gram`` and ``verify_inverse_pair`` perform the same
operations as the generic ones, so every result, and every exception on a
non-finite product, is the oracle's bit for bit; ``su2.compose``,
``su2.conjugate``, ``purity``, ``adjoint_action`` and ``apply_channel`` take
the same closed 2x2 product. The library's sums run left to right on every
Python version. The matmul counts are exact, so they gate regressions
without timing noise.
"""

import contextlib
import io
import itertools
import json
import random
import struct
from math import fsum, pi, sqrt

import pytest

import blochiso._kernels
from blochiso.bloch import (
    BlochVector,
    DensityOperator,
    bloch_to_density,
    density_to_bloch,
    purity,
)
from blochiso.channels import (
    KrausSet,
    apply_channel,
    bloch_affine_action,
    choi_of,
    classify,
    extract_unitary_via_gram,
    invert,
    make_depolarizing,
    verify_inverse_pair,
)
from blochiso.cli import main
from blochiso.isomorphism import (
    Su2AlgebraElement,
    adjoint_action,
    phi_inverse,
    verify_state_diagram,
)
from blochiso.matrix import ComplexMatrix, adjoint, max_abs_diff, scale
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
    _det3,
    apply,
    compose,
    orthogonality_deviation,
    rotation_from_axis_angle,
)
from blochiso.su2 import Unitary2, negate, unitarity_deviation, unitary_from_axis_angle
from helpers import (
    adjoint_action_generic,
    amplitude_damping,
    apply_channel_generic,
    bloch_affine_action_generic,
    choi_tp_deviation,
    density_to_bloch_generic,
    extract_unitary_via_gram_generic,
    fingerprint,
    geometry_inputs,
    orthogonality_deviation_generic,
    outcome,
    phi_inverse_generic,
    purity_generic,
    random_cptp_kraus,
    random_matrix,
    run_geometry_case,
    tp_deviation_generic,
    unitarity_deviation_generic,
    verify_inverse_pair_generic,
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

    def test_purity(self):
        for rho in densities():
            assert fingerprint(purity(rho).value) == fingerprint(purity_generic(rho))

    def test_adjoint_action(self):
        rng = random.Random(20259)
        cases = [
            (su2_haar(rng), Su2AlgebraElement(tuple(gaussian(rng) for _ in range(3))))
            for _ in range(2000)
        ]
        # Axis-aligned coordinates carry zeros of both signs; the largest
        # ones overflow the product, which must raise as the generic one does.
        edges = [Su2AlgebraElement(ax) for ax in AXES]
        edges += [Su2AlgebraElement((0.0, 0.0, 0.0)), Su2AlgebraElement((-0.0, -0.0, -0.0))]
        edges += [Su2AlgebraElement((1.5e308, 1.5e308, -0.0)), Su2AlgebraElement((-0.0, 1e308, -1.5e308))]
        cases += [(u, elem) for u in edge_unitaries() for elem in edges]
        raised = 0
        for u, elem in cases:
            got = outcome(adjoint_action, u, elem)
            assert got == outcome(adjoint_action_generic, u, elem)
            raised += isinstance(got[0], type)
        assert raised > 0

    def test_apply_channel(self):
        rng = random.Random(20260)
        sets = [redundant_unitary_kraus(rng, 1 + rng.randrange(4))[0] for _ in range(300)]
        sets += [make_depolarizing(p) for p in (0.0, 0.2, 0.5, 1.0)]
        # Axis-aligned unitaries split into copies whose weights flip the
        # zeros' signs.
        sets += [KrausSet((scale(u.matrix, 0.6), scale(u.matrix, -0.8))) for u in edge_unitaries()]
        for i, rho in enumerate(densities()):
            k = sets[i % len(sets)]
            assert outcome(apply_channel, k, rho) == outcome(apply_channel_generic, k, rho)

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


class TestKrausPairProducts:
    def test_tp_deviation(self, pair_sets):
        for k in pair_sets:
            assert outcome(k.tp_deviation) == outcome(tp_deviation_generic, k)

    @pytest.mark.parametrize("tol", [1e-9, 0.3, 0.6])
    def test_extract_unitary_via_gram(self, pair_sets, tol):
        # Looser tolerances carry non-proportional sets into the remix, the
        # unitarity check and the extra-direction branch.
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
        def branch(result, success):
            if not isinstance(result[0], type):
                return success
            return result[1].split(" (")[0].split(":")[0]

        gram, pair = set(), set()
        for k in pair_sets:
            for tol in (1e-9, 0.3, 0.6):
                gram.add(branch(outcome(extract_unitary_via_gram_generic, k, tol), "unitary"))
            pair.add(branch(outcome(verify_inverse_pair_generic, k, k), "report"))
        finite, overflow = "matrix entries must be finite", "absolute value too large"
        assert gram == {
            "unitary",
            "channel is not a unitary conjugation",
            "leading Gram direction is not unitary",
            "Gram directions disagree on the underlying unitary",
            finite,
            overflow,
        }
        assert pair == {"report", finite, overflow}


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
            assert bits(compose(ra, rb).matrix) == bits(want)
            v_terms = [[a[i][k] * v[k] for k in range(3)] for i in range(3)]
            want_v = [left_to_right(t) for t in v_terms]
            assert fingerprint(apply(ra, r).as_tuple()) == fingerprint(want_v)
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
            want = max_abs_diff(ComplexMatrix(2, 2, reduced), ComplexMatrix.identity(2))
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
        eigensolves = []
        kernel = blochiso._kernels.jacobi_hermitian

        def counted(n, a):
            eigensolves.append(n)
            return kernel(n, a)

        monkeypatch.setattr(blochiso._kernels, "jacobi_hermitian", counted)
        k = make_depolarizing(0.5)
        matmuls.clear()
        bloch_affine_action(k)
        # The trace-preservation check is a closed form too; the Choi
        # spectrum is one 4x4 solve.
        assert matmuls == []
        assert eigensolves == [4]

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
        state, plus, minus, group, _lift = run_geometry_case(inputs)
        assert state.commutes and group.commutes and plus == minus
        assert matmuls == []

