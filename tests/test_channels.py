"""Unit tests for channel representations, classification, and inversion."""

import cmath
import hashlib
import random
from math import pi, sqrt

import pytest

from blochiso import _kernels
from blochiso.bloch import PAULIS, bloch_to_density, density_to_bloch
from blochiso.channels import (
    ChannelKind,
    ChoiMatrix,
    KrausSet,
    _rank,
    bloch_affine_action,
    choi_of,
    classify,
    extract_unitary_via_gram,
    invert,
    kraus_from_choi,
    verify_inverse_pair,
)
from blochiso.errors import (
    DomainError,
    InvalidChannelError,
    NotInvertibleError,
    NotUnitaryConjugationError,
)
from blochiso.matrix import DEFAULT_TOL, ComplexMatrix, adjoint, max_abs_diff, scale
from blochiso.sampling import (
    axis_angle as random_axis_angle,
    mixing_unitary,
    redundant_unitary_kraus,
    su2_haar,
)
from blochiso.so3 import AxisAngle
from blochiso.su2 import normalize_phase, unitary_from_axis_angle
from helpers import (
    add,
    amplitude_damping,
    apply_channel_generic,
    choi_tp_deviation,
    fingerprint,
    from_rows,
    hermitian_eig_reference,
    identity,
    make_depolarizing,
    mul,
    outcome,
    phase_aligned_diff,
    random_cptp_kraus,
    random_density,
    remix_kraus,
    su2_conjugate_reference,
    trace,
    verify_inverse_pair_generic,
    zeros,
)

I2 = identity(2)
Z = (0.0, 0.0, 1.0)
X = (1.0, 0.0, 0.0)

IDENTITY_SET = KrausSet((I2,))
BIT_FLIP = KrausSet((scale(I2, sqrt(0.5)), scale(PAULIS[0], sqrt(0.5))))


def choi_rank(j: ChoiMatrix) -> int:
    return _rank(j.spectrum.eigenvalues)


def large_non_tp_sets():
    """Redundant unitary sets scaled by 2e4, far from trace preservation.
    Their least Choi eigenvalue is a roundoff below -1e-9."""
    for seed in range(5):
        k = redundant_unitary_kraus(random.Random(seed), 3)[0]
        yield KrausSet(tuple(scale(op, 2e4) for op in k.operators))


class TestKrausSet:
    def test_prunes_zero_operators(self):
        k = KrausSet((I2, zeros(2, 2)))
        assert len(k.operators) == 1

    def test_rejects_all_zero(self):
        with pytest.raises(InvalidChannelError):
            KrausSet((zeros(2, 2),))

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidChannelError):
            KrausSet((identity(3),))

    def test_tp_deviation(self):
        assert IDENTITY_SET.tp_deviation() == 0.0
        assert KrausSet((scale(I2, 2.0),)).tp_deviation() == 3.0


class TestApply:
    """The channel action sum_a A_a rho A_a*, through generic products."""

    def test_identity_channel(self):
        rng = random.Random(71)
        rho = random_density(rng)
        out = apply_channel_generic(IDENTITY_SET, rho)
        assert max_abs_diff(out.matrix, rho.matrix) <= 1e-15

    def test_fully_depolarizing(self):
        rng = random.Random(72)
        k = make_depolarizing(0.0)
        for _ in range(10):
            out = apply_channel_generic(k, random_density(rng))
            assert max_abs_diff(out.matrix, scale(I2, 0.5)) <= 1e-12

    def test_single_unitary_is_conjugation(self):
        rng = random.Random(73)
        u = su2_haar(rng)
        rho = random_density(rng)
        out = apply_channel_generic(KrausSet((u.matrix,)), rho)
        assert max_abs_diff(out.matrix, su2_conjugate_reference(u, rho)) <= 1e-15

    def test_output_is_valid_state(self):
        rng = random.Random(75)
        for _ in range(50):
            k = random_cptp_kraus(rng, 1 + rng.randrange(4))
            out = apply_channel_generic(k, random_density(rng))  # validates on build
            assert abs(trace(out.matrix).real - 1.0) <= 1e-10


class TestChoi:
    def test_identity_channel_choi(self):
        j = choi_of(IDENTITY_SET)
        expected = from_rows(
            [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]]
        )
        assert max_abs_diff(j.matrix, expected) == 0.0
        assert abs(trace(j.matrix) - 2.0) == 0.0
        assert choi_rank(j) == 1

    def test_depolarizing_is_full_rank(self):
        for p in (0.1, 0.5, 0.9):
            assert choi_rank(choi_of(make_depolarizing(p))) == 4

    def test_eigenvalue_on_the_threshold_counts_as_zero(self):
        # The floor is delta(DEFAULT_TOL) / 12 = 2e-9 / 12 times the trace,
        # 1 + second: an eigenvalue of 2e-9 / 12 lies on it to 2e-10 of its
        # size. The numerical rank and the Kraus count both keep only
        # eigenvalues above it.
        for second, rank in ((2e-9 / 12, 1), (4e-9 / 12, 2)):
            j = ChoiMatrix(
                from_rows([[1, 0, 0, 0], [0, second, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
            )
            assert choi_rank(j) == rank
            assert len(kraus_from_choi(j).operators) == rank

    def test_rank_invariant_under_remixing(self):
        rng = random.Random(76)
        for count in (2, 3, 4):
            k = random_cptp_kraus(rng, count)
            base_rank = choi_rank(choi_of(k))
            remixed = remix_kraus(mixing_unitary(rng, count), k)
            assert choi_rank(choi_of(remixed)) == base_rank

    def test_remixing_preserves_channel_action(self):
        rng = random.Random(77)
        k = random_cptp_kraus(rng, 3)
        remixed = remix_kraus(mixing_unitary(rng, 3), k)
        for _ in range(10):
            rho = random_density(rng)
            a = apply_channel_generic(k, rho)
            b = apply_channel_generic(remixed, rho)
            assert max_abs_diff(a.matrix, b.matrix) <= 1e-11

    def test_tp_deviation_reflects_source(self):
        assert choi_tp_deviation(choi_of(IDENTITY_SET)) == 0.0
        assert choi_tp_deviation(choi_of(KrausSet((scale(I2, 2.0),)))) == 3.0

    @pytest.mark.parametrize("factor", [1e4, 1e5, 1e7])
    def test_positivity_is_relative_to_the_scale(self, factor):
        # Roundoff of about 1e-16 times the largest Choi eigenvalue once
        # failed an absolute -1e-9 positivity check on most of these sets.
        rng = random.Random(83)
        for _ in range(20):
            k = random_cptp_kraus(rng, 2)
            big = choi_of(KrausSet(tuple(scale(op, factor) for op in k.operators)))
            assert choi_rank(big) == choi_rank(choi_of(k)) == 2
            assert choi_rank(ChoiMatrix(big.matrix)) == 2

    def test_kraus_round_trip_through_choi(self):
        rng = random.Random(78)
        for count in (1, 2, 4):
            k = random_cptp_kraus(rng, count)
            j = choi_of(k)
            back = kraus_from_choi(j)
            assert len(back.operators) == choi_rank(j)
            assert max_abs_diff(choi_of(back).matrix, j.matrix) <= 1e-10


def diagonal_choi(*diagonal: float) -> ComplexMatrix:
    return ComplexMatrix(4, 4, tuple(diagonal[i // 5] if i % 5 == 0 else 0.0 for i in range(16)))


class TestChoiAtTheFloatRangesEdge:
    """The one eigensolver factors every finite Hermitian matrix its callers
    hand it, each of which checks its entries finite first. It once refused a
    matrix whose entries' doubles overflow, though it factors one exactly."""

    @pytest.fixture
    def factored(self, monkeypatch):
        sizes = []
        kernel = _kernels.jacobi_hermitian

        def counted(n, a):
            sizes.append(n)
            return kernel(n, a)

        monkeypatch.setattr(_kernels, "jacobi_hermitian", counted)
        return sizes

    def test_an_entry_whose_double_overflows_round_trips(self, factored):
        # J = vec(A) vec(A)* has the entry 1e308; kraus_from_choi raised
        # "matrix entries must be finite".
        k = KrausSet((ComplexMatrix(2, 2, (1e154, 0, 0, 0)),))
        (op,) = kraus_from_choi(choi_of(k)).operators
        assert op.entries == (1e154, 0, 0, 0)
        assert factored == [4]

    def test_a_checked_matrix_whose_sums_overflow_is_averaged_term_by_term(self):
        # (a + a) / 2 overflowed at 1e308; the average is a itself.
        j = ChoiMatrix(diagonal_choi(1e308, 0.0, 0.0, 0.0))
        assert j.spectrum.eigenvalues == (1e308, 0.0, 0.0, 0.0)
        (op,) = kraus_from_choi(j).operators
        assert op.entries == (1e154, 0, 0, 0)

    def test_a_trace_past_the_float_range_is_not_a_zero_matrix(self):
        # Both eigenvalues are finite and their sum is not: the rank floor
        # was inf, and kraus_from_choi said "Choi matrix is zero".
        j = ChoiMatrix(diagonal_choi(1e308, 1e308, 0.0, 0.0))
        assert j.spectrum.eigenvalues == (1e308, 1e308, 0.0, 0.0)
        with pytest.raises(DomainError, match="^matrix entries must be finite$"):
            kraus_from_choi(j)
        with pytest.raises(DomainError, match="^matrix entries must be finite$"):
            _rank(j.spectrum.eigenvalues)

    def test_a_deviation_past_the_float_range_is_not_hermitian(self):
        # J - J* has the finite entry 1.3e308 (1 + i), whose modulus abs()
        # refused with a bare OverflowError.
        c = 0.65e308
        m = ComplexMatrix(4, 4, (0.0, complex(c, c)) + (0.0,) * 2 + (complex(-c, c),) + (0.0,) * 11)
        with pytest.raises(InvalidChannelError, match="^Choi matrix must be Hermitian$"):
            ChoiMatrix(m)

    @pytest.mark.parametrize(
        "caller",
        [
            # The checked ChoiMatrix: its matrix's entries are validated.
            lambda s: ChoiMatrix(ComplexMatrix(4, 4, (s * s,) + (0.0,) * 15)),
            # choi_of's J, factored when kraus_from_choi reads its spectrum:
            # choi_of checks J's entries finite, here s^2.
            lambda s: kraus_from_choi(choi_of(KrausSet((ComplexMatrix(2, 2, (s, 0, 0, 0)),)))),
            # The Gram table: each coefficient is checked finite, here s^2 / 2.
            lambda s: extract_unitary_via_gram(KrausSet((ComplexMatrix(2, 2, (s, 0, 0, s)),))),
        ],
        ids=["ChoiMatrix", "choi_of", "gram"],
    )
    def test_each_caller_refuses_a_non_finite_entry_before_factoring(self, factored, caller):
        caller(1.0)
        assert len(factored) == 1
        factored.clear()
        with pytest.raises(DomainError, match="^matrix entries must be finite$"):
            caller(1e155)
        assert factored == []


class TestIsCptp:
    """A Kraus set is CPTP exactly when it is trace preserving within tol, the
    verdict ``classify`` reports as ``NotCptp`` when it fails."""

    def test_identity(self):
        assert IDENTITY_SET.tp_deviation() <= DEFAULT_TOL

    def test_bit_flip(self):
        assert BIT_FLIP.tp_deviation() <= 1e-15
        assert choi_of(BIT_FLIP).spectrum.eigenvalues[-1] >= -1e-12

    def test_scaled_identity_fails(self):
        assert KrausSet((scale(I2, 2.0),)).tp_deviation() == 3.0

    def test_large_non_tp_set_gets_diagnostics(self):
        for big in large_non_tp_sets():
            assert big.tp_deviation() > 1.0


def trace_preserving_sets(rng, count):
    """Seeded channels in turn: redundant unitary sets of 1 to 4 operators,
    depolarizing and amplitude damping."""
    for i in range(count):
        if i % 3 == 0:
            yield redundant_unitary_kraus(rng, 1 + (i // 3) % 4)[0]
        elif i % 3 == 1:
            yield make_depolarizing(rng.random())
        else:
            yield amplitude_damping(rng.random())


class TestRoundoffVerdict:
    """A Kraus set is completely positive by construction, so a set that
    passes trace preservation is CPTP at any tolerance. A least Choi
    eigenvalue of -1.6e-16, eigensolver roundoff, once made such sets
    NotCptp at tol 1e-16."""

    def test_trace_preserving_sets_are_cptp_at_every_tolerance(self):
        rng = random.Random(9)
        checked = dict.fromkeys((0.0, 1e-18, 1e-16, 1e-15, 1e-9), 0)
        for k in trace_preserving_sets(rng, 2100):
            dev = k.tp_deviation()
            for tol in checked:
                if dev <= tol:
                    checked[tol] += 1
                    assert classify(k, tol).kind is not ChannelKind.NOT_CPTP
                    bloch_affine_action(k, tol)
        assert checked[0.0] >= 500 and checked[1e-9] == 2100


def nudged(k: KrausSet, entry: complex) -> KrausSet:
    """k with entry added to the |0><1| entry of its first operator."""
    first, *rest = k.operators
    a, b, c, d = first.entries
    return KrausSet((ComplexMatrix(2, 2, (a, b + entry, c, d)), *rest))


def edge_sets() -> dict[str, KrausSet]:
    """The edge sets of this module, and refused sets at the edges of the
    rank count's domain: tiny and subnormal entries, and a trace off by
    0.36."""
    corner = KrausSet((from_rows([[1, 0], [0, 0]]),))
    u = su2_haar(random.Random(15)).matrix
    big = KrausSet(
        (
            ComplexMatrix(2, 2, (0j, 1e154 + 0j, 0j, 0j)),
            ComplexMatrix(2, 2, (1.3e154 + 1.3e154j, 0j, 0j, 0j)),
        )
    )
    sets = {f"large-non-tp-{i}": k for i, k in enumerate(large_non_tp_sets())}
    sets.update(
        {
            "identity": IDENTITY_SET,
            "bit-flip": BIT_FLIP,
            "projector": corner,
            "no-weight-1e-170": KrausSet((from_rows([[1e-170, 0], [0, 1]]),)),
            "scaled-1e-6": KrausSet((scale(u, 1.0 + 1e-6),)),
            "scaled-7.746e153": KrausSet((scale(u, 7.746e153),)),
            "big": big,
            "wide": KrausSet((ComplexMatrix(2, 2, (1.15e154 + 0j, 1.15e154 + 1.15e154j, 0j, 0j)),)),
            "damping-1e-170": nudged(amplitude_damping(0.3), 1e-170),
            "damping-subnormal": nudged(amplitude_damping(0.3), 1e-310),
            "depolarizing-1e-170": nudged(make_depolarizing(0.5), 1e-170),
            "depolarizing-1.36": KrausSet(
                tuple(scale(op, sqrt(1.36)) for op in make_depolarizing(0.01).operators)
            ),
        }
    )
    return sets


EDGE_TOLS = (DEFAULT_TOL, 1e-15, 0.0, 0.37, 2.0, 1e308, -1.0, float("nan"))


class TestClassify:
    def test_edge_sets_classify_as_before(self):
        # Each verdict, rank and unitary's bits, or the exception raised, as
        # classify gave them when a refused rank came from the Jacobi sweep.
        outcomes = {
            (name, tol): outcome(classify, KrausSet(k.operators), tol)
            for name, k in edge_sets().items()
            for tol in EDGE_TOLS
        }
        # One letter per tolerance of EDGE_TOLS: NotCptp, Unitary, Refused at
        # the rank after it, or DomainError("matrix entries must be finite").
        codes = {"NotCptp": "N", "UnitaryConjugation": "U", "CptpNotInvertible": "R"}
        summary = {}
        for (name, _), got in outcomes.items():
            if got[0] is DomainError:
                assert got[1] == "matrix entries must be finite"
                code = "D"
            else:
                code = codes[got[0].value] + (str(got[1]) if got[1] > 1 else "")
            summary[name] = summary.get(name, "") + code
        non_tp = {f"large-non-tp-{i}": "NNNNNUNN" for i in range(5)}
        assert summary == non_tp | {
            "identity": "UUUUUUNN",
            "bit-flip": "R2R2NUUUNN",
            "projector": "NNNNUUNN",
            "no-weight-1e-170": "NNNNUUNN",
            "scaled-1e-6": "NNNUUUNN",
            "scaled-7.746e153": "NNNNNUNN",
            "big": "DDDDDDDD",
            "wide": "DDDDDDDD",
            "damping-1e-170": "R2R2NUUUNN",
            "damping-subnormal": "R2R2NUUUNN",
            "depolarizing-1e-170": "R4R4NUUUNN",
            "depolarizing-1.36": "NNNR4UUNN",
        }
        digest = hashlib.sha256(repr(list(outcomes.values())).encode()).hexdigest()
        assert digest == "da59cf72d65ba1b21378e4407b8c59ce280cbe40d1bb54c5b44aa9a7800aeb32"
    def test_large_non_tp_set_is_not_cptp(self):
        for big in large_non_tp_sets():
            result = classify(big)
            assert result.kind is ChannelKind.NOT_CPTP
            assert result.choi_rank == 0 and result.extracted_unitary is None

    def test_single_unitary(self):
        k = KrausSet((unitary_from_axis_angle(AxisAngle(Z, pi / 3)).matrix,))
        result = classify(k)
        assert result.kind is ChannelKind.UNITARY_CONJUGATION
        assert result.choi_rank == 1
        assert result.extracted_unitary is not None

    @pytest.mark.parametrize("tol", [1.0, 2.0])
    def test_loose_tolerance_keeps_a_unitary(self, tol):
        # The leading Choi eigenvalue, 2 for a trace-preserving set, is never
        # read against the tolerance.
        result = classify(KrausSet((I2,)), tol)
        assert result.kind is ChannelKind.UNITARY_CONJUGATION
        assert result.choi_rank == 1
        assert result.extracted_unitary == I2

    def test_depolarizing(self):
        for p in (0.25, 0.5, 0.75):
            result = classify(make_depolarizing(p))
            assert result.kind is ChannelKind.CPTP_NOT_INVERTIBLE
            assert result.choi_rank == 4
            assert result.extracted_unitary is None

    def test_not_cptp(self):
        result = classify(KrausSet((scale(I2, 2.0),)))
        assert result.kind is ChannelKind.NOT_CPTP
        assert result.choi_rank == 0

    def test_redundant_representations(self):
        rng = random.Random(79)
        for _ in range(50):
            k, u, _weights, _mix = redundant_unitary_kraus(rng, 1 + rng.randrange(3))
            result = classify(k)
            assert result.kind is ChannelKind.UNITARY_CONJUGATION
            assert phase_aligned_diff(result.extracted_unitary, u.matrix) <= 1e-9


class TestExtraction:
    def test_identity_set(self):
        u, gram = extract_unitary_via_gram(IDENTITY_SET)
        assert max_abs_diff(u, I2) <= 1e-15
        assert gram.beta.entries == (1 + 0j,)
        assert gram.gamma == (1.0,)

    def test_phased_single_operator(self):
        import cmath

        base = unitary_from_axis_angle(AxisAngle(X, 1.1))
        k = KrausSet((scale(base.matrix, cmath.exp(1j * pi / 7)),))
        u, gram = extract_unitary_via_gram(k)
        assert gram.gamma == (1.0,)
        assert phase_aligned_diff(u, base.matrix) <= 1e-12
        # Conjugation by the extracted operator reproduces the channel.
        rng = random.Random(80)
        rho = random_density(rng)
        direct = apply_channel_generic(k, rho)
        via_u = mul(mul(u, rho.matrix), adjoint(u))
        assert max_abs_diff(direct.matrix, via_u) <= 1e-12

    def test_redundant_three_element_set(self):
        rng = random.Random(81)
        for _ in range(50):
            k, u, _weights, _mix = redundant_unitary_kraus(rng, 3)
            extracted, gram = extract_unitary_via_gram(k)
            assert phase_aligned_diff(extracted, u.matrix) <= 1e-9
            # Reversible channels have the rank-one Gram spectrum (1, 0, 0).
            assert abs(gram.gamma[0] - 1.0) <= 1e-10
            for tail in gram.gamma[1:]:
                assert abs(tail) <= 1e-10

    def test_gram_data_invariants(self):
        rng = random.Random(82)
        for _ in range(30):
            k, _u, _weights, _mix = redundant_unitary_kraus(rng, 1 + rng.randrange(4))
            _, gram = extract_unitary_via_gram(k)
            count = len(k.operators)
            assert abs(trace(gram.beta).real - 1.0) <= 1e-10
            assert max_abs_diff(gram.beta, adjoint(gram.beta)) <= 1e-12
            assert all(g >= -1e-10 for g in gram.gamma)
            assert max_abs_diff(
                mul(adjoint(gram.mixing), gram.mixing), identity(count)
            ) <= 1e-11

    def test_rejects_genuinely_noisy_channel(self):
        with pytest.raises(NotUnitaryConjugationError) as exc_info:
            extract_unitary_via_gram(BIT_FLIP)
        err = exc_info.value
        assert err.pair in ((0, 1), (1, 0))
        assert err.residual > 0.1


def near_unitary(eps: float) -> KrausSet:
    """sqrt(1 - 3 eps/4) U plus sqrt(eps/4) s_k U, k = x, y, z: weight eps off
    a fixed U (axis (0.6, 0, 0.8), angle 1.1)."""
    u = unitary_from_axis_angle(AxisAngle((0.6, 0.0, 0.8), 1.1)).matrix
    ops = [scale(u, sqrt(1.0 - 0.75 * eps))]
    ops += [scale(mul(p, u), sqrt(eps / 4.0)) for p in PAULIS]
    return KrausSet(tuple(ops))


class TestChoiEigenpairUnitary:
    """classify lifts its unitary from the Bloch rotation, pinned to det 1 with
    Re tr U >= 0, and it agrees with the leading Choi eigenpair's operator."""

    def test_same_channel_prints_the_same_unitary(self):
        # U, e^{i theta} U and a two-operator remix of its channel are one
        # channel; the pin ties only at Re tr U = 0 (angle pi).
        rng = random.Random(11)
        compared = 0
        for _ in range(2000):
            u = su2_haar(rng).matrix
            phased = KrausSet((scale(u, cmath.exp(2j * pi * rng.random())),))
            w = rng.random()
            remixed = remix_kraus(
                mixing_unitary(rng, 2), KrausSet((scale(u, sqrt(w)), scale(u, sqrt(1.0 - w))))
            )
            if abs((u.entries[0] + u.entries[3]).real) <= 1e-6:
                continue
            printed = classify(KrausSet((u,))).extracted_unitary
            # U is in SU(2) already, so the pin returns U or -U: the one
            # with det 1 and Re tr >= 0.
            assert min(max_abs_diff(printed, u), max_abs_diff(printed, scale(u, -1.0))) <= 1e-14
            a, b, c, d = printed.entries
            assert abs(a * d - b * c - 1.0) <= 1e-15 and (a + d).real >= 0.0
            for k in (phased, remixed):
                assert max_abs_diff(classify(k).extracted_unitary, printed) <= 1e-14
            compared += 1
        assert compared >= 1990

    def test_singular_rank_one_operator_past_the_tolerance_range(self):
        # At a tolerance this loose the set passes trace preservation, and
        # delta(tol) >= 3/4 exceeds every purity deficit: the verdict is read
        # off a rank-one Choi matrix, and M / (Tr J / 2) = diag(0, 0, 1) lifts
        # to I. The Gram route decides by the same two gates and lifts its
        # one operator, unscaled, to I as well.
        k = KrausSet((from_rows([[1, 0], [0, 0]]),))
        for tol in (2.0, 1e308):
            result = classify(k, tol)
            assert result.kind is ChannelKind.UNITARY_CONJUGATION
            assert result.choi_rank == 1 and result.extracted_unitary == I2
            assert extract_unitary_via_gram(k, tol)[0] == result.extracted_unitary

    @pytest.mark.parametrize("factor", [1.0 + 1e-6, 7.746e153])
    def test_scaled_set_lifts_its_unitary(self, factor):
        # c U is trace preserving within 2e-6 and 6e307: the lift reads M / c^2,
        # so it prints U to roundoff at any scale the float range holds.
        rng = random.Random(15)
        for _ in range(20):
            u = su2_haar(rng).matrix
            result = classify(KrausSet((scale(u, factor),)), 1e308)
            assert phase_aligned_diff(result.extracted_unitary, u) <= 1e-15

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_half_turn_prints_phi_tie(self, axis):
        # U = -i s_k and its negative are one channel, with w = 0: phi's
        # tie rule prints the quaternion whose axis component is positive.
        lifted = scale(PAULIS[axis], -1j)
        for sign in (1.0, -1.0):
            result = classify(KrausSet((scale(lifted, sign),)))
            assert result.extracted_unitary == lifted

    def test_one_lift_for_every_route(self):
        # normalize_phase, classify and the Gram route print phi of the
        # rotation of m, half turns e^{i theta}(-i s_k) included. The first
        # two sum Tr J alike, so they agree bit for bit; the Gram candidate
        # V[0][0] m, a unit phase times m, differs from m by roundoff.
        ops = [
            scale(PAULIS[k], -1j * cmath.exp(2j * pi * j / 64)) for k in range(3) for j in range(64)
        ]
        rng = random.Random(16)
        ops += [
            scale(su2_haar(rng).matrix, cmath.exp(2j * pi * rng.random())) for _ in range(2000)
        ]
        unequal = 0
        gram_diff = 0.0
        for m in ops:
            printed = classify(KrausSet((m,))).extracted_unitary
            unequal += fingerprint(normalize_phase(m).matrix) != fingerprint(printed)
            via_gram, _ = extract_unitary_via_gram(KrausSet((m,)))
            gram_diff = max(gram_diff, max_abs_diff(via_gram, printed))
        assert unequal == 0
        assert gram_diff <= 4e-16

    def test_classify_and_kraus_from_choi_build_the_same_operator(self):
        # The lift reads the same unitary as the Choi round trip's one
        # operator, to roundoff on unitary sets; on a near-unitary channel M
        # is contracted by about eps, and so is the lift's accuracy.
        rng = random.Random(13)
        sets = [(redundant_unitary_kraus(rng, 1 + i % 4)[0], 0.0) for i in range(40)]
        sets += [(near_unitary(eps), eps) for eps in (1e-10, 1e-16)]
        for k, eps in sets:
            (op,) = kraus_from_choi(choi_of(k)).operators
            lifted = normalize_phase(op).matrix
            assert max_abs_diff(classify(k).extracted_unitary, lifted) <= 1e-15 + eps

    def test_gram_route_agrees(self):
        # The Gram route decides by classify's rule, so it accepts the
        # near-unitary channels classify accepts, and its unitary is about
        # 0.13 eps from classify's there.
        rng = random.Random(14)
        sets = [(redundant_unitary_kraus(rng, 1 + i % 4)[0], 1e-14) for i in range(300)]
        epsilons = (1e-8, 1e-9, 1e-10, 1e-12, 1e-14, 1e-16)
        sets += [(near_unitary(eps), 1e-15 + eps) for eps in epsilons]
        accepted = 0
        for k, bound in sets:
            result = classify(k)
            try:
                via_gram, _ = extract_unitary_via_gram(k)
            except NotUnitaryConjugationError:
                assert result.kind is not ChannelKind.UNITARY_CONJUGATION
                continue
            assert result.kind is ChannelKind.UNITARY_CONJUGATION
            assert max_abs_diff(via_gram, result.extracted_unitary) <= bound
            accepted += 1
        assert accepted == 305

    @pytest.mark.parametrize("eps", [1e-8, 1e-10, 1e-16])
    def test_near_unitary_channel_at_rank_one_is_unitary(self, eps):
        # The purity deficit is about 1.5 eps: above delta(1e-9) = 2e-9 at
        # 1e-8, where the printed rank is the four Pauli directions.
        result = classify(near_unitary(eps))
        unitary = eps <= 1e-10
        assert result.choi_rank == (1 if unitary else 4)
        assert (result.kind is ChannelKind.UNITARY_CONJUGATION) is unitary
        # The Choi round trip keeps the operators above delta / 12 of the
        # trace: all four at 1e-8, one below, where the 3 eps / 4
        # of trace it drops is within tol. Either way its verdict is classify's.
        round_trip = classify(kraus_from_choi(choi_of(near_unitary(eps))))
        assert (round_trip.kind, round_trip.choi_rank) == (result.kind, result.choi_rank)
        if unitary:
            assert max_abs_diff(round_trip.extracted_unitary, result.extracted_unitary) <= 1e-15 + eps


class TestInversePair:
    def test_unitary_and_its_adjoint(self):
        rng = random.Random(84)
        u = su2_haar(rng)
        report = verify_inverse_pair(KrausSet((u.matrix,)), KrausSet((adjoint(u.matrix),)))
        assert report.valid
        assert abs(report.alpha.at(0, 0) - 1.0) <= 1e-12
        assert abs(report.alpha_square_sum - 1.0) <= 1e-12

    def test_mismatched_unitaries_fail(self):
        u = unitary_from_axis_angle(AxisAngle(Z, pi / 2))
        v = unitary_from_axis_angle(AxisAngle(X, pi / 2))
        report = verify_inverse_pair(KrausSet((u.matrix,)), KrausSet((adjoint(v.matrix),)))
        assert not report.valid

    def test_redundant_pair(self):
        rng = random.Random(85)
        for _ in range(20):
            k, _u, _weights, _mix = redundant_unitary_kraus(rng, 1 + rng.randrange(3))
            report = verify_inverse_pair(k, invert(k))
            assert report.valid
            assert abs(report.alpha_square_sum - 1.0) <= 1e-10

    @pytest.mark.parametrize(
        "eps, infidelity",
        [(1e-9, 7.5e-10), (1e-10, 7.5e-11), (1e-12, 7.5e-13), (1e-14, 7.7e-15), (1e-16, 0.0)],
    )
    def test_classify_and_invert_build_a_valid_pair(self, eps, infidelity):
        # The pair residual grows as sqrt(eps) / 2, up to 1.5e-5 here, far
        # above tol; the composite's 1 - F_e grows as 3 eps / 4, as the
        # deficit 1 - P ~ 3 eps / 2 classify accepts on does.
        k = near_unitary(eps)
        assert classify(k).kind is ChannelKind.UNITARY_CONJUGATION
        report = verify_inverse_pair(k, invert(k))
        assert report.valid
        assert report.max_residual > DEFAULT_TOL
        assert abs(report.infidelity - infidelity) <= 0.02 * infidelity + 1e-16

    def test_wrong_inverses_fail(self):
        k = near_unitary(1e-10)
        (inverse,) = invert(k).operators
        other = adjoint(unitary_from_axis_angle(AxisAngle((0.0, 0.6, 0.8), 1.1)).matrix)
        wrong = {
            "another unitary's adjoint": KrausSet((other,)),
            "not trace preserving": KrausSet((scale(inverse, 1.0 + 1e-6),)),
            "doubled": KrausSet((inverse, inverse)),
            "the forward set": k,
        }
        for label, candidate in wrong.items():
            assert not verify_inverse_pair(k, candidate).valid, label
        # Swapped, the pair is the same channel's inverse on the other side.
        assert verify_inverse_pair(invert(k), k).valid

    @pytest.mark.parametrize("corner", [0.0, 1e-170])
    def test_a_composite_with_no_weight_fails(self, corner):
        # Orthogonal supports make every product zero; at 1e-170 the product
        # is not zero, but its square underflows. Either way F_e is 0 / 0.
        forward = KrausSet((ComplexMatrix(2, 2, (1.0 + 0j, 0j, 0j, 0j)),))
        candidate = KrausSet((ComplexMatrix(2, 2, (corner + 0j, 0j, 0j, 1.0 + 0j)),))
        report = verify_inverse_pair(forward, candidate)
        assert not report.valid
        assert report.infidelity == 1.0
        assert report.tp_deviation == 1.0
        assert report == verify_inverse_pair_generic(forward, candidate)

    def test_a_non_trace_preserving_composite_reports_why(self):
        # sqrt(1 +- 1e-6) on the diagonal: alpha is 1 - 1.25e-13, so
        # |sum |alpha|^2 - 1| and 1 - F_e both stay far below tol, and only
        # the composite's trace preservation, off by 1e-6, fails it.
        candidate = ComplexMatrix(2, 2, (sqrt(1.0 + 1e-6) + 0j, 0j, 0j, sqrt(1.0 - 1e-6) + 0j))
        report = verify_inverse_pair(IDENTITY_SET, KrausSet((candidate,)))
        assert not report.valid
        assert abs(report.alpha_square_sum - 1.0) <= 1e-12
        assert report.infidelity <= 1e-12
        assert abs(report.tp_deviation - 1e-6) <= 1e-15

    def test_a_modulus_past_the_float_range_is_a_domain_error(self):
        # Every entry is finite, but a modulus is not: |P - coeff I| of
        # A_1 A_0 = 1.3e308 (1 + i) in the pair pass, and |sum P* P - I| of
        # P = A = [[1.15e154, 1.15e154 (1 + i)], [0, 0]] after it. Both were a
        # bare OverflowError from abs().
        big = KrausSet(
            (
                ComplexMatrix(2, 2, (0j, 1e154 + 0j, 0j, 0j)),
                ComplexMatrix(2, 2, (1.3e154 + 1.3e154j, 0j, 0j, 0j)),
            )
        )
        wide = KrausSet((ComplexMatrix(2, 2, (1.15e154 + 0j, 1.15e154 + 1.15e154j, 0j, 0j)),))
        for forward, candidate in ((big, big), (wide, IDENTITY_SET)):
            with pytest.raises(DomainError, match="^matrix entries must be finite$"):
                verify_inverse_pair(forward, candidate)
        with pytest.raises(DomainError, match="^matrix entries must be finite$"):
            extract_unitary_via_gram(big)


class TestInvert:
    def test_identity(self):
        inv = invert(IDENTITY_SET)
        assert len(inv.operators) == 1
        assert max_abs_diff(inv.operators[0], I2) <= 1e-15

    def test_round_trip_on_states(self):
        rng = random.Random(86)
        k = KrausSet((unitary_from_axis_angle(AxisAngle(Z, pi / 2)).matrix,))
        inv = invert(k)
        for _ in range(20):
            rho = random_density(rng)
            back = apply_channel_generic(inv, apply_channel_generic(k, rho))
            assert max_abs_diff(back.matrix, rho.matrix) <= 1e-12

    def test_inverse_is_cptp(self):
        rng = random.Random(87)
        for _ in range(20):
            k, _u, _weights, _mix = redundant_unitary_kraus(rng, 1 + rng.randrange(3))
            assert invert(k).tp_deviation() <= DEFAULT_TOL

    def test_depolarizing_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            invert(make_depolarizing(0.5))

    def test_non_cptp_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            invert(KrausSet((scale(I2, 2.0),)))


class TestAffineAction:
    def test_unitary_channel_is_rotation(self):
        rng = random.Random(88)
        for _ in range(20):
            aa = random_axis_angle(rng)
            u = unitary_from_axis_angle(aa)
            action = bloch_affine_action(KrausSet((u.matrix,)))
            from blochiso.so3 import rotation_from_axis_angle

            expected = rotation_from_axis_angle(aa)
            for i in range(3):
                assert abs(action.translation[i]) <= 1e-10
                for j in range(3):
                    assert abs(action.matrix[i][j] - expected.matrix[i][j]) <= 1e-10

    def test_depolarizing_rescales(self):
        for p in (0.2, 0.7):
            action = bloch_affine_action(make_depolarizing(p))
            for i in range(3):
                assert abs(action.translation[i]) <= 1e-12
                for j in range(3):
                    expected = p if i == j else 0.0
                    assert abs(action.matrix[i][j] - expected) <= 1e-12

    def test_amplitude_damping(self):
        g = 0.3
        action = bloch_affine_action(amplitude_damping(g))
        root = sqrt(1 - g)
        assert abs(action.translation[2] - g) <= 1e-12
        assert abs(action.translation[0]) <= 1e-12
        assert abs(action.translation[1]) <= 1e-12
        expected_diag = (root, root, 1 - g)
        for i in range(3):
            for j in range(3):
                expected = expected_diag[i] if i == j else 0.0
                assert abs(action.matrix[i][j] - expected) <= 1e-12

    def test_agrees_with_state_transport(self):
        rng = random.Random(89)
        for _ in range(30):
            k = random_cptp_kraus(rng, 1 + rng.randrange(4))
            action = bloch_affine_action(k)
            r = density_to_bloch(random_density(rng))
            direct = density_to_bloch(apply_channel_generic(k, bloch_to_density(r)))
            mapped = tuple(
                sum(action.matrix[i][j] * r.as_tuple()[j] for j in range(3))
                + action.translation[i]
                for i in range(3)
            )
            assert max(abs(a - b) for a, b in zip(direct.as_tuple(), mapped)) <= 1e-10

    def test_rejects_non_cptp(self):
        with pytest.raises(InvalidChannelError):
            bloch_affine_action(KrausSet((scale(I2, 2.0),)))


class TestReversibilityTraps:
    """Where purity preservation alone would mislead, the Bloch action answers."""

    def test_full_damping_keeps_purity_but_is_not_reversible(self):
        k = amplitude_damping(1.0)
        verdict = classify(k)
        assert verdict.kind is ChannelKind.CPTP_NOT_INVERTIBLE
        assert verdict.choi_rank == 2
        # Every state goes to |0>, so pure states stay pure, but the map is a
        # constant, not an isometry.
        action = bloch_affine_action(k)
        assert action.matrix == ((0.0, 0.0, 0.0),) * 3
        assert action.translation == (0.0, 0.0, 1.0)

    def test_transpose_is_not_completely_positive(self):
        def transpose(m):
            return ComplexMatrix(2, 2, (m.at(0, 0), m.at(1, 0), m.at(0, 1), m.at(1, 1)))

        # rho -> rho^T is invertible and keeps purity, but reflects the Bloch ball.
        reflection = [
            [0.5 * trace(mul(PAULIS[i], transpose(PAULIS[j]))).real for j in range(3)]
            for i in range(3)
        ]
        assert reflection == [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]
        # Its Choi matrix sum_ij E_ji (x) E_ij is the swap, which has eigenvalue -1.
        swap = ComplexMatrix(
            4,
            4,
            tuple(1.0 + 0j if c == 2 * (r % 2) + r // 2 else 0j for r in range(4) for c in range(4)),
        )
        with pytest.raises(InvalidChannelError, match="positive semidefinite"):
            ChoiMatrix(swap)
        eigenvalues = hermitian_eig_reference(swap).eigenvalues
        assert max(abs(a - b) for a, b in zip(eigenvalues, (1.0, 1.0, 1.0, -1.0))) <= 1e-12


class TestDepolarizing:
    def test_unit_parameter_collapses_to_identity(self):
        k = make_depolarizing(1.0)
        assert len(k.operators) == 1
        assert max_abs_diff(k.operators[0], I2) <= 1e-15

    def test_is_cptp_across_range(self):
        for p in (0.0, 0.3, 1.0):
            assert make_depolarizing(p).tp_deviation() <= DEFAULT_TOL

    def test_action_formula(self):
        rng = random.Random(90)
        p = 0.37
        k = make_depolarizing(p)
        for _ in range(10):
            rho = random_density(rng)
            out = apply_channel_generic(k, rho)
            expected = add(scale(rho.matrix, p), scale(I2, (1 - p) / 2))
            assert max_abs_diff(out.matrix, expected) <= 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            make_depolarizing(1.5)
        with pytest.raises(DomainError):
            make_depolarizing(-0.1)
