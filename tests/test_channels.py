"""Unit tests for channel representations, classification, and inversion."""

import random
from math import pi, sqrt

import pytest

from blochiso.bloch import PAULIS, bloch_to_density, density_to_bloch
from blochiso.channels import (
    ChannelKind,
    ChoiMatrix,
    KrausSet,
    apply_channel,
    bloch_affine_action,
    choi_of,
    classify,
    extract_unitary_via_gram,
    invert,
    is_cptp,
    kraus_from_choi,
    make_depolarizing,
    verify_inverse_pair,
)
from blochiso.errors import (
    DomainError,
    InvalidChannelError,
    NotInvertibleError,
    NotUnitaryConjugationError,
)
from blochiso.matrix import (
    ComplexMatrix,
    adjoint,
    hermitian_eig,
    max_abs_diff,
    scale,
)
from blochiso.sampling import (
    axis_angle as random_axis_angle,
    density as random_density,
    mixing_unitary,
    redundant_unitary_kraus,
    su2_haar,
)
from blochiso.so3 import AxisAngle
from blochiso.su2 import conjugate, unitary_from_axis_angle
from helpers import (
    add,
    amplitude_damping,
    choi_tp_deviation,
    from_rows,
    mul,
    phase_aligned_diff,
    random_cptp_kraus,
    remix_kraus,
    trace,
    zeros,
)

I2 = ComplexMatrix.identity(2)
Z = (0.0, 0.0, 1.0)
X = (1.0, 0.0, 0.0)

IDENTITY_SET = KrausSet((I2,))
BIT_FLIP = KrausSet((scale(I2, sqrt(0.5)), scale(PAULIS[0], sqrt(0.5))))


def large_non_tp_sets():
    """Redundant unitary sets scaled by 2e4. Their Choi roundoff exceeds the
    absolute positivity tolerance a ChoiMatrix enforces."""
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
            KrausSet((ComplexMatrix.identity(3),))

    def test_tp_deviation(self):
        assert IDENTITY_SET.tp_deviation() == 0.0
        assert KrausSet((scale(I2, 2.0),)).tp_deviation() == 3.0


class TestApply:
    def test_identity_channel(self):
        rng = random.Random(71)
        rho = random_density(rng)
        out = apply_channel(IDENTITY_SET, rho)
        assert max_abs_diff(out.matrix, rho.matrix) <= 1e-15

    def test_fully_depolarizing(self):
        rng = random.Random(72)
        k = make_depolarizing(0.0)
        for _ in range(10):
            out = apply_channel(k, random_density(rng))
            assert max_abs_diff(out.matrix, scale(I2, 0.5)) <= 1e-12

    def test_single_unitary_is_conjugation(self):
        rng = random.Random(73)
        u = su2_haar(rng)
        rho = random_density(rng)
        out = apply_channel(KrausSet((u.matrix,)), rho)
        assert max_abs_diff(out.matrix, conjugate(u, rho).matrix) <= 1e-15

    def test_rejects_non_tp(self):
        rng = random.Random(74)
        with pytest.raises(InvalidChannelError):
            apply_channel(KrausSet((scale(I2, 2.0),)), random_density(rng))

    def test_output_is_valid_state(self):
        rng = random.Random(75)
        for _ in range(50):
            k = random_cptp_kraus(rng, 1 + rng.randrange(4))
            out = apply_channel(k, random_density(rng))  # validates on build
            assert abs(trace(out.matrix).real - 1.0) <= 1e-10


class TestChoi:
    def test_identity_channel_choi(self):
        j = choi_of(IDENTITY_SET)
        expected = from_rows(
            [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]]
        )
        assert max_abs_diff(j.matrix, expected) == 0.0
        assert abs(trace(j.matrix) - 2.0) == 0.0
        assert j.rank() == 1

    def test_depolarizing_is_full_rank(self):
        for p in (0.1, 0.5, 0.9):
            assert choi_of(make_depolarizing(p)).rank() == 4

    def test_rank_invariant_under_remixing(self):
        rng = random.Random(76)
        for count in (2, 3, 4):
            k = random_cptp_kraus(rng, count)
            base_rank = choi_of(k).rank()
            remixed = remix_kraus(mixing_unitary(rng, count), k)
            assert choi_of(remixed).rank() == base_rank

    def test_remixing_preserves_channel_action(self):
        rng = random.Random(77)
        k = random_cptp_kraus(rng, 3)
        remixed = remix_kraus(mixing_unitary(rng, 3), k)
        for _ in range(10):
            rho = random_density(rng)
            a = apply_channel(k, rho)
            b = apply_channel(remixed, rho)
            assert max_abs_diff(a.matrix, b.matrix) <= 1e-11

    def test_tp_deviation_reflects_source(self):
        assert choi_tp_deviation(choi_of(IDENTITY_SET)) == 0.0
        assert choi_tp_deviation(choi_of(KrausSet((scale(I2, 2.0),)))) == 3.0

    def test_kraus_round_trip_through_choi(self):
        rng = random.Random(78)
        for count in (1, 2, 4):
            k = random_cptp_kraus(rng, count)
            j = choi_of(k)
            back = kraus_from_choi(j)
            assert len(back.operators) == j.rank()
            assert max_abs_diff(choi_of(back).matrix, j.matrix) <= 1e-10


class TestIsCptp:
    def test_identity(self):
        assert is_cptp(IDENTITY_SET).is_cptp

    def test_bit_flip(self):
        diag = is_cptp(BIT_FLIP)
        assert diag.is_cptp
        assert diag.tp_deviation <= 1e-15
        assert diag.choi_min_eigenvalue >= -1e-12

    def test_scaled_identity_fails(self):
        diag = is_cptp(KrausSet((scale(I2, 2.0),)))
        assert not diag.is_cptp
        assert diag.tp_deviation == 3.0

    def test_large_non_tp_set_gets_diagnostics(self):
        for big in large_non_tp_sets():
            diag = is_cptp(big)
            assert not diag.is_cptp
            assert diag.tp_deviation > 1.0


class TestClassify:
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
        # A trace-preserving set has a Gram weight of at most 1, which must
        # not be read against the tolerance.
        result = classify(KrausSet((I2,)), tol)
        assert result.kind is ChannelKind.UNITARY_CONJUGATION
        assert result.choi_rank == 1
        assert result.extracted_unitary == I2

    def test_kind_alias(self):
        assert ChannelKind.INVERTIBLE_WITH_CPTP_INVERSE is ChannelKind.UNITARY_CONJUGATION

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
        direct = apply_channel(k, rho)
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
                mul(adjoint(gram.mixing), gram.mixing), ComplexMatrix.identity(count)
            ) <= 1e-11

    def test_phase_pinning_is_deterministic(self):
        rng = random.Random(83)
        k, _u, _weights, _mix = redundant_unitary_kraus(rng, 2)
        u1, _ = extract_unitary_via_gram(k)
        u2, _ = extract_unitary_via_gram(k)
        assert u1 == u2
        pivot = max(u1.entries, key=abs)
        assert pivot.imag == pytest.approx(0.0, abs=1e-12)
        assert pivot.real > 0

    def test_rejects_genuinely_noisy_channel(self):
        with pytest.raises(NotUnitaryConjugationError) as exc_info:
            extract_unitary_via_gram(BIT_FLIP)
        err = exc_info.value
        assert err.pair in ((0, 1), (1, 0))
        assert err.residual > 0.1


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
            back = apply_channel(inv, apply_channel(k, rho))
            assert max_abs_diff(back.matrix, rho.matrix) <= 1e-12

    def test_inverse_is_cptp(self):
        rng = random.Random(87)
        for _ in range(20):
            k, _u, _weights, _mix = redundant_unitary_kraus(rng, 1 + rng.randrange(3))
            assert is_cptp(invert(k)).is_cptp

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
            direct = density_to_bloch(apply_channel(k, bloch_to_density(r)))
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
        eigenvalues = hermitian_eig(swap).eigenvalues
        assert max(abs(a - b) for a, b in zip(eigenvalues, (1.0, 1.0, 1.0, -1.0))) <= 1e-12


class TestDepolarizing:
    def test_unit_parameter_collapses_to_identity(self):
        k = make_depolarizing(1.0)
        assert len(k.operators) == 1
        assert max_abs_diff(k.operators[0], I2) <= 1e-15

    def test_is_cptp_across_range(self):
        for p in (0.0, 0.3, 1.0):
            assert is_cptp(make_depolarizing(p)).is_cptp

    def test_action_formula(self):
        rng = random.Random(90)
        p = 0.37
        k = make_depolarizing(p)
        for _ in range(10):
            rho = random_density(rng)
            out = apply_channel(k, rho)
            expected = add(scale(rho.matrix, p), scale(I2, (1 - p) / 2))
            assert max_abs_diff(out.matrix, expected) <= 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            make_depolarizing(1.5)
        with pytest.raises(DomainError):
            make_depolarizing(-0.1)
