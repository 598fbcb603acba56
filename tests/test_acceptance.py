"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion. All suites are seeded and finish in well under 30 s.
"""

import random
from math import sqrt

from blochiso import so3
from blochiso.bloch import BlochVector, bloch_to_density
from blochiso.channels import (
    ChannelKind,
    bloch_affine_action,
    classify,
    extract_unitary_via_gram,
    invert,
    verify_inverse_pair,
)
from blochiso.isomorphism import phi, phi_inverse, verify_state_diagram
from blochiso.matrix import adjoint, max_abs_diff
from blochiso.sampling import (
    axis_angle as random_axis_angle,
    bloch_in_ball,
    redundant_unitary_kraus,
    su2_haar,
    unit_vector,
)
from blochiso.so3 import Rotation3, orthogonality_deviation
from blochiso.su2 import negate, unitary_from_axis_angle
from helpers import (
    GOLDEN_CASES,
    GOLDEN_DIR,
    Su2AlgebraElement,
    adjoint_action_generic,
    apply_channel_generic,
    expm_taylor,
    is_pure,
    make_depolarizing,
    pauli_generator,
    phase_aligned_diff,
    purity_generic,
    random_density,
    rotation_as_cmatrix,
    rotation_generator,
    run_golden_case,
    so3_compose_reference,
    su2_compose_reference,
    trace,
)


def remixed_cases():
    """The 200 redundant unitary-channel constructions shared by the
    invertibility and Gram-pipeline criteria (criterion 7 runs on every
    case of criterion 6a)."""
    rng = random.Random(1006)
    return [redundant_unitary_kraus(rng, 2 + rng.randrange(3)) for _ in range(200)]


def rot_det(rot: Rotation3) -> float:
    m = rot.matrix
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def rot_diff(a: Rotation3, b: Rotation3) -> float:
    return max(
        abs(a.matrix[i][j] - b.matrix[i][j]) for i in range(3) for j in range(3)
    )


def test_criterion_01_state_transport_suite():
    """1000 seeded (r, axis, angle): rotating the vector equals conjugating
    the state, entrywise within 1e-10."""
    rng = random.Random(1001)
    worst = 0.0
    for _ in range(1000):
        report = verify_state_diagram(bloch_in_ball(rng), random_axis_angle(rng))
        worst = max(worst, report.max_deviation)
    assert worst <= 1e-10
    print(f"ACCEPTANCE 01 PASS  state transport, 1000 samples, max dev {worst:.3e}")


def test_criterion_02_closed_forms_match_series_exponentials():
    """Quaternion rotation vs exp(-i a n.tau) and half-angle form vs
    exp(-i a/2 n.sigma), 1000 samples each, within 1e-10."""
    rng = random.Random(1002)
    worst_rot = 0.0
    worst_uni = 0.0
    for _ in range(1000):
        aa = random_axis_angle(rng)
        series_rot = expm_taylor(rotation_generator(aa.axis, aa.angle), 48)
        closed_rot = rotation_as_cmatrix(so3.rotation_from_axis_angle(aa))
        worst_rot = max(worst_rot, max_abs_diff(series_rot, closed_rot))
        series_uni = expm_taylor(pauli_generator(aa.axis, aa.angle), 48)
        closed_uni = unitary_from_axis_angle(aa).matrix
        worst_uni = max(worst_uni, max_abs_diff(series_uni, closed_uni))
    assert worst_rot <= 1e-10
    assert worst_uni <= 1e-10
    print(
        "ACCEPTANCE 02 PASS  closed forms vs series, "
        f"rotation dev {worst_rot:.3e}, unitary dev {worst_uni:.3e}"
    )


def test_criterion_03_trace_formula_suite():
    """1000 random special unitaries: the dropped rotation is orthogonal with
    unit determinant within 1e-11 and identical for U and -U, bit for bit."""
    rng = random.Random(1003)
    worst_orth = 0.0
    worst_det = 0.0
    for _ in range(1000):
        u = su2_haar(rng)
        rot = phi_inverse(u)
        worst_orth = max(worst_orth, orthogonality_deviation(rot.matrix))
        worst_det = max(worst_det, abs(rot_det(rot) - 1.0))
        assert phi_inverse(negate(u)).matrix == rot.matrix
    assert worst_orth <= 1e-11
    assert worst_det <= 1e-11
    print(
        "ACCEPTANCE 03 PASS  trace formula, 1000 samples, "
        f"orthogonality dev {worst_orth:.3e}, det dev {worst_det:.3e}"
    )


def test_criterion_04_round_trips():
    """Rotation -> unitary -> rotation is the identity within 1e-10;
    unitary -> rotation -> unitary lands on U or -U within 1e-10."""
    rng = random.Random(1004)
    worst_base = 0.0
    worst_cover = 0.0
    for _ in range(1000):
        rot = so3.rotation_from_axis_angle(random_axis_angle(rng))
        worst_base = max(worst_base, rot_diff(phi_inverse(phi(rot)), rot))
        u = su2_haar(rng)
        lifted = phi(phi_inverse(u))
        dev = min(
            max_abs_diff(lifted.matrix, u.matrix),
            max_abs_diff(lifted.matrix, negate(u).matrix),
        )
        worst_cover = max(worst_cover, dev)
    assert worst_base <= 1e-10
    assert worst_cover <= 1e-10
    print(
        "ACCEPTANCE 04 PASS  round trips, 1000 samples, "
        f"base dev {worst_base:.3e}, cover dev {worst_cover:.3e}"
    )


def test_criterion_05_homomorphism():
    """Adjoint actions compose and the trace formula is multiplicative,
    500 random pairs, within 1e-9."""
    rng = random.Random(1005)
    worst_adj = 0.0
    worst_rot = 0.0
    for _ in range(500):
        u, v = su2_haar(rng), su2_haar(rng)
        elem = Su2AlgebraElement(tuple(rng.gauss(0, 1) for _ in range(3)))
        seq = adjoint_action_generic(u, adjoint_action_generic(v, elem))
        direct = adjoint_action_generic(su2_compose_reference(u, v), elem)
        worst_adj = max(
            worst_adj, max(abs(a - b) for a, b in zip(seq.vector, direct.vector))
        )
        product = phi_inverse(su2_compose_reference(u, v))
        composed = Rotation3(so3_compose_reference(phi_inverse(u), phi_inverse(v)))
        worst_rot = max(worst_rot, rot_diff(product, composed))
    assert worst_adj <= 1e-9
    assert worst_rot <= 1e-9
    print(
        "ACCEPTANCE 05 PASS  homomorphism, 500 pairs, "
        f"adjoint dev {worst_adj:.3e}, rotation dev {worst_rot:.3e}"
    )


def test_criterion_06_invertibility_characterization():
    """(a) 200 remixed redundant unitary representations classify as
    UnitaryConjugation with the right unitary; (b) depolarizing channels are
    CptpNotInvertible at Choi rank 4; (c) inversion undoes the channel."""
    cases = remixed_cases()
    worst_unitary = 0.0
    for k, u, _weights, _mix in cases:
        result = classify(k)
        assert result.kind is ChannelKind.UNITARY_CONJUGATION
        assert result.choi_rank == 1
        worst_unitary = max(
            worst_unitary, phase_aligned_diff(result.extracted_unitary, u.matrix)
        )
    assert worst_unitary <= 1e-9

    for tenths in range(1, 10):
        result = classify(make_depolarizing(tenths / 10.0))
        assert result.kind is ChannelKind.CPTP_NOT_INVERTIBLE
        assert result.choi_rank == 4

    rng = random.Random(1106)
    worst_round = 0.0
    for i in range(100):
        k = cases[i % len(cases)][0]
        rho = random_density(rng)
        back = apply_channel_generic(invert(k), apply_channel_generic(k, rho))
        worst_round = max(worst_round, max_abs_diff(back.matrix, rho.matrix))
    assert worst_round <= 1e-10
    print(
        "ACCEPTANCE 06 PASS  invertibility, "
        f"extraction dev {worst_unitary:.3e}, round-trip dev {worst_round:.3e}"
    )


def test_criterion_07_gram_pipeline():
    """On every case of criterion 06(a): the Gram matrix is Hermitian PSD
    with unit trace, the recovered spectrum matches the construction's
    rank-one spectrum after sorting, and the inverse pair closes with unit
    weight."""
    worst_trace = 0.0
    worst_gamma = 0.0
    worst_alpha = 0.0
    for k, _u, weights, mix in remixed_cases():
        count = len(weights)
        _unitary, gram = extract_unitary_via_gram(k)
        worst_trace = max(worst_trace, abs(trace(gram.beta).real - 1.0))
        assert max_abs_diff(gram.beta, adjoint(gram.beta)) <= 1e-12
        assert all(g >= -1e-10 for g in gram.gamma)
        # Construction-implied spectrum: beta = z z* with
        # z_a = sum_c W[c][a] sqrt(gamma_c), so (|z|^2, 0, ..., 0).
        z_sq = 0.0
        for a in range(count):
            z = sum(mix.at(c, a) * sqrt(weights[c]) for c in range(count))
            z_sq += abs(z) ** 2
        expected = sorted([z_sq] + [0.0] * (len(k.operators) - 1), reverse=True)
        recovered = sorted(gram.gamma, reverse=True)
        assert len(recovered) == len(expected)
        worst_gamma = max(
            worst_gamma, max(abs(a - b) for a, b in zip(recovered, expected))
        )
        report = verify_inverse_pair(k, invert(k))
        assert report.valid
        worst_alpha = max(worst_alpha, abs(report.alpha_square_sum - 1.0))
    assert worst_trace <= 1e-10
    assert worst_gamma <= 1e-10
    assert worst_alpha <= 1e-10
    print(
        "ACCEPTANCE 07 PASS  Gram pipeline, 200 cases, "
        f"trace dev {worst_trace:.3e}, gamma dev {worst_gamma:.3e}, "
        f"alpha dev {worst_alpha:.3e}"
    )


def test_criterion_08_purity_dichotomy():
    """500 random Bloch vectors: Tr rho^2 = (1 + |r|^2)/2 within 1e-12 and
    the pure/mixed verdict flips exactly at the unit sphere."""
    rng = random.Random(1008)
    worst = 0.0
    for _ in range(500):
        r = BlochVector(*(0.999 * c for c in bloch_in_ball(rng).as_tuple()))
        p = purity_generic(bloch_to_density(r))
        worst = max(worst, abs(p - (1.0 + r.norm() ** 2) / 2.0))
        assert not is_pure(p)
        direction = unit_vector(rng)
        on_sphere = BlochVector(*direction)
        p_sphere = purity_generic(bloch_to_density(on_sphere))
        worst = max(worst, abs(p_sphere - (1.0 + on_sphere.norm() ** 2) / 2.0))
        assert is_pure(p_sphere)
    assert worst <= 1e-12
    print(f"ACCEPTANCE 08 PASS  purity dichotomy, 500 samples, max dev {worst:.3e}")


def test_criterion_09_affine_action():
    """Unitary channels act with zero translation and an orthogonal matrix
    within 1e-10; depolarizing channels act as p times the identity
    within 1e-12."""
    rng = random.Random(1009)
    worst_t = 0.0
    worst_orth = 0.0
    from blochiso.channels import KrausSet

    for _ in range(100):
        u = su2_haar(rng)
        action = bloch_affine_action(KrausSet((u.matrix,)))
        worst_t = max(worst_t, max(abs(c) for c in action.translation))
        worst_orth = max(worst_orth, orthogonality_deviation(action.matrix))
    assert worst_t <= 1e-10
    assert worst_orth <= 1e-10

    worst_dep = 0.0
    for tenths in range(0, 11):
        p = tenths / 10.0
        action = bloch_affine_action(make_depolarizing(p))
        for i in range(3):
            worst_dep = max(worst_dep, abs(action.translation[i]))
            for j in range(3):
                expected = p if i == j else 0.0
                worst_dep = max(worst_dep, abs(action.matrix[i][j] - expected))
    assert worst_dep <= 1e-12
    print(
        "ACCEPTANCE 09 PASS  affine action, "
        f"translation dev {worst_t:.3e}, orthogonality dev {worst_orth:.3e}, "
        f"depolarizing dev {worst_dep:.3e}"
    )


def test_criterion_10_cli_golden_determinism():
    """The worked conversion and classification examples print byte-identical
    reports under the fixed seed and tolerance."""
    for expected_name, argv in GOLDEN_CASES:
        expected = (GOLDEN_DIR / "expected" / expected_name).read_text(encoding="utf-8")
        code, out = run_golden_case(argv)
        assert code == 0, expected_name
        assert out == expected, expected_name
        # Byte-stability under repetition.
        code2, out2 = run_golden_case(argv)
        assert (code2, out2) == (code, out)
    print(f"ACCEPTANCE 10 PASS  CLI goldens, {len(GOLDEN_CASES)} cases byte-identical")
