"""classify's purity rule against exact arithmetic and across its threshold.

A trace-preserving Kraus set is a unitary conjugation when its Choi purity
deficit 1 - Tr(J^2) / (Tr J)^2 is at most delta(tol) = max(2 tol, 1e-14).
The exact oracle builds channels whose Kraus entries are Gaussian rationals,
seeded and drawn by a derandomized Hypothesis strategy, and decides them
with ``fractions.Fraction``; the float code sees the same
entries rounded once, and classify and the Gram route reach the exact
verdict. The same oracle bounds the unitary both print against the exact
quaternion and the Bloch action against sum A s_j A*,
and decides inverse pairs by the composite channel's exact entanglement
fidelity. The sweep crosses the threshold with random unitary mixtures and
compares classify with the Choi round trip and the CLI's isometry flag.
"""

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from blochiso.channels import (
    ChannelKind,
    KrausSet,
    _deficit_bound,
    bloch_affine_action,
    choi_of,
    classify,
    extract_unitary_via_gram,
    kraus_from_choi,
    verify_inverse_pair,
)
from blochiso.cli import main
from blochiso.errors import InvalidChannelError
from blochiso.matrix import DEFAULT_TOL, ComplexMatrix, scale
from blochiso.sampling import su2_haar
from blochiso.su2 import _chi, normalize_phase
from helpers import chi_deficit
from test_closed_forms import channel_sets, gram_verdict

# The Bloch action's M and t are within 2.7e-16 of the exact values of the
# float operators of channel_sets(), and within 2.9e-16 of the exact rational
# channels' values, their rounded inputs included.
BLOCH_BAND = 1e-15

# The float deficit of a rounded rational channel differs from the exact
# deficit by at most 6.9e-16 over 400 seeded near-unitary channels; the band
# leaves a factor of about 6 over that.
EXACT_BAND = 4e-15

ONE, ZERO = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def csub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def cdiv(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm)


def mul2(a, b):
    return tuple(
        (
            cmul(a[2 * r], b[c])[0] + cmul(a[2 * r + 1], b[2 + c])[0],
            cmul(a[2 * r], b[c])[1] + cmul(a[2 * r + 1], b[2 + c])[1],
        )
        for r in (0, 1)
        for c in (0, 1)
    )


def scaled(c, a):
    return tuple((c * re, c * im) for re, im in a)


PAULIS = (
    (ZERO, ONE, ONE, ZERO),
    (ZERO, (Fraction(0), Fraction(-1)), (Fraction(0), Fraction(1)), ZERO),
    (ONE, ZERO, ZERO, (Fraction(-1), Fraction(0))),
)
IDENTITY = (ONE, ZERO, ZERO, ONE)

# Integer quaternions whose square norm is a square, such as (1, 2, 2, 4).
QUATERNIONS = [
    q
    for q in product(range(-6, 7), repeat=4)
    if any(q) and math.isqrt(sum(v * v for v in q)) ** 2 == sum(v * v for v in q)
]


def unit_quaternion(q):
    """The integer quaternion q over its norm, a rational unit quaternion."""
    n = math.isqrt(sum(v * v for v in q))
    return tuple(Fraction(v, n) for v in q)


def rational_quaternion(rng):
    """A rational unit quaternion (w, x, y, z)."""
    return unit_quaternion(rng.choice(QUATERNIONS))


def unitary_of(q):
    """w I - i (x, y, z) . sigma."""
    w, x, y, z = q
    return ((w, -z), (-y, -x), (y, -x), (w, z))


def rational_unitary(rng):
    return unitary_of(rational_quaternion(rng))


def adjoint(a):
    return tuple((a[i][0], -a[i][1]) for i in (0, 2, 1, 3))


def times(c, a):
    """c a for a Gaussian rational c."""
    return tuple(cmul(c, e) for e in a)


# Gaussian rationals of modulus 1: global phases a channel cannot see.
PHASES = [
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(-5, 13), Fraction(12, 13)),
    (Fraction(0), Fraction(-1)),
    (Fraction(-1), Fraction(0)),
    ONE,
]


def pythagorean(t):
    """(r, s) with r^2 + 3 s^2 = 1: r = (1 - 3t^2)/(1 + 3t^2), s = 2t/(1 + 3t^2)."""
    d = 1 + 3 * t * t
    return (1 - 3 * t * t) / d, 2 * t / d


def choi(ops):
    """J = sum vec(A) vec(A)*, exactly."""
    j = [[ZERO] * 4 for _ in range(4)]
    for w in ops:
        for r in range(4):
            for c in range(4):
                p = cmul(w[r], (w[c][0], -w[c][1]))
                j[r][c] = (j[r][c][0] + p[0], j[r][c][1] + p[1])
    return j


def exact_deficit(j):
    trace = sum(j[i][i][0] for i in range(4))
    return 1 - sum(re * re + im * im for row in j for re, im in row) / (trace * trace)


def exact_rank(j):
    rows = [list(row) for row in j]
    rank = 0
    for col in range(4):
        pivot = next((r for r in range(rank, 4) if rows[r][col] != ZERO), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, 4):
            f = cdiv(rows[r][col], rows[rank][col])
            rows[r] = [csub(a, cmul(f, b)) for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def exact_count_above(j, floor):
    """The number of eigenvalues of the Hermitian j above floor, exactly and
    with no eigenvalue: the positive inertia of j - floor I from a rational
    LDL*, which Sylvester's law of inertia keeps. A nonzero diagonal entry
    is the next pivot; where every diagonal entry left is zero, a nonzero
    entry b off it makes a 2x2 pivot [[0, b], [b*, 0]], one eigenvalue of
    each sign, and a block of zeros has none above."""
    n = len(j)
    a = [[csub(j[r][c], (floor, Fraction(0))) if r == c else j[r][c] for c in range(n)] for r in range(n)]
    positive = 0
    while a:
        n = len(a)
        k = next((i for i in range(n) if a[i][i][0] != 0), None)
        if k is not None:
            d = a[k][k]
            positive += d[0] > 0
            rest = [i for i in range(n) if i != k]
            a = [[csub(a[r][c], cdiv(cmul(a[r][k], a[k][c]), d)) for c in rest] for r in rest]
            continue
        pair = next(((r, c) for r in range(n) for c in range(r + 1, n) if a[r][c] != ZERO), None)
        if pair is None:
            break
        r0, c0 = pair
        positive += 1
        # The Schur complement of the 2x2 pivot: its inverse is
        # [[0, 1 / conj(b)], [1 / b, 0]].
        b = a[r0][c0]
        to_r0, to_c0 = cdiv(ONE, (b[0], -b[1])), cdiv(ONE, b)
        rest = [i for i in range(n) if i not in pair]
        a = [
            [
                csub(
                    a[r][c],
                    cadd(cmul(cmul(a[r][r0], to_r0), a[c0][c]), cmul(cmul(a[r][c0], to_c0), a[r0][c])),
                )
                for c in rest
            ]
            for r in rest
        ]
    return positive


def exact_tp_sum(ops):
    """sum A* A, exactly."""
    total = [ZERO] * 4
    for a in ops:
        total = [cadd(x, y) for x, y in zip(total, mul2(adjoint(a), a))]
    return total


def exact_tp(ops):
    return exact_tp_sum(ops) == list(IDENTITY)


def exact_tp_deviation_squared(ops):
    """max |sum A* A - I|^2 over the four entries, exactly: the square of
    the deviation KrausSet.tp_deviation computes in floats."""
    return max(re * re + im * im for re, im in map(csub, exact_tp_sum(ops), IDENTITY))


def rounded(ops) -> KrausSet:
    return KrausSet(
        tuple(
            ComplexMatrix(2, 2, tuple(complex(float(re), float(im)) for re, im in op))
            for op in ops
        )
    )


def exact_channels(rng):
    """Rational channels, each exactly trace preserving, with a label."""
    cases = []
    for _ in range(40):
        # One rational unitary, or a redundant split of it: weights 3/5, 4/5.
        u = rational_unitary(rng)
        cases.append(("unitary", [u]))
        cases.append(("redundant", [scaled(Fraction(3, 5), u), scaled(Fraction(4, 5), u)]))
    for _ in range(100):
        # Weight eps = 16 t^2 / (1 + 3 t^2)^2 off U, t = 1/N, eps log-uniform.
        eps = 10.0 ** rng.uniform(-14.0, -2.0)
        r, s = pythagorean(Fraction(1, max(1, round(4.0 / math.sqrt(eps)))))
        u = rational_unitary(rng)
        cases.append(("near-unitary", [scaled(r, u)] + [scaled(s, mul2(p, u)) for p in PAULIS]))
    for _ in range(20):
        r, s = pythagorean(Fraction(rng.randrange(1, 40), rng.randrange(1, 40)))
        cases.append(("depolarizing", [scaled(r, IDENTITY)] + [scaled(s, p) for p in PAULIS]))
    for _ in range(20):
        # sqrt(gamma) = 2m / (1 + m^2) and sqrt(1 - gamma) = (1 - m^2) / (1 + m^2).
        m = Fraction(rng.randrange(1, 30), rng.randrange(1, 30))
        root_g, root_1g = 2 * m / (1 + m * m), (1 - m * m) / (1 + m * m)
        k0 = (ONE, ZERO, ZERO, (root_1g, Fraction(0)))
        cases.append(("damping", [k0, (ZERO, (root_g, Fraction(0)), ZERO, ZERO)]))
    for _ in range(20):
        u, v = rational_unitary(rng), rational_unitary(rng)
        cases.append(("mixture", [scaled(Fraction(3, 5), u), scaled(Fraction(4, 5), v)]))
    return cases


@pytest.fixture(scope="module")
def exact_cases():
    cases = []
    for label, ops in exact_channels(random.Random(2508)):
        assert exact_tp(ops)
        j = choi(ops)
        cases.append((label, rounded(ops), exact_deficit(j), exact_rank(j)))
    return cases


def printed_quaternion(q):
    """The q of U that phi prints: w > 0, or at w = 0 the largest axis
    component positive; None there when two components tie for largest, as
    roundoff may then pick either sign."""
    if q[0] != 0:
        return q if q[0] > 0 else tuple(-v for v in q)
    top = max(abs(v) for v in q)
    if sum(abs(v) == top for v in q) > 1:
        return None
    return q if max(q) == top else tuple(-v for v in q)


def exactly(k: KrausSet):
    """The float operators of k as Gaussian rationals, each entry exactly."""
    return [tuple((Fraction(z.real), Fraction(z.imag)) for z in op.entries) for op in k.operators]


def exact_bloch_action(ops):
    """M_kj = Tr(s_k Phi(s_j)) / 2 and t_k = Tr(s_k Phi(I)) / 2 of Phi(X) =
    sum A X A*, exactly: the operators are put over one denominator, so the
    products and sums run on integers."""
    den = math.lcm(*(part.denominator for op in ops for z in op for part in z))
    ints = [tuple((int(re * den), int(im * den)) for re, im in op) for op in ops]
    basis = [tuple((int(re), int(im)) for re, im in m) for m in (*PAULIS, IDENTITY)]

    def coordinates(x):
        image = [(0, 0)] * 4
        for a in ints:
            p = mul2(mul2(a, x), adjoint(a))
            image = [(u[0] + v[0], u[1] + v[1]) for u, v in zip(image, p)]
        traces = (mul2(s, image) for s in basis[:3])
        return [Fraction(m[0][0] + m[3][0], 2 * den * den) for m in traces]

    *columns, translation = [coordinates(x) for x in basis]
    return [[column[i] for column in columns] for i in range(3)], translation


def bloch_gap(k: KrausSet, ops) -> float:
    """The largest |entry - exact| of k's M and t, against the action of ops."""
    action = bloch_affine_action(k)
    matrix, translation = exact_bloch_action(ops)
    got = [x for row in action.matrix for x in row] + list(action.translation)
    want = [x for row in matrix for x in row] + translation
    return float(max(abs(Fraction(x) - y) for x, y in zip(got, want)))


def exact_infidelity(fwd, inv):
    """1 - F_e of the composite {B A}: 1 - sum |Tr(B A) / 2|^2 / (sum ||B A||^2 / 2)."""
    fidelity = norm = Fraction(0)
    for b in inv:
        for a in fwd:
            p = mul2(b, a)
            re, im = p[0][0] + p[3][0], p[0][1] + p[3][1]
            fidelity += (re * re + im * im) / 4
            norm += sum(x * x + y * y for x, y in p) / 2
    return 1 - fidelity / norm


def exact_pairs(rng):
    """Rational pairs (forward set, inverse candidate), each labelled."""
    pairs = []
    for _ in range(40):
        u = rational_unitary(rng)
        w1, w2 = rng.choice(PHASES), rng.choice(PHASES)
        redundant = [times(w1, scaled(Fraction(3, 5), u)), times(w2, scaled(Fraction(4, 5), u))]
        pairs.append(("inverse", [u], [adjoint(u)]))
        pairs.append(("redundant inverse", redundant, [times(w1, adjoint(u))]))
        v = rational_unitary(rng)
        pairs.append(("another unitary's adjoint", [u], [adjoint(v)]))
        pairs.append(("not trace preserving", [u], [scaled(Fraction(5, 4), adjoint(u))]))
        pairs.append(("doubled inverse", [u], [adjoint(u), adjoint(u)]))
        pairs.append(("transposed, not conjugated", [u], [tuple(u[i] for i in (0, 2, 1, 3))]))
    for _ in range(100):
        eps = 10.0 ** rng.uniform(-16.0, -2.0)
        r, s = pythagorean(Fraction(1, max(1, round(4.0 / math.sqrt(eps)))))
        u = rational_unitary(rng)
        near = [scaled(r, u)] + [scaled(s, mul2(p, u)) for p in PAULIS]
        pairs.append(("near-unitary", near, [adjoint(u)]))
    for _ in range(20):
        u, v = rational_unitary(rng), rational_unitary(rng)
        pairs.append(("mixture", [scaled(Fraction(3, 5), u), scaled(Fraction(4, 5), v)], [adjoint(u)]))
    return pairs


class TestExactOracle:
    def test_float_deficit_is_the_exact_one_to_roundoff(self, exact_cases):
        worst = max(abs(chi_deficit(_chi(k.operators)) - float(d)) for _, k, d, _ in exact_cases)
        assert worst <= EXACT_BAND / 4

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-15], ids=["default", "floor"])
    def test_verdict_is_the_exact_one(self, exact_cases, tol):
        delta = _deficit_bound(tol)
        compared = 0
        for label, k, deficit, rank in exact_cases:
            if abs(deficit - Fraction(delta)) <= EXACT_BAND:
                continue
            result = classify(k, tol)
            unitary = deficit <= Fraction(delta)
            assert (result.kind is ChannelKind.UNITARY_CONJUGATION) is unitary, label
            # A refused channel prints its exact rank.
            assert result.choi_rank == (1 if unitary else rank), label
            assert gram_verdict(k, tol) is unitary, label
            compared += 1
        assert compared >= 200 and len(exact_cases) - compared <= 2


# A rational parameter a / (m 10^e): from 0 and 1e-9 up to 3.
PARAMETERS = st.builds(
    lambda a, m, e: Fraction(a, m * 10**e),
    st.integers(-3, 3),
    st.integers(1, 9),
    st.integers(0, 9),
)
RATIONAL_UNITARIES = st.sampled_from(QUATERNIONS).map(unit_quaternion).map(unitary_of)


@st.composite
def sphere_points(draw, n):
    """A rational unit vector in n dimensions: the inverse stereographic
    projection of a rational t, so for a small t the last coordinate is
    about 1 and the others about 2 t."""
    t = [draw(PARAMETERS) for _ in range(n - 1)]
    s = sum(x * x for x in t)
    return [2 * x / (1 + s) for x in t] + [(1 - s) / (1 + s)]


@st.composite
def rational_channels(draw):
    """(operators, spectrum): a Gaussian-rational Kraus set, exactly trace
    preserving, and its Choi matrix's exact eigenvalues.

    The set starts Hilbert-Schmidt orthogonal, so J's eigenvalues are the
    operators' squared norms: a weighted mixture of P U, P in {I, X, Y, Z}
    (unital), or U K V of the amplitude-damping pair K = (diag(1, r),
    sqrt(1 - r^2) |0><1|) (not unital). Remixing pairs of operators by a
    rational rotation, splitting one in two, or giving one a phase keeps
    the channel and J.
    """
    u = draw(RATIONAL_UNITARIES)
    if draw(st.booleans()):
        weights = draw(sphere_points(4))
        paulis = [IDENTITY, *PAULIS]
        order = draw(st.permutations(range(4)))
        ops = [scaled(w, mul2(paulis[i], u)) for w, i in zip(weights, order)]
        spectrum = [2 * w * w for w in weights]
    else:
        g, r = draw(sphere_points(2))
        v = draw(RATIONAL_UNITARIES)
        pair = ((ONE, ZERO, ZERO, (r, Fraction(0))), (ZERO, (g, Fraction(0)), ZERO, ZERO))
        ops = [mul2(mul2(u, k), v) for k in pair]
        spectrum = [1 + r * r, g * g]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(ops) - 1))
        c, s = draw(sphere_points(2))
        if draw(st.booleans()):
            ops[i : i + 1] = [scaled(c, ops[i]), scaled(s, ops[i])]
        else:
            j = (i + 1) % len(ops)
            a, b = ops[i], ops[j]
            ops[i] = tuple((c * x - s * y, c * xi - s * yi) for (x, xi), (y, yi) in zip(a, b))
            ops[j] = tuple((s * x + c * y, s * xi + c * yi) for (x, xi), (y, yi) in zip(a, b))
    i = draw(st.integers(0, len(ops) - 1))
    ops[i] = times(draw(st.sampled_from(PHASES)), ops[i])
    return ops, spectrum


TOLERANCES = st.sampled_from([DEFAULT_TOL, 1e-15, 1e-3, 0.3])


@st.composite
def scales_about_the_gate(draw):
    """(tol, s): a tolerance and a rational scale s != 1 for a channel, so
    that sum A* A = s^2 I. Most draws put s^2 - 1 = n tol / 4 + (n tol / 8)^2,
    0 < |n| <= 12, within about 3 tol of the gate on either side; the rest
    are far from it."""
    tol = draw(TOLERANCES)
    near = 1 + Fraction(draw(st.integers(-12, 12).filter(bool)), 8) * Fraction(tol)
    far = draw(st.sampled_from([Fraction(1, 2), Fraction(9, 10), Fraction(11, 10), Fraction(2)]))
    return tol, draw(st.sampled_from([near, near, near, far]))


# KrausSet.tp_deviation of a scaled rational channel, rounded once, is within
# 5.6e-16 of max(1, deviation) of the exact deviation of the rounded
# operators over the 300 drawn here; the band leaves a factor of about 3.5.
# The verdict is compared on 233 of them (147 not trace preserving); most of
# the rest lie within the band of the gate at tol 1e-15.
TP_BAND = Fraction(2e-15)


def within_band(squared, value, band):
    """Whether sqrt(squared) lies within band of value."""
    return max(0, value - band) ** 2 <= squared <= (value + band) ** 2


# The printed rank is compared unless an exact eigenvalue lies in
# (floor (1 - RANK_BAND), floor (1 + RANK_BAND)], a band inside the factor
# of 2 it once was. Over 10000 drawn channels at these four tolerances, one
# rank was off by one: an eigenvalue 8% from the floor at tol 1e-15, where
# the floor, 1.7e-15 of Tr J = 2, is a few ulps of the trace.
RANK_BAND = Fraction(1, 4)


class TestRationalChannelStrategy:
    """classify on Hypothesis-drawn rational channels, beside the seeded 240:
    its verdict and the Gram route's are the exact one outside EXACT_BAND,
    and a refused channel prints the number of exact Choi eigenvalues above
    the exact floor delta / 12 of Tr J, exact_rank when no weight lies below
    it. That number is the exact inertia count of J - floor I
    (exact_count_above), and a channel with an eigenvalue within RANK_BAND
    of the floor, found by the counts at its two ends, is not compared.
    The same channels scaled by a rational s != 1, some within a few tol of
    the gate, meet the trace gate: its verdict is the exact one outside
    TP_BAND."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        channel=rational_channels(),
        tol=TOLERANCES,
    )
    def test_verdict_and_rank_are_the_exact_ones(self, channel, tol):
        ops, spectrum = channel
        assert exact_tp(ops)
        j = choi(ops)
        deficit, rank = exact_deficit(j), exact_rank(j)
        assert rank == sum(1 for ev in spectrum if ev)
        delta = Fraction(_deficit_bound(tol))
        if abs(deficit - delta) <= EXACT_BAND:
            return
        k = rounded(ops)
        result = classify(k, tol)
        unitary = deficit <= delta
        assert (result.kind is ChannelKind.UNITARY_CONJUGATION) is unitary
        assert gram_verdict(k, tol) is unitary
        if unitary:
            assert result.choi_rank == 1
            return
        assert result.kind is ChannelKind.CPTP_NOT_INVERTIBLE
        floor = delta / 12 * sum(j[i][i][0] for i in range(4))
        count = exact_count_above(j, floor)
        assert count == sum(1 for ev in spectrum if ev > floor)
        low, high = (exact_count_above(j, floor * (1 + side)) for side in (-RANK_BAND, RANK_BAND))
        if low == high:
            assert result.choi_rank == count


    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(channel=rational_channels(), gate=scales_about_the_gate())
    def test_trace_gate_is_the_exact_one(self, channel, gate):
        # The gate reads sum A* A off chi. Its deviation is the exact one of
        # the rounded operators to TP_BAND, and the verdict is the exact one
        # wherever the exact deviation lies outside TP_BAND of tol.
        (ops, _), (tol, s) = channel, gate
        k = rounded([scaled(s, op) for op in ops])
        squared = exact_tp_deviation_squared(exactly(k))
        dev = k.tp_deviation()
        assert within_band(squared, Fraction(dev), TP_BAND * max(1, Fraction(dev)))
        edge = Fraction(tol)
        if within_band(squared, edge, TP_BAND * max(1, edge)):
            return
        not_tp = squared > edge * edge
        assert (classify(k, tol).kind is ChannelKind.NOT_CPTP) is not_tp
        if not_tp:
            assert gram_verdict(k, tol) is False
            with pytest.raises(InvalidChannelError, match="CPTP sets only"):
                bloch_affine_action(k, tol)
        else:
            bloch_affine_action(k, tol)


class TestExactLift:
    """classify prints phi of the rotation: on rational unitaries, and
    redundant sets of them with Gaussian-rational phases, it is within 3.4e-16
    of the U of the exact quaternion with w >= 0 (worst 1.6e-16 here), and so
    are the Gram route's unitary of each set and normalize_phase of each
    phased unitary. The 54 of 800 sets at a half turn with two largest axis
    components tied are not compared."""

    def test_printed_unitary_is_the_exact_quaternions(self):
        rng = random.Random(2509)
        compared = phased = 0
        for _ in range(400):
            q = rational_quaternion(rng)
            u = unitary_of(q)
            w1, w2 = rng.choice(PHASES), rng.choice(PHASES)
            sets = [
                [times(w1, u)],
                [times(w1, scaled(Fraction(3, 5), u)), times(w2, scaled(Fraction(4, 5), u))],
            ]
            expected = printed_quaternion(q)
            for ops in sets:
                k = rounded(ops)
                printed = classify(k).extracted_unitary
                if expected is None:
                    continue
                exact = [complex(float(re), float(im)) for re, im in unitary_of(expected)]
                for u in (printed, extract_unitary_via_gram(k)[0]):
                    assert max(abs(x - y) for x, y in zip(u.entries, exact)) <= 3.4e-16
                compared += 1
            if expected is None:
                continue
            (m,) = rounded(sets[0]).operators
            lifted = normalize_phase(m).matrix
            assert max(abs(x - y) for x, y in zip(lifted.entries, exact)) <= 3.4e-16
            phased += 1
        assert compared == 746
        assert phased == 373


class TestExactBlochAction:
    """bloch_affine_action reads M and t off chi; both are within BLOCH_BAND
    of the exact M_kj = Tr(s_k Phi(s_j)) / 2 and t_k = Tr(s_k Phi(I)) / 2."""

    def test_float_sets_are_the_exact_action(self):
        sets = channel_sets()
        assert len(sets) == 3069
        assert max(bloch_gap(k, exactly(k)) for k in sets) <= BLOCH_BAND

    def test_rational_channels_are_the_exact_action(self):
        cases = exact_channels(random.Random(2508))
        assert len(cases) == 240
        assert max(bloch_gap(rounded(ops), ops) for _, ops in cases) <= BLOCH_BAND


class TestExactInversePair:
    """verify_inverse_pair's verdict is the exact composite's: trace
    preserving, and 1 - F_e <= delta(tol), outside |1 - F_e - delta| <= EXACT_BAND.
    The float infidelity is within 2.2e-16 of the exact one here."""

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-15], ids=["default", "floor"])
    def test_verdict_is_the_exact_one(self, tol):
        delta = _deficit_bound(tol)
        seen = set()
        compared = 0
        for label, fwd, inv in exact_pairs(random.Random(2510)):
            infidelity = exact_infidelity(fwd, inv)
            if abs(infidelity - Fraction(delta)) <= EXACT_BAND:
                continue
            composite = [mul2(b, a) for b in inv for a in fwd]
            valid = exact_tp(composite) and infidelity <= Fraction(delta)
            report = verify_inverse_pair(rounded(fwd), rounded(inv), tol)
            assert report.valid is valid, label
            assert abs(report.infidelity - float(infidelity)) <= EXACT_BAND / 4, label
            seen.add((label, valid))
            compared += 1
        assert compared >= 340
        # Each wrong inverse is refused, and the near-unitary family crosses.
        assert seen >= {
            ("inverse", True),
            ("redundant inverse", True),
            ("another unitary's adjoint", False),
            ("not trace preserving", False),
            ("doubled inverse", False),
            ("transposed, not conjugated", False),
            ("near-unitary", True),
            ("near-unitary", False),
            ("mixture", False),
        }


def mixture(rng, count):
    """A random unitary U and count - 1 others, with weights: the channel at
    eps is sqrt(1 - eps) U plus sqrt(eps w_j) V_j."""
    u = su2_haar(rng).matrix
    others = [su2_haar(rng).matrix for _ in range(count - 1)]
    return u, others, [rng.random() + 0.1 for _ in others]


def at(base, eps) -> KrausSet:
    u, others, weights = base
    total = sum(weights)
    ops = [scale(u, math.sqrt(1.0 - eps))]
    ops += [scale(v, math.sqrt(eps * w / total)) for v, w in zip(others, weights)]
    return KrausSet(tuple(ops))


def isometry_flag(tmp_path, k: KrausSet) -> bool:
    ops = [
        [[[z.real, z.imag] for z in op.entries[r : r + 2]] for r in (0, 2)] for op in k.operators
    ]
    path = tmp_path / "kraus.json"
    path.write_text(
        json.dumps({"schema_version": "1", "kind": "kraus", "payload": {"operators": ops}}),
        encoding="utf-8",
    )
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["bloch-action", str(path)]) == 0
    return json.loads(out.getvalue())["isometry"]


class TestEpsilonSweep:
    """30 mixtures of 2 to 4 unitaries, each at 8 weights eps log-uniform
    over [1e-18, 1e-2]: 240 channels at DEFAULT_TOL."""

    def test_verdicts_across_the_threshold(self, tmp_path):
        rng = random.Random(22)
        delta = _deficit_bound(DEFAULT_TOL)
        channels = accepted = in_band = 0
        for i in range(30):
            base = mixture(rng, 2 + i % 3)
            verdicts = []
            for eps in sorted(10.0 ** rng.uniform(-18.0, -2.0) for _ in range(8)):
                k = at(base, eps)
                result = classify(k)
                unitary = result.kind is ChannelKind.UNITARY_CONJUGATION
                assert (result.choi_rank == 1) is unitary
                verdicts.append(unitary)
                channels += 1
                accepted += unitary
                # The band: the isometry deviation of M is between 4/3 and 4
                # times the deficit, so the flag may read false on an
                # accepted channel with deficit in (delta / 4, delta]; the
                # round trip drops eigenvalues up to delta / 12 of the
                # largest, up to delta / 2 of deficit, so it may accept a
                # refused one with deficit in (delta, 3 delta / 2].
                if delta / 4 < chi_deficit(_chi(k.operators)) <= 1.5 * delta:
                    in_band += 1
                    continue
                round_trip = classify(kraus_from_choi(choi_of(k)))
                assert (round_trip.kind is ChannelKind.UNITARY_CONJUGATION) is unitary
                assert isometry_flag(tmp_path, k) is unitary
            # Monotone in eps: accepted up to a weight, refused past it.
            assert verdicts == sorted(verdicts, reverse=True)
        # Both verdicts are well represented; 8 channels fall in the band.
        assert channels == 240 and min(accepted, channels - accepted) >= 80
        assert in_band <= 24
