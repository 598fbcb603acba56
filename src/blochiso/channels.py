"""Qubit channels: Kraus and Choi forms, the CPTP check, and reversibility.

A channel acts as rho -> sum_a A_a rho A_a*. A Kraus set is completely
positive by construction (its Choi matrix sum_a vec(A_a) vec(A_a)* is PSD),
so only trace preservation, sum_a A_a* A_a = I, is checked. A channel admits
a CPTP inverse exactly when its Choi rank is 1, that is when its Choi purity
Tr(J^2) / (Tr J)^2 is 1. :func:`classify` reads the operators once, into
the process matrix chi (``su2._chi``), the Choi matrix in the quaternion
basis: sum A* A is linear in it (``_trace_gate``), its purity is J's, a
refused channel's rank is the number of its eigenvalues above delta(tol) /
12 of Tr chi, counted by inertia with no eigensolve (``_chi_rank``), and for
a unitary U = e^{it} (w I - i v . sigma) it is q q^T, q = (w, v), so the
unitary is the row of chi that ``phi`` would read off the rotation.
:func:`bloch_affine_action` reads the channel's action on Bloch vectors off
the same chi, linear in it: for that unitary, the Euler-Rodrigues rotation of
q, which ``phi_inverse`` drops U to. So the lift and the rotation come from
one matrix. :func:`invert` returns that lift's adjoint in closed form, and
:func:`verify_inverse_pair` forms each product B_b A_a of the composite channel
once, reading its coefficients, residuals, fidelity and trace preservation off
that one pass (``_pair_table``). The Gram-matrix
pipeline, :func:`extract_unitary_via_gram`, is the paper's constructive route
to the same unitary from any redundant Kraus set, decided by the same trace
gate and purity rule; no library path calls it.

The Choi matrix of a Kraus set (its upper triangle plus the ``0j + conj``
mirror, bit for bit the full square) and the Gram matrix are Hermitian by
construction, and a checked :class:`ChoiMatrix` factors its Hermitian
average. Each is checked finite where it is built and then factored by the
one eigensolver, ``_kernels.jacobi_hermitian``, which checks neither.
"""

from __future__ import annotations

from cmath import isfinite
from enum import Enum
from functools import cached_property
from math import hypot, sqrt
from sys import float_info

from . import _kernels
from ._value import Value
from .errors import (
    DomainError,
    InvalidChannelError,
    NotInvertibleError,
    NotUnitaryConjugationError,
)
from .matrix import (
    DEFAULT_TOL,
    ComplexMatrix,
    HermitianEigenResult,
    _adjoint2,
    _mul2,
    adjoint,
    max_abs_diff,
)
from .so3 import Matrix3
from .su2 import _chi, _chi_lift

#: Kraus operators below this Frobenius norm are dropped on ingestion; they
#: contribute nothing to the channel and break proportionality diagnostics.
ZERO_OPERATOR_NORM = 1e-12

#: The least delta: 15 times the purity deficit's roundoff on unitary sets (6.7e-16).
_DEFICIT_FLOOR = 1e-14

#: The least normal float: ``_chi_rank`` drops a reflection of smaller scale,
#: and takes a Sturm pivot of smaller modulus as -_TINY, as LAPACK's dstebz
#: takes one below its pivmin.
_TINY = float_info.min


# The Kraus-pair products are closed 2x2 forms (``matrix._mul2`` and
# ``matrix._adjoint2``); the trace, scale and max_abs_diff steps on them
# below keep the generic operations in the same order, so the values are the
# generic ones bit for bit and a non-finite entry raises as there.


def _require_finite(*entries: complex) -> None:
    for e in entries:
        if not isfinite(e):
            raise DomainError("matrix entries must be finite")


def _pair_table(
    lefts: list[tuple[complex, ...]], rights: list[tuple[complex, ...]]
) -> tuple[ComplexMatrix, float, tuple[int, int], float, float, float]:
    """One pass over every product P = L R, row-major: the coefficients
    Tr(P) / 2 as a matrix; the largest max |P - coeff I| and the first pair
    that reaches it; and, of the composite channel {P}, sum |coeff|^2, its
    weight sum ||P||_F^2 / 2 and max |sum P* P - I|.

    Sums never turn a non-finite entry finite, so checking the off-diagonal
    entries and coeff covers every value the generic chain checks. A modulus
    past the float range raises DomainError, as a non-finite entry does.
    """
    entries = []
    worst = 0.0
    worst_pair = (0, 0)
    square_sum = 0.0
    s0 = s3 = 0.0  # sum P* P: its diagonal, and one entry off it
    s1 = 0j
    try:
        for i, left in enumerate(lefts):
            for j, right in enumerate(rights):
                p0, p1, p2, p3 = _mul2(left, right)
                coeff = (p0 + p3) / 2.0
                _require_finite(p1, p2, coeff)
                residual = max(abs(p0 - coeff), abs(p1), abs(p2), abs(p3 - coeff))
                if residual > worst:
                    worst = residual
                    worst_pair = (i, j)
                entries.append(coeff)
                square_sum += coeff.real * coeff.real + coeff.imag * coeff.imag
                c0, c1, c2, c3 = p0.conjugate(), p1.conjugate(), p2.conjugate(), p3.conjugate()
                s0 += (c0 * p0 + c2 * p2).real
                s1 += c0 * p1 + c2 * p3
                s3 += (c1 * p1 + c3 * p3).real
        tp_deviation = max(abs(s0 - 1.0), abs(s1), abs(s3 - 1.0))
    except OverflowError as exc:  # abs() of a finite complex past the float range
        raise DomainError("matrix entries must be finite") from exc
    table = ComplexMatrix._trusted(len(lefts), len(rights), tuple(entries))
    return table, worst, worst_pair, square_sum, 0.5 * (s0 + s3), tp_deviation


def _deficit_bound(tol: float) -> float:
    """delta(tol), the largest purity deficit of a unitary verdict; NaN at NaN."""
    return max(2.0 * tol, _DEFICIT_FLOOR)


def _rank_floor(trace: float, tol: float) -> float:
    """c Tr, c = delta(tol) / 12, the trace summed left to right: the floor a
    numerical rank counts eigenvalues above. If every lambda_k <= c Tr
    (k >= 2), then lambda_1 >= (1 - 3c) Tr, so 1 - P <= 1 - (1 - 3c)^2 <=
    6c = delta / 2 < delta: a refused channel never counts rank 1."""
    return _deficit_bound(tol) / 12.0 * trace


def _rank(eigenvalues: tuple[float, ...], tol: float = DEFAULT_TOL) -> int:
    """J's eigenvalues above the :func:`_rank_floor` of their trace (0 if that
    is not positive): at DEFAULT_TOL the Kraus count of kraus_from_choi. A
    trace past the float range raises DomainError, as the trace gate's does:
    its floor would be inf, and a nonzero J would count none."""
    e0, e1, e2, e3 = eigenvalues
    trace = 0.0 + e0 + e1 + e2 + e3
    _require_finite(trace)
    floor = _rank_floor(trace, tol)
    return sum(1 for ev in eigenvalues if ev > floor) if floor > 0.0 else 0


def _trace_gate(chi: tuple) -> tuple[float, float]:
    """(Tr chi, max |sum A* A - I|) read off chi: with A = c_0 I - i c . sigma,
    sum A* A = Tr chi I + v . sigma, v_k = 2 (Im chi_lm - Im chi_0k) for
    (k, l, m) cyclic. Tr chi is summed once per verdict, left to right, and
    Tr J = 2 Tr chi checked finite, which bounds |v_k| <= Tr chi as well."""
    d0, x01, x02, x03, d1, x12, x13, d2, x23, d3 = chi
    trace = 0.0 + d0 + d1 + d2 + d3
    _require_finite(trace + trace)
    shift, vz = trace - 1.0, 2.0 * (x12.imag - x03.imag)
    off = hypot(2.0 * (x23.imag - x01.imag), 2.0 * (x02.imag + x13.imag))
    return trace, max(abs(shift + vz), abs(shift - vz), off)


class KrausSet(Value):
    """Nonempty collection of 2x2 Kraus operators.

    Trace preservation (sum A* A = I) is the defining channel invariant but
    is deliberately not enforced here: diagnostic paths must be able to hold
    ill-formed sets. Operations that require a channel check it themselves.

    The set remembers its last :func:`classify` verdict with the tolerance
    it was reached at, outside the value's fields, so equality, hashing
    and repr depend on the operators alone.
    """

    def __init__(self, operators: tuple[ComplexMatrix, ...]) -> None:
        self.__dict__["operators"] = operators
        self.__post_init__()

    def __post_init__(self) -> None:
        kept = []
        for op in self.operators:
            if op.rows != 2 or op.cols != 2:
                raise InvalidChannelError("Kraus operators must be 2x2")
            if op.frobenius_norm() >= ZERO_OPERATOR_NORM:
                kept.append(op)
        if not kept:
            raise InvalidChannelError("Kraus set has no nonzero operators")
        d = self.__dict__
        d["operators"], d["_classified"] = tuple(kept), None

    def tp_deviation(self) -> float:
        """Largest entrywise deviation of sum A* A from I, read off chi."""
        return _trace_gate(_chi(self.operators))[1]


class ChoiMatrix(Value):
    """4x4 Choi matrix J = sum_ij Phi(E_ij) (x) E_ij (unnormalized, trace 2).

    ``(x)`` is the tensor product of the output and input factors. A matrix
    given to the constructor is checked Hermitian and positive semidefinite,
    relative to roundoff: the least eigenvalue may fall DEFAULT_TOL times
    max(1, the largest) below zero. :func:`choi_of` builds a Kraus set's,
    both by construction, unchecked. The partial trace over the output factor
    equals I exactly when the source set is trace preserving. ``spectrum``,
    the eigendecomposition, is the one the check made, or else factored on
    first read; it is not in equality, hash or repr.
    """

    def __init__(self, matrix: ComplexMatrix) -> None:
        self.__dict__["matrix"] = matrix
        self.__post_init__()

    def __post_init__(self) -> None:
        m = self.matrix
        if m.rows != 4 or m.cols != 4:
            raise InvalidChannelError("Choi matrix must be 4x4")
        # One adjoint serves the Hermiticity check and the average. A sum past
        # the float range is halved term by term instead, which differs from
        # halving it only for subnormal parts.
        m_adjoint = adjoint(m)
        if max_abs_diff(m, m_adjoint) > DEFAULT_TOL:
            raise InvalidChannelError("Choi matrix must be Hermitian")
        average = [
            s * 0.5 if isfinite(s := a + b) else a * 0.5 + b * 0.5
            for a, b in zip(m.entries, m_adjoint.entries)
        ]
        spectrum = _kernels.jacobi_hermitian(4, average)
        eigenvalues = spectrum.eigenvalues
        if eigenvalues[-1] < -DEFAULT_TOL * max(1.0, eigenvalues[0]):
            raise InvalidChannelError("Choi matrix must be positive semidefinite")
        self.__dict__["spectrum"] = spectrum

    @cached_property
    def spectrum(self) -> HermitianEigenResult:
        # Hermitian bit for bit and checked finite: choi_of leaves only its
        # own matrices unfactored.
        return _kernels.jacobi_hermitian(4, self.matrix.entries)


class ChannelKind(Enum):
    UNITARY_CONJUGATION = "UnitaryConjugation"
    CPTP_NOT_INVERTIBLE = "CptpNotInvertible"
    NOT_CPTP = "NotCptp"


class ChannelClassification(Value):
    """Verdict of :func:`classify`.

    ``choi_rank`` is 0 for ``NotCptp``: a set not trace preserving within tol.
    Otherwise it is 1 for ``UnitaryConjugation``, a purity deficit at most
    delta(tol) = max(2 tol, 1e-14), and for ``CptpNotInvertible`` the
    numerical rank: the eigenvalues of chi (J's, halved) above delta(tol) / 12
    of Tr chi (:func:`_rank_floor`), never 1. ``extracted_unitary``
    is the U of the row of Re chi with the largest diagonal entry, normalized
    with w >= 0 (``su2._chi_lift``): det U = 1 and Re tr U >= 0, and at an
    exact half turn the axis's largest component is > 0, as ``phi`` reads it.
    """

    def __init__(
        self, kind: ChannelKind, choi_rank: int, extracted_unitary: ComplexMatrix | None
    ) -> None:
        d = self.__dict__
        d["kind"], d["choi_rank"], d["extracted_unitary"] = kind, choi_rank, extracted_unitary


class GramData(Value):
    """Intermediates of the unitary extraction.

    ``beta`` is the Hermitian PSD Gram matrix Tr(A_a'* A_a) / 2, the
    proportionality constants A_a'* A_a = beta_{a'a} I of a reversible
    channel, ``gamma`` its eigenvalues in descending order, ``mixing`` the
    unitary whose columns diagonalize it.
    """

    def __init__(
        self, beta: ComplexMatrix, gamma: tuple[float, ...], mixing: ComplexMatrix
    ) -> None:
        d = self.__dict__
        d["beta"], d["gamma"], d["mixing"] = beta, gamma, mixing


class InversePairReport(Value):
    """Result of checking that one Kraus set undoes another.

    ``alpha`` tabulates the coefficients alpha_ba = Tr(B_b A_a) / 2 (rows
    indexed by the inverse candidate's operators), ``max_residual`` the
    largest max |B_b A_a - alpha_ba I|, ``infidelity`` is 1 - F_e of the
    composite channel, the number ``valid`` reads against delta(tol), and
    ``tp_deviation`` the composite's max |sum P* P - I|, read against tol.
    """

    def __init__(
        self,
        valid: bool,
        alpha: ComplexMatrix,
        alpha_square_sum: float,
        max_residual: float,
        infidelity: float,
        tp_deviation: float,
    ) -> None:
        d = self.__dict__
        d["valid"], d["alpha"] = valid, alpha
        d["alpha_square_sum"], d["max_residual"] = alpha_square_sum, max_residual
        d["infidelity"], d["tp_deviation"] = infidelity, tp_deviation


class BlochAffineAction(Value):
    """Action on Bloch vectors: r -> M r + t."""

    def __init__(self, matrix: Matrix3, translation: tuple[float, float, float]) -> None:
        d = self.__dict__
        d["matrix"], d["translation"] = matrix, translation


# Flat index, row and column of each upper Choi entry; each lower entry's
# flat index and its mirror's.
_CHOI_UPPER = tuple((r * 4 + c, r, c) for r in range(4) for c in range(r, 4))
_CHOI_LOWER = tuple((r * 4 + c, c * 4 + r) for r in range(1, 4) for c in range(r))


def _choi_entries(k: KrausSet) -> ComplexMatrix:
    """J = sum vec(A) vec(A)*: the upper triangle summed from 0j, then
    mirrored, each lower entry ``0j + conj`` of its mirror: the bits its own
    sum would have, and Hermitian bit for bit. Unvalidated: choi_of checks
    every entry finite."""
    ents = [0j] * 16
    for op in k.operators:
        w = op.entries  # row-major flattening matches the tensor-product order
        wc = [x.conjugate() for x in w]
        for i, r, c in _CHOI_UPPER:
            ents[i] += w[r] * wc[c]
    for i, j in _CHOI_LOWER:
        ents[i] = 0j + ents[j].conjugate()
    return ComplexMatrix._trusted(4, 4, tuple(ents))


def choi_of(k: KrausSet) -> ChoiMatrix:
    """Choi matrix of the channel; its rank is the minimal Kraus count. Hermitian
    bit for bit, as ``_kernels.jacobi_hermitian`` takes it, and positive
    semidefinite, unchecked; the entries are checked finite, and factored
    only when the spectrum is read."""
    j = object.__new__(ChoiMatrix)
    j.__dict__["matrix"] = m = _choi_entries(k)
    _require_finite(*m.entries)
    return j


def classify(k: KrausSet, tol: float = DEFAULT_TOL) -> ChannelClassification:
    """Decide invertibility: a pure Choi matrix means conjugation by one unitary.

    Trace preservation is the one CPTP check, and it comes first; the purity
    decides the rest, and a refused channel's rank is an inertia count: no
    verdict makes an eigensolve.
    The verdict is kept on ``k`` and returned again for the same ``tol``.
    """
    cached = k._classified
    if cached is not None and cached[0] == tol:
        return cached[1]
    result = _classify(k, tol)
    k.__dict__["_classified"] = (tol, result)
    return result


def _chi_deficit(chi: tuple, trace: float) -> float:
    """1 - Tr(chi^2) / (Tr chi)^2, the Choi purity deficit, at the trace
    _trace_gate checks: each |chi_ij| / Tr chi <= 1, so no square overflows."""
    d0, x01, x02, x03, d1, x12, x13, d2, x23, d3 = chi
    inverse = 1.0 / trace
    # Each |chi_ij| / Tr chi squared, off the diagonal twice, summed row-major;
    # the diagonal entries are sums of squares, so they are their own moduli.
    y0, y1, y2, y3 = d0 * inverse, d1 * inverse, d2 * inverse, d3 * inverse
    y01, y02, y03 = abs(x01) * inverse, abs(x02) * inverse, abs(x03) * inverse
    y12, y13, y23 = abs(x12) * inverse, abs(x13) * inverse, abs(x23) * inverse
    square_sum = (
        y0 * y0 + 2.0 * (y01 * y01) + 2.0 * (y02 * y02) + 2.0 * (y03 * y03)
        + y1 * y1 + 2.0 * (y12 * y12) + 2.0 * (y13 * y13)
        + y2 * y2 + 2.0 * (y23 * y23)
        + y3 * y3
    )
    return 1.0 - square_sum


def _reflection(y0: complex, sigma: float) -> tuple[complex, float] | None:
    """(w0 g, g) of the Householder reflection I - u u* that takes a column
    (y0, y1, ...) of norm sigma to a multiple of e_1: u = (w0, y1, ...) g,
    w0 = y0 + phase sigma, g = 1 / sqrt(sigma (sigma + |y0|)), so |u|^2 = 2.
    The phase is y0's own, so nothing cancels in w0, or 1 where |y0| is below
    the normal range, off by |y0| / sigma < 1e-150 there. None where
    sigma (sigma + |y0|) is below the normal range, the column then dropped:
    a change of norm sigma < 1.1e-154, far below any rank floor."""
    a = abs(y0)
    h = sigma * (sigma + a)
    if h < _TINY:
        return None
    g = 1.0 / sqrt(h)
    if a < _TINY:
        return (y0 + sigma) * g, g
    return y0 * ((a + sigma) * g / a), g


def _chi_rank(chi: tuple, floor: float) -> int:
    """The number of eigenvalues of chi above floor, with no eigensolve.

    Two Householder reflections, each applied to the trailing block only,
    take the Hermitian 4x4 chi (its upper triangle, as ``su2._chi`` returns
    it) to a tridiagonal T; the moduli of T's off-diagonal make it real.
    By Sylvester's law of inertia the count is the number of positive
    pivots of the Sturm recurrence of T - floor I, each pivot of modulus
    below the normal range taken as -_TINY, as LAPACK's dstebz does. Both
    steps are backward stable (Golub and Van Loan, Matrix Computations,
    sec. 8.4; Demmel, Applied Numerical Linear Algebra, sec. 5.3).

    No range scaling is needed on a refused verdict's chi. Refusing needs
    2 tol < deficit <= 3/4, so tol < 3/8, and the trace gate puts Tr chi in
    (5/8, 11/8). chi is positive semidefinite, so every |chi_ij| and every
    entry of T is at most Tr chi: no square or quotient overflows (a guarded
    pivot's e^2 / _TINY < 1e308). An entry whose square underflows moves an
    eigenvalue by less than 1.1e-154 (a dropped column is the largest such
    change), while the floor is at least 1e-14 / 12 * 5/8 > 5e-16.
    """
    d0, x01, x02, x03, d1, x12, x13, d2, x23, d3 = chi
    # conj(chi) = chi^T has chi's spectrum, (x01, x02, x03) below its first
    # diagonal entry, and (x12, x13, x23) below its trailing block's diagonal.
    b12, b13, b23 = x12.conjugate(), x13.conjugate(), x23.conjugate()
    sigma = hypot(x01.real, x01.imag, x02.real, x02.imag, x03.real, x03.imag)
    reflection = _reflection(x01, sigma)
    if reflection is None:
        e0 = 0.0
    else:
        u1, g = reflection
        u2, u3 = x02 * g, x03 * g
        e0 = sigma * sigma
        # B - u q* - q u*, q = B u - (u* B u / 2) u: P B P with P = I - u u*.
        p1 = d1 * u1 + b12 * u2 + b13 * u3
        p2 = x12 * u1 + d2 * u2 + b23 * u3
        p3 = x13 * u1 + x23 * u2 + d3 * u3
        c = 0.5 * (u1.conjugate() * p1 + u2.conjugate() * p2 + u3.conjugate() * p3).real
        q1, q2, q3 = p1 - c * u1, p2 - c * u2, p3 - c * u3
        r1, r2, r3 = q1.conjugate(), q2.conjugate(), q3.conjugate()
        d1 -= 2.0 * (u1 * r1).real
        d2 -= 2.0 * (u2 * r2).real
        d3 -= 2.0 * (u3 * r3).real
        b12 -= u1 * r2 + q1 * u2.conjugate()
        b13 -= u1 * r3 + q1 * u3.conjugate()
        b23 -= u2 * r3 + q2 * u3.conjugate()
    # The trailing block's conjugate has (b12, b13) below its first diagonal
    # entry, and b23 below the diagonal of its own trailing 2x2.
    sigma = hypot(b12.real, b12.imag, b13.real, b13.imag)
    reflection = _reflection(b12, sigma)
    if reflection is None:
        e1 = 0.0
    else:
        u2, g = reflection
        u3 = b13 * g
        e1 = sigma * sigma
        c23 = b23.conjugate()
        p2 = d2 * u2 + c23 * u3
        p3 = b23 * u2 + d3 * u3
        c = 0.5 * (u2.conjugate() * p2 + u3.conjugate() * p3).real
        q2, q3 = p2 - c * u2, p3 - c * u3
        r2, r3 = q2.conjugate(), q3.conjugate()
        d2 -= 2.0 * (u2 * r2).real
        d3 -= 2.0 * (u3 * r3).real
        b23 = c23 - (u2 * r3 + q2 * u3.conjugate())
    e2 = b23.real * b23.real + b23.imag * b23.imag
    count, pivot = 0, 1.0
    for t, e in ((d0, 0.0), (d1, e0), (d2, e1), (d3, e2)):
        pivot = (t - floor) - e / pivot
        if abs(pivot) < _TINY:
            pivot = -_TINY
        count += pivot > 0.0
    return count


def _classify(k: KrausSet, tol: float) -> ChannelClassification:
    chi = _chi(k.operators)
    trace, dev = _trace_gate(chi)
    # Negated comparisons, so that a NaN tolerance fails both checks.
    if not dev <= tol:
        return ChannelClassification(ChannelKind.NOT_CPTP, 0, None)
    if _chi_deficit(chi, trace) <= _deficit_bound(tol):
        unitary = _chi_lift(chi)  # blind to scale, as the purity is
        return ChannelClassification(ChannelKind.UNITARY_CONJUGATION, 1, unitary.matrix)
    rank = _chi_rank(chi, _rank_floor(trace, tol))
    return ChannelClassification(ChannelKind.CPTP_NOT_INVERTIBLE, rank, None)


def extract_unitary_via_gram(
    k: KrausSet, tol: float = DEFAULT_TOL
) -> tuple[ComplexMatrix, GramData]:
    """Reduce a redundant Kraus representation of a reversible channel.

    The paper's criterion A_a'* A_a = beta_{a'a} I holds exactly when the
    set is trace preserving and the Gram matrix beta has rank 1: rank 1
    alone makes every A_a a multiple of one operator C, and only trace
    preservation makes C* C a multiple of I. With c_a the coefficients of
    A_a (``su2._chi``), beta = C* C and chi = C C*, so rank 1 is Choi purity
    1, and the route decides on :func:`classify`'s rule: tp deviation at
    most tol and the purity deficit of chi at most delta(tol).
    Diagonalizing beta remixes the set into operators C_c = sum_a V[a][c] A_a
    with C_c'* C_c = gamma_c delta I; the leading one is the underlying
    unitary up to scale.

    Returns the unitary, lifted from its rotation as ``classify`` lifts, and
    the Gram intermediates. Raises :class:`NotUnitaryConjugationError`,
    carrying the worst pair of the proportionality test and its residual,
    when either bound is exceeded.
    """
    ops = k.operators
    beta, worst_residual, worst_pair, _, _, _ = _pair_table(
        [_adjoint2(op.entries) for op in ops], [op.entries for op in ops]
    )
    chi = _chi(ops)
    trace, dev = _trace_gate(chi)
    deficit = _chi_deficit(chi, trace)
    # Negated, so that a NaN tol fails it, as in classify.
    if not (dev <= tol and deficit <= _deficit_bound(tol)):
        raise NotUnitaryConjugationError(
            f"channel is not a unitary conjugation: tp deviation {dev:.3e}, "
            f"Choi purity deficit {deficit:.3e}; "
            f"operator pair {worst_pair} has proportionality residual {worst_residual:.3e}",
            worst_pair,
            worst_residual,
        )

    eig = _kernels.jacobi_hermitian(len(ops), beta.entries)
    mixing = eig.eigenvectors
    s0 = s1 = s2 = s3 = 0j
    for a, op in enumerate(ops):
        x0, x1, x2, x3 = op.entries
        v = mixing.at(a, 0)
        s0, s1, s2, s3 = s0 + x0 * v, s1 + x1 * v, s2 + x2 * v, s3 + x3 * v
    # Unvalidated: the leading direction's chi entries are at most Tr chi
    # (Cauchy-Schwarz with the unit column V[:, 0]), checked finite above.
    leading = ComplexMatrix._trusted(2, 2, (s0, s1, s2, s3))
    return _chi_lift(_chi((leading,))).matrix, GramData(beta, eig.eigenvalues, mixing)


def verify_inverse_pair(
    k_fwd: KrausSet, k_inv: KrausSet, tol: float = DEFAULT_TOL
) -> InversePairReport:
    """Check that composing the sets yields the identity channel, on the scale
    :func:`classify` decides on.

    The composite {B_b A_a} is the identity channel exactly when it is trace
    preserving and its entanglement fidelity with the identity is 1: F_e =
    chi_00 / Tr chi = sum |alpha_ba|^2 / (sum ||B_b A_a||_F^2 / 2), with
    B_b A_a = alpha_ba I + the residual (Schumacher 1996). The pair is valid
    when the composite is trace preserving within tol and 1 - F_e is at most
    delta(tol), the largest purity deficit of a unitary verdict. A composite
    with no weight (every product zero, or its squares underflowing) is not
    the identity: its infidelity is 1.
    """
    alpha, max_residual, _, square_sum, half_weight, tp_deviation = _pair_table(
        [op.entries for op in k_inv.operators], [op.entries for op in k_fwd.operators]
    )
    infidelity = 1.0 - square_sum / half_weight if half_weight > 0.0 else 1.0
    valid = tp_deviation <= tol and infidelity <= _deficit_bound(tol)
    return InversePairReport(valid, alpha, square_sum, max_residual, infidelity, tp_deviation)


def invert(k: KrausSet, tol: float = DEFAULT_TOL) -> KrausSet:
    """Kraus set of the inverse channel, {U*}; exists only at Choi rank 1."""
    classification = classify(k, tol)
    if classification.kind is not ChannelKind.UNITARY_CONJUGATION:
        raise NotInvertibleError(
            f"channel of kind {classification.kind.value} has no CPTP inverse"
        )
    u = classification.extracted_unitary
    assert u is not None
    return KrausSet((ComplexMatrix._trusted(2, 2, _adjoint2(u.entries)),))


def bloch_affine_action(k: KrausSet, tol: float = DEFAULT_TOL) -> BlochAffineAction:
    """Affine description r -> M r + t of a channel on Bloch vectors.

    M_kj = Tr(sigma_k Phi(sigma_j)) / 2 and t_k = Tr(sigma_k Phi(I)) / 2, both
    linear in chi (``su2._chi``). With (j, k, l) cyclic, M_jj = (chi_00 +
    chi_jj) - (chi_kk + chi_ll), M_jk = 2 Re chi_jk - 2 Re chi_0l, M_kj =
    2 Re chi_jk + 2 Re chi_0l and t_j = -2 (Im chi_0j + Im chi_kl). For a
    unitary chi = q q^T is real, so M is the Euler-Rodrigues rotation of q
    (``phi_inverse``) and t is zero; the fully depolarizing limit contracts
    everything to the origin.
    """
    chi = _chi(k.operators)
    dev = _trace_gate(chi)[1]
    if not dev <= tol:  # negated, so that a NaN tol fails it
        raise InvalidChannelError(
            f"affine action is defined for CPTP sets only (tp deviation {dev:.3e})"
        )
    d0, x01, x02, x03, d1, x12, x13, d2, x23, d3 = chi
    r01, r02, r03, r12, r13, r23 = x01.real, x02.real, x03.real, x12.real, x13.real, x23.real
    # The diagonal sums in pairs: half depolarizing gives 0.5, not 0.5 + 1 ulp.
    matrix = (
        ((d0 + d1) - (d2 + d3), 2.0 * (r12 - r03), 2.0 * (r13 + r02)),
        (2.0 * (r12 + r03), (d0 + d2) - (d3 + d1), 2.0 * (r23 - r01)),
        (2.0 * (r13 - r02), 2.0 * (r23 + r01), (d0 + d3) - (d1 + d2)),
    )
    translation = (
        -2.0 * (x01.imag + x23.imag),
        2.0 * (x13.imag - x02.imag),
        -2.0 * (x03.imag + x12.imag),
    )
    return BlochAffineAction(matrix, translation)


def kraus_from_choi(j: ChoiMatrix) -> KrausSet:
    """Minimal Kraus set sqrt(lambda_k) v_k, v_k read row-major (finite: |v| <= 1)."""
    eig = j.spectrum
    rank = _rank(eig.eigenvalues)
    if rank == 0:
        raise InvalidChannelError("Choi matrix is zero")
    v, roots = eig.eigenvectors.entries, [sqrt(ev) for ev in eig.eigenvalues[:rank]]
    ops = (tuple(r * v[i + k] for i in (0, 4, 8, 12)) for k, r in enumerate(roots))
    return KrausSet(tuple(ComplexMatrix._trusted(2, 2, entries) for entries in ops))
