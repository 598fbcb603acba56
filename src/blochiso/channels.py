"""Qubit channels: Kraus and Choi forms, CPTP checks, and reversibility.

A channel acts as rho -> sum_a A_a rho A_a*. Complete positivity is read off
the Choi matrix, trace preservation off sum_a A_a* A_a = I. A channel admits
a CPTP inverse exactly when its Choi rank is 1, i.e. it is conjugation by a
single unitary; the Gram-matrix pipeline below reduces any redundant Kraus
representation of such a channel to that unitary constructively.
"""

from __future__ import annotations

from cmath import isfinite
from enum import Enum
from math import sqrt

from ._value import Value
from .bloch import PAULIS, DensityOperator
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
    _checked_hermitian_eig,
    _mul2,
    adjoint,
    hermitian_eig,
    max_abs_diff,
    scale,
)
from .so3 import Matrix3
from .su2 import unitarity_deviation

#: Kraus operators below this Frobenius norm are dropped on ingestion; they
#: contribute nothing to the channel and break proportionality diagnostics.
ZERO_OPERATOR_NORM = 1e-12

#: Choi eigenvalues below this fraction of the largest count as rank zero.
RANK_RELATIVE_THRESHOLD = 1e-7

_I2 = ComplexMatrix.identity(2)


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
) -> tuple[ComplexMatrix, float, tuple[int, int]]:
    """Coefficients Tr(L R) / 2 of every product L R, row-major, as a matrix;
    the largest max |L R - coeff I|; and the first pair that reaches it.

    Sums never turn a non-finite entry finite, so checking the off-diagonal
    entries and coeff covers every value the generic chain checks.
    """
    entries = []
    worst = 0.0
    worst_pair = (0, 0)
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
    return ComplexMatrix._trusted(len(lefts), len(rights), tuple(entries)), worst, worst_pair


def _rank(eigenvalues: tuple[float, ...]) -> int:
    """Number of a descending spectrum's eigenvalues above RANK_RELATIVE_THRESHOLD
    times the largest, 0 if that is not positive: the Choi rank, the Kraus count of
    :func:`kraus_from_choi` and the Gram rank of the unitary extraction.
    """
    top = eigenvalues[0]
    if top <= 0.0:
        return 0
    return sum(1 for ev in eigenvalues if ev > RANK_RELATIVE_THRESHOLD * top)


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
        object.__setattr__(self, "operators", tuple(kept))
        object.__setattr__(self, "_classified", None)

    def tp_deviation(self) -> float:
        """Largest entrywise deviation of sum A* A from the identity."""
        s0 = s1 = s2 = s3 = 0j
        for op in self.operators:
            p0, p1, p2, p3 = _mul2(_adjoint2(op.entries), op.entries)
            s0, s1, s2, s3 = s0 + p0, s1 + p1, s2 + p2, s3 + p3
        _require_finite(s0, s1, s2, s3)
        return max(abs(s0 - 1.0), abs(s1), abs(s2), abs(s3 - 1.0))


class ChoiMatrix(Value):
    """4x4 Choi matrix J = sum_ij Phi(E_ij) (x) E_ij (unnormalized, trace 2).

    ``(x)`` is the tensor product of the output and input factors.
    Hermiticity and positivity (the CP side) are enforced; the partial trace
    over the output factor equals I exactly when the source set is trace
    preserving. ``spectrum`` keeps the eigendecomposition the positivity
    check computed; it is not part of the value's equality, hash or repr.
    """

    spectrum: HermitianEigenResult

    def __init__(self, matrix: ComplexMatrix) -> None:
        self.__dict__["matrix"] = matrix
        self.__post_init__()

    def __post_init__(self) -> None:
        m = self.matrix
        if m.rows != 4 or m.cols != 4:
            raise InvalidChannelError("Choi matrix must be 4x4")
        # One adjoint serves the Hermiticity check and the factorization.
        m_adjoint = adjoint(m)
        if max_abs_diff(m, m_adjoint) > DEFAULT_TOL:
            raise InvalidChannelError("Choi matrix must be Hermitian")
        spectrum = _checked_hermitian_eig(m, m_adjoint)
        if spectrum.eigenvalues[-1] < -DEFAULT_TOL:
            raise InvalidChannelError("Choi matrix must be positive semidefinite")
        object.__setattr__(self, "spectrum", spectrum)

    def eigenvalues(self) -> tuple[float, ...]:
        return self.spectrum.eigenvalues

    def rank(self) -> int:
        return _rank(self.spectrum.eigenvalues)


class ChannelKind(Enum):
    UNITARY_CONJUGATION = "UnitaryConjugation"
    # A channel is invertible with CPTP inverse iff it is a unitary
    # conjugation; the two names are one member.
    INVERTIBLE_WITH_CPTP_INVERSE = "UnitaryConjugation"
    CPTP_NOT_INVERTIBLE = "CptpNotInvertible"
    NOT_CPTP = "NotCptp"


class CptpDiagnostics(Value):
    def __init__(self, is_cptp: bool, tp_deviation: float, choi_min_eigenvalue: float) -> None:
        d = self.__dict__
        d["is_cptp"], d["tp_deviation"] = is_cptp, tp_deviation
        d["choi_min_eigenvalue"] = choi_min_eigenvalue

    def __bool__(self) -> bool:
        return self.is_cptp


class ChannelClassification(Value):
    """Verdict of :func:`classify`.

    ``choi_rank`` is 0 for non-CPTP input (no meaningful rank is reported).
    ``extracted_unitary`` is determined up to global phase only, pinned by
    making its largest-magnitude entry real positive; its determinant is
    deliberately not normalized to 1 (see su2.normalize_phase for that).
    """

    def __init__(
        self, kind: ChannelKind, choi_rank: int, extracted_unitary: ComplexMatrix | None
    ) -> None:
        d = self.__dict__
        d["kind"], d["choi_rank"], d["extracted_unitary"] = kind, choi_rank, extracted_unitary


class GramData(Value):
    """Intermediates of the unitary extraction.

    ``beta`` is the Hermitian PSD unit-trace matrix of proportionality
    constants A_a'* A_a = beta_{a'a} I, ``gamma`` its eigenvalues in
    descending order, ``mixing`` the unitary whose columns diagonalize it.
    """

    def __init__(
        self, beta: ComplexMatrix, gamma: tuple[float, ...], mixing: ComplexMatrix
    ) -> None:
        d = self.__dict__
        d["beta"], d["gamma"], d["mixing"] = beta, gamma, mixing


class InversePairReport(Value):
    """Result of checking that one Kraus set undoes another.

    ``alpha`` tabulates the proportionality constants B_b A_a = alpha_ba I
    (rows indexed by the inverse candidate's operators).
    """

    def __init__(
        self, valid: bool, alpha: ComplexMatrix, alpha_square_sum: float, max_residual: float
    ) -> None:
        d = self.__dict__
        d["valid"], d["alpha"] = valid, alpha
        d["alpha_square_sum"], d["max_residual"] = alpha_square_sum, max_residual

    def __bool__(self) -> bool:
        return self.valid


class BlochAffineAction(Value):
    """Action on Bloch vectors: r -> M r + t."""

    def __init__(self, matrix: Matrix3, translation: tuple[float, float, float]) -> None:
        d = self.__dict__
        d["matrix"], d["translation"] = matrix, translation


def apply_channel(k: KrausSet, rho: DensityOperator, tol: float = DEFAULT_TOL) -> DensityOperator:
    """sum_a A_a rho A_a* for a trace-preserving set, each entry summed from
    0j over the operators and checked once for finiteness."""
    dev = k.tp_deviation()
    if not dev <= tol:  # negated, so that a NaN tol fails it
        raise InvalidChannelError(f"Kraus set is not trace preserving (deviation {dev:.3e})")
    m = rho.matrix.entries
    s0 = s1 = s2 = s3 = 0j
    for op in k.operators:
        p0, p1, p2, p3 = _mul2(_mul2(op.entries, m), _adjoint2(op.entries))
        s0, s1, s2, s3 = s0 + p0, s1 + p1, s2 + p2, s3 + p3
    return DensityOperator(ComplexMatrix(2, 2, (s0, s1, s2, s3)))


def _choi_entries(k: KrausSet) -> ComplexMatrix:
    ents = [0j] * 16
    for op in k.operators:
        w = op.entries  # row-major flattening matches the tensor-product order
        for r in range(4):
            wr = w[r]
            for c in range(4):
                ents[r * 4 + c] += wr * w[c].conjugate()
    return ComplexMatrix(4, 4, tuple(ents))


def choi_of(k: KrausSet) -> ChoiMatrix:
    """Choi matrix of the channel; its rank is the minimal Kraus count."""
    return ChoiMatrix(_choi_entries(k))


def is_cptp(k: KrausSet, tol: float = DEFAULT_TOL) -> CptpDiagnostics:
    """Trace preservation plus positivity of the Choi matrix.

    The spectrum is taken without :class:`ChoiMatrix` validation, whose
    positivity check is absolute: a set far from trace preservation can
    have a Choi roundoff beyond it and must still get its diagnostics.
    """
    tp = k.tp_deviation()
    min_eig = hermitian_eig(_choi_entries(k)).eigenvalues[-1]
    return CptpDiagnostics(tp <= tol and min_eig >= -tol, tp, min_eig)


def classify(k: KrausSet, tol: float = DEFAULT_TOL) -> ChannelClassification:
    """Decide invertibility: rank-one Choi means conjugation by one unitary.

    Trace preservation is checked first, so a non-TP set needs no Choi
    matrix. The verdict is kept on ``k`` and returned again for the same
    ``tol``.
    """
    cached = k._classified
    if cached is not None and cached[0] == tol:
        return cached[1]
    result = _classify(k, tol)
    object.__setattr__(k, "_classified", (tol, result))
    return result


def _classify(k: KrausSet, tol: float) -> ChannelClassification:
    # Negated comparisons, so that a NaN tolerance fails both checks.
    if not k.tp_deviation() <= tol:
        return ChannelClassification(ChannelKind.NOT_CPTP, 0, None)
    choi = choi_of(k)
    if not choi.eigenvalues()[-1] >= -tol:
        return ChannelClassification(ChannelKind.NOT_CPTP, 0, None)
    rank = choi.rank()
    if rank == 1:
        try:
            unitary, _ = extract_unitary_via_gram(k, tol)
        except NotUnitaryConjugationError:
            # Rank fell below the threshold but the operators are not quite
            # proportional; report the channel as not invertible rather than
            # crash on the numerically ambiguous input.
            return ChannelClassification(ChannelKind.CPTP_NOT_INVERTIBLE, rank, None)
        return ChannelClassification(ChannelKind.UNITARY_CONJUGATION, 1, unitary)
    return ChannelClassification(ChannelKind.CPTP_NOT_INVERTIBLE, rank, None)


def extract_unitary_via_gram(
    k: KrausSet, tol: float = DEFAULT_TOL
) -> tuple[ComplexMatrix, GramData]:
    """Reduce a redundant Kraus representation of a reversible channel.

    Every pairwise product A_a'* A_a must be proportional to the identity;
    the proportionality constants form the Gram matrix beta. Diagonalizing
    beta remixes the set into operators C_c = sum_a V[a][c] A_a satisfying
    C_c'* C_c = gamma_c delta I. The leading one, divided by sqrt(gamma_0), is
    the underlying unitary; the channel is that unitary's conjugation exactly
    when the Gram rank, :func:`_rank` of gamma, is 1.

    Returns the unitary (up to a phase pinned deterministically) and the
    Gram intermediates. Raises :class:`NotUnitaryConjugationError`, carrying
    the worst offending pair, when proportionality fails, the leading
    direction is not unitary or the Gram rank exceeds 1 (residual gamma_1).
    """
    ops = k.operators
    beta, worst_residual, worst_pair = _pair_table(
        [_adjoint2(op.entries) for op in ops], [op.entries for op in ops]
    )
    # Negated comparisons, so that a NaN tolerance fails every guard.
    if not worst_residual <= tol:
        raise NotUnitaryConjugationError(
            "channel is not a unitary conjugation: operator pair "
            f"{worst_pair} has proportionality residual {worst_residual:.3e}",
            worst_pair,
            worst_residual,
        )

    eig = hermitian_eig(beta, tol)
    gamma = eig.eigenvalues
    mixing = eig.eigenvectors

    # Beta is the Gram matrix of nonzero operators, so gamma[0] is positive;
    # the check guards the square root and does not depend on tol.
    if not gamma[0] > 0.0:
        raise NotUnitaryConjugationError(
            "Gram matrix has no significant direction", (0, 0), gamma[0]
        )

    s0 = s1 = s2 = s3 = 0j
    for a, op in enumerate(ops):
        x0, x1, x2, x3 = op.entries
        v = mixing.at(a, 0)
        s0, s1, s2, s3 = s0 + x0 * v, s1 + x1 * v, s2 + x2 * v, s3 + x3 * v
    norm = 1.0 / sqrt(gamma[0])
    unitary = ComplexMatrix(2, 2, (s0 * norm, s1 * norm, s2 * norm, s3 * norm))
    dev = unitarity_deviation(unitary)
    if not dev <= max(tol, 1e-7):
        raise NotUnitaryConjugationError(
            f"leading Gram direction is not unitary (deviation {dev:.3e})", (0, 0), dev
        )
    # The Gram rank is the minimal Kraus count, as the Choi rank is: a second
    # significant direction is a second operator the channel cannot do without.
    if _rank(gamma) > 1:
        raise NotUnitaryConjugationError(
            "Gram directions disagree on the underlying unitary", (0, 0), gamma[1]
        )

    return _pin_phase(unitary), GramData(beta, gamma, mixing)


def _pin_phase(m: ComplexMatrix) -> ComplexMatrix:
    """Make the largest-magnitude entry real positive."""
    pivot = max(m.entries, key=abs)
    return scale(m, pivot.conjugate() / abs(pivot))


def verify_inverse_pair(
    k_fwd: KrausSet, k_inv: KrausSet, tol: float = DEFAULT_TOL
) -> InversePairReport:
    """Check that composing the sets yields the identity channel.

    Every product B_b A_a must be proportional to I with the squared
    magnitudes of the constants summing to one.
    """
    alpha, max_residual, _ = _pair_table(
        [op.entries for op in k_inv.operators], [op.entries for op in k_fwd.operators]
    )
    square_sum = 0.0
    for coeff in alpha.entries:
        square_sum += coeff.real * coeff.real + coeff.imag * coeff.imag
    valid = max_residual <= tol and abs(square_sum - 1.0) <= tol
    return InversePairReport(valid, alpha, square_sum, max_residual)


def invert(k: KrausSet, tol: float = DEFAULT_TOL) -> KrausSet:
    """Kraus set of the inverse channel, {U*}; exists only at Choi rank 1."""
    classification = classify(k, tol)
    if classification.kind is not ChannelKind.UNITARY_CONJUGATION:
        raise NotInvertibleError(
            f"channel of kind {classification.kind.value} has no CPTP inverse"
        )
    assert classification.extracted_unitary is not None
    return KrausSet((adjoint(classification.extracted_unitary),))


def _bloch_columns(
    operators: tuple[ComplexMatrix, ...], count: int
) -> list[tuple[float, float, float]]:
    """Columns (Tr(s_k Phi(X)) / 2 for k = x, y, z) of Phi(X) = sum_a A X A*.

    X runs through s_x, s_y, s_z and I, the first ``count`` of them. A Pauli
    matrix only permutes, negates or multiplies by +-i, so A X is read off
    the entries of A. The four entries of (A X) A* are added, operator by
    operator, into sums started at 0j, as the generic sum of products does.
    Only operations on exact zeros are left out, and the 0j start makes
    every exact zero +0.0, so each result is the generic one bit for bit,
    zero signs included. The entries are quadratic in A, so A and -A give
    the identical columns.
    """
    expanded = []
    for op in operators:
        a, b, c, d = op.entries
        # A X for X = s_x, s_y, s_z, I, then the entries of A*.
        times_x = ((b, a, d, c), (b * 1j, a * -1j, d * 1j, c * -1j), (a, -b, c, -d), (a, b, c, d))
        expanded.append((times_x, a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()))
    columns = []
    for j in range(count):
        m00 = m01 = m10 = m11 = 0j
        for times_x, ac, bc, cc, dc in expanded:
            x0, x1, x2, x3 = times_x[j]
            m00 += x0 * ac + x1 * bc
            m01 += x0 * cc + x1 * dc
            m10 += x2 * ac + x3 * bc
            m11 += x2 * cc + x3 * dc
        columns.append(
            (
                0.5 * (m01.real + m10.real),
                0.5 * (m10.imag - m01.imag),
                0.5 * (m00.real - m11.real),
            )
        )
    return columns


def bloch_affine_action(k: KrausSet, tol: float = DEFAULT_TOL) -> BlochAffineAction:
    """Affine description r -> M r + t of a channel on Bloch vectors.

    M_kj = Tr(sigma_k Phi(sigma_j)) / 2 and t_k = Tr(sigma_k Phi(I)) / 2.
    Unitary channels give orthogonal M and zero t; the fully depolarizing
    limit contracts everything to the origin.
    """
    diagnostics = is_cptp(k, tol)
    if not diagnostics.is_cptp:
        raise InvalidChannelError(
            "affine action is defined for CPTP sets only "
            f"(tp deviation {diagnostics.tp_deviation:.3e}, "
            f"choi min eigenvalue {diagnostics.choi_min_eigenvalue:.3e})"
        )
    *columns, translation = _bloch_columns(k.operators, 4)
    return BlochAffineAction(tuple(zip(*columns)), translation)  # type: ignore[arg-type]


def make_depolarizing(p: float) -> KrausSet:
    """Channel rho -> p rho + (1 - p) I / 2 in its four-operator form."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"depolarizing parameter must lie in [0, 1], got {p!r}")
    q = 1.0 - p
    ops = (
        scale(_I2, sqrt(1.0 - 0.75 * q)),
        scale(PAULIS[0], sqrt(0.25 * q)),
        scale(PAULIS[1], sqrt(0.25 * q)),
        scale(PAULIS[2], sqrt(0.25 * q)),
    )
    return KrausSet(ops)


def kraus_from_choi(j: ChoiMatrix) -> KrausSet:
    """Minimal Kraus set from the spectral decomposition of the Choi matrix."""
    eig = j.spectrum
    rank = _rank(eig.eigenvalues)
    if rank == 0:
        raise InvalidChannelError("Choi matrix is zero")
    ops = []
    for k in range(rank):
        root = sqrt(eig.eigenvalues[k])
        ops.append(
            ComplexMatrix(
                2, 2, tuple(root * eig.eigenvectors.at(r, k) for r in range(4))
            )
        )
    return KrausSet(tuple(ops))
