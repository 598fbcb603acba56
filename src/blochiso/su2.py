"""Special unitaries on one qubit.

U = w I - i v . sigma from a unit quaternion, with w = cos(a/2) and
v = sin(a/2) n; composition, state conjugation, and so3's axis-angle
logarithm of (w, v), covering angles in [0, 2*pi] (the endpoint is hit only
at U = -I, axis defaulting to z-hat). Every unitary read off a matrix is
one lift: phi of the Bloch rotation of rho -> sum_a A rho A*.
"""

from __future__ import annotations

from ._value import Value
from .bloch import DensityOperator
from .errors import DomainError
from .matrix import DEFAULT_TOL, ComplexMatrix, _adjoint2, _mul2
from .so3 import AxisAngle, _axis_angle, _half_angle, _quaternion as _rotation_quaternion


class Unitary2(Value):
    """2x2 complex matrix with U* U = I and det U = 1 (within tolerance).

    Matrices that are unitary only up to a global phase are rejected rather
    than silently re-phased; use :func:`normalize_phase` to fix the phase
    explicitly.
    """

    def __init__(self, matrix: ComplexMatrix) -> None:
        self.__dict__["matrix"] = matrix
        self.__post_init__()

    def __post_init__(self) -> None:
        m = self.matrix
        if m.rows != 2 or m.cols != 2:
            raise DomainError("unitary must be 2x2")
        dev = unitarity_deviation(m)
        if not dev <= DEFAULT_TOL:  # negated, so that a NaN entry fails both
            raise DomainError(f"matrix is not unitary (deviation {dev:.3e})")
        d = det2(m)
        if not abs(d - 1.0) <= DEFAULT_TOL:
            raise DomainError(f"special unitary needs det 1, got {d!r}")


def det2(m: ComplexMatrix) -> complex:
    a, b, c, d = m.entries
    return a * d - b * c


def unitarity_deviation(m: ComplexMatrix) -> float:
    """Largest entrywise deviation of U* U from the identity, for a 2x2 U.

    Closed form of the generic product: the same operations less the terms
    that are exact zeros, so the deviation is the generic one, bit for bit.
    """
    a, b, c, d = m.entries
    ac, bc, cc, dc = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    return max(
        abs(ac * a + cc * c - 1.0),
        abs(ac * b + cc * d),
        abs(bc * a + dc * c),
        abs(bc * b + dc * d - 1.0),
    )


def _from_quaternion(w: float, x: float, y: float, z: float) -> Unitary2:
    """w I - i (x, y, z) . sigma, for a unit quaternion: the one layout of U."""
    return Unitary2(
        ComplexMatrix._trusted(
            2, 2, (complex(w, -z), complex(-y, -x), complex(y, -x), complex(w, z))
        )
    )


def _quaternion(u: Unitary2) -> tuple[float, float, float, float]:
    """q of U = w I - i (x, y, z) . sigma, each part the mean of its two read-offs."""
    a, b, c, d = u.matrix.entries
    return (
        (a + d).real / 2.0,
        -(b.imag + c.imag) / 2.0,
        (c.real - b.real) / 2.0,
        (d.imag - a.imag) / 2.0,
    )


def unitary_from_axis_angle(aa: AxisAngle) -> Unitary2:
    """cos(a/2) I - i sin(a/2) n . sigma; det is 1 by construction."""
    return _from_quaternion(*_half_angle(aa))


def axis_angle_from_unitary(u: Unitary2) -> AxisAngle:
    """Logarithm of a special unitary, read off its quaternion (w, v).

    The angle 2 atan2(||v||, w) lies in [0, 2*pi], so U and -U give distinct
    results: the double cover is collapsed only on the rotation side.
    """
    return _axis_angle(*_quaternion(u))


def compose(ua: Unitary2, ub: Unitary2) -> Unitary2:
    return Unitary2(ComplexMatrix._trusted(2, 2, _mul2(ua.matrix.entries, ub.matrix.entries)))


def conjugate(u: Unitary2, rho: DensityOperator) -> DensityOperator:
    """U rho U*; preserves trace, Hermiticity, positivity, and purity."""
    ue = u.matrix.entries
    return DensityOperator(
        ComplexMatrix._trusted(2, 2, _mul2(_mul2(ue, rho.matrix.entries), _adjoint2(ue)))
    )


def negate(u: Unitary2) -> Unitary2:
    """The other preimage of the same rotation."""
    a, b, c, d = u.matrix.entries
    return Unitary2(ComplexMatrix._trusted(2, 2, (a * -1.0, b * -1.0, c * -1.0, d * -1.0)))


def _bloch_columns(operators: tuple[ComplexMatrix, ...]) -> list[tuple[float, float, float]]:
    """Columns (Tr(s_k Phi(X)) / 2 for k = x, y, z) of Phi(X) = sum_a A X A*.

    X runs through s_x, s_y, s_z and I: the three columns of M, then t. A Pauli
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
    for j in range(4):
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


def _lift(operators: tuple[ComplexMatrix, ...], half_trace: float) -> Unitary2:
    """phi of M / half_trace, M the Bloch matrix of the operators' channel and
    half_trace = Tr J / 2, which the caller sums. Blind to scale, it skips
    Rotation3's check; w >= 0 gives det U = 1 and phi's half-turn tie rule."""
    *columns, _ = _bloch_columns(operators)
    rows = [[m / half_trace for m in row] for row in zip(*columns)]
    return _from_quaternion(*_rotation_quaternion(rows))


def _half_trace(m: ComplexMatrix) -> float:
    """Tr(A* A) / 2, summed as the Choi diagonal is: its lift is classify's."""
    a, b, c, d = ((e * e.conjugate()).real for e in m.entries)
    return 0.5 * (a + b + c + d)


def normalize_phase(m: ComplexMatrix) -> Unitary2:
    """The lift of the rotation of U, as ``classify`` prints for its channel.

    Accepts a matrix that is unitary within ``DEFAULT_TOL``, the tolerance
    :class:`Unitary2` holds its result to.
    """
    if m.rows != 2 or m.cols != 2:
        raise DomainError("normalize_phase expects a 2x2 matrix")
    dev = unitarity_deviation(m)
    if not dev <= DEFAULT_TOL:  # negated, so that a NaN entry fails it
        raise DomainError(f"matrix is not unitary (deviation {dev:.3e})")
    return _lift((m,), _half_trace(m))
