"""Special unitaries on one qubit.

U = w I - i v . sigma from a unit quaternion, with w = cos(a/2) and
v = sin(a/2) n; composition, state conjugation, and so3's axis-angle
logarithm of (w, v), covering angles in [0, 2*pi] (the endpoint is hit only
at U = -I, axis defaulting to z-hat).
"""

from __future__ import annotations

import cmath

from ._value import Value
from .bloch import DensityOperator
from .errors import DomainError
from .matrix import DEFAULT_TOL, ComplexMatrix, _adjoint2, _mul2
from .so3 import AxisAngle, _axis_angle, _half_angle


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


def _pin_phase(m: ComplexMatrix) -> ComplexMatrix | None:
    """Divide out the global phase so that det U = 1, then take the sign that
    makes Re tr U >= 0 (angle in [0, pi]); the sign ties only at Re tr U = 0.

    None when det U is zero or not finite, or a quotient overflows: no
    unitary has such a matrix as a multiple.
    """
    root = cmath.sqrt(det2(m))
    if not (root and cmath.isfinite(root)):
        return None
    pinned = [e / root for e in m.entries]
    if (pinned[0] + pinned[3]).real < 0.0:
        pinned = [-e for e in pinned]
    try:
        return ComplexMatrix(2, 2, tuple(pinned))
    except DomainError:
        return None


def normalize_phase(m: ComplexMatrix) -> Unitary2:
    """Divide out the global phase as :func:`_pin_phase` does: det U = 1, then
    the sign with angle in [0, pi], the lift ``phi`` gives the rotation of U.

    Accepts a matrix that is unitary within ``DEFAULT_TOL``, the tolerance
    :class:`Unitary2` holds its result to.
    """
    if m.rows != 2 or m.cols != 2:
        raise DomainError("normalize_phase expects a 2x2 matrix")
    dev = unitarity_deviation(m)
    if dev > DEFAULT_TOL:
        raise DomainError(f"matrix is not unitary (deviation {dev:.3e})")
    pinned = _pin_phase(m)
    if pinned is None:
        raise DomainError("matrix determinant vanishes")
    return Unitary2(pinned)
