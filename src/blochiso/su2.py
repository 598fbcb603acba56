"""Special unitaries on one qubit.

Half-angle closed form cos(a/2) I - i sin(a/2) n . sigma, composition,
state conjugation, and the axis-angle logarithm covering angles in
[0, 2*pi] (the endpoint is hit only at U = -I, axis defaulting to z-hat).
"""

from __future__ import annotations

import cmath
from math import atan2, cos, sin, sqrt

from ._value import Value
from .bloch import DensityOperator
from .errors import DomainError
from .matrix import DEFAULT_TOL, ComplexMatrix, _adjoint2, _mul2, scale
from .so3 import Z_AXIS, AxisAngle

_AXIS_CUTOFF = 1e-12


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
        if dev > DEFAULT_TOL:
            raise DomainError(f"matrix is not unitary (deviation {dev:.3e})")
        d = det2(m)
        if abs(d - 1.0) > DEFAULT_TOL:
            raise DomainError(f"special unitary needs det 1, got {d!r}")


def det2(m: ComplexMatrix) -> complex:
    return m.at(0, 0) * m.at(1, 1) - m.at(0, 1) * m.at(1, 0)


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


def unitary_from_axis_angle(aa: AxisAngle) -> Unitary2:
    """cos(a/2) I - i sin(a/2) n . sigma; det is 1 by construction."""
    c = cos(aa.angle / 2.0)
    s = sin(aa.angle / 2.0)
    n1, n2, n3 = aa.axis
    return Unitary2(
        ComplexMatrix._trusted(
            2,
            2,
            (
                complex(c, -s * n3),
                complex(-s * n2, -s * n1),
                complex(s * n2, -s * n1),
                complex(c, s * n3),
            ),
        )
    )


def axis_angle_from_unitary(u: Unitary2) -> AxisAngle:
    """Logarithm of a special unitary.

    Writes U = w I - i v . sigma and returns angle = 2 atan2(||v||, w) in
    [0, 2*pi], so U and -U produce distinct results (the double cover is
    kept visible here and collapsed only by the rotation side).
    """
    m = u.matrix
    w = (m.at(0, 0) + m.at(1, 1)).real / 2.0
    v1 = -(m.at(0, 1).imag + m.at(1, 0).imag) / 2.0
    v2 = (m.at(1, 0).real - m.at(0, 1).real) / 2.0
    v3 = (m.at(1, 1).imag - m.at(0, 0).imag) / 2.0
    vn = sqrt(v1 * v1 + v2 * v2 + v3 * v3)
    angle = 2.0 * atan2(vn, w)
    if vn <= _AXIS_CUTOFF:
        return AxisAngle(Z_AXIS, angle)
    axis = (v1 / vn, v2 / vn, v3 / vn)
    nrm = sqrt(axis[0] ** 2 + axis[1] ** 2 + axis[2] ** 2)
    return AxisAngle((axis[0] / nrm, axis[1] / nrm, axis[2] / nrm), angle)


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
    return Unitary2(ComplexMatrix._trusted(2, 2, tuple(e * -1.0 for e in u.matrix.entries)))


def normalize_phase(m: ComplexMatrix) -> Unitary2:
    """Divide out the global phase so det becomes 1 (principal square root).

    Accepts a matrix that is unitary within ``DEFAULT_TOL``, the tolerance
    :class:`Unitary2` holds its result to; the two SU(2) representatives
    differ by sign and this picks the principal branch.
    """
    if m.rows != 2 or m.cols != 2:
        raise DomainError("normalize_phase expects a 2x2 matrix")
    dev = unitarity_deviation(m)
    if dev > DEFAULT_TOL:
        raise DomainError(f"matrix is not unitary (deviation {dev:.3e})")
    d = det2(m)
    root = cmath.sqrt(d)
    if abs(root) < 1e-12:
        raise DomainError("matrix determinant vanishes")
    return Unitary2(scale(m, 1.0 / root))
