"""Special unitaries on one qubit.

U = w I - i v . sigma from a unit quaternion, with w = cos(a/2) and
v = sin(a/2) n: its entries (``_entries``), the quaternion read back off
them, and so3's axis-angle logarithm of (w, v), covering angles in
[0, 2*pi] (the endpoint is hit only at U = -I, axis defaulting to z-hat).
Every unitary read off a matrix is one lift, off the process matrix chi of
rho -> sum_a A rho A*: for a unitary channel chi = q q^T, and its row with
the largest diagonal entry is q as ``phi`` reads it off the rotation, by
Shepperd's rule.
"""

from __future__ import annotations

from math import inf, sqrt

from ._value import Value
from .errors import DomainError
from .matrix import DEFAULT_TOL, ComplexMatrix
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
    that are exact zeros, so the deviation is the generic one, bit for bit;
    inf where a modulus is past the float range.
    """
    a, b, c, d = m.entries
    ac, bc, cc, dc = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    try:
        return max(
            abs(ac * a + cc * c - 1.0),
            abs(ac * b + cc * d),
            abs(bc * a + dc * c),
            abs(bc * b + dc * d - 1.0),
        )
    except OverflowError:  # abs() of a finite complex past the float range
        return inf


def _entries(w: float, x: float, y: float, z: float) -> tuple[complex, ...]:
    """w I - i (x, y, z) . sigma, for a unit quaternion: the one layout of U."""
    return (complex(w, -z), complex(-y, -x), complex(y, -x), complex(w, z))


def _from_quaternion(w: float, x: float, y: float, z: float) -> Unitary2:
    return Unitary2(ComplexMatrix._trusted(2, 2, _entries(w, x, y, z)))


def _quaternion(entries: tuple[complex, ...]) -> tuple[float, float, float, float]:
    """q of U = w I - i (x, y, z) . sigma, each part the mean of its two read-offs."""
    a, b, c, d = entries
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
    return _axis_angle(*_quaternion(u.matrix.entries))


def negate(u: Unitary2) -> Unitary2:
    """The other preimage of the same rotation."""
    a, b, c, d = u.matrix.entries
    return Unitary2(ComplexMatrix._trusted(2, 2, (a * -1.0, b * -1.0, c * -1.0, d * -1.0)))


def _chi(operators: tuple[ComplexMatrix, ...]) -> tuple:
    """The process matrix chi = sum_A c c*, of rho -> sum_A A rho A*, in the
    basis (I, -i s_x, -i s_y, -i s_z): A = c_0 I - i (c_1, c_2, c_3) . sigma,
    so c = ((a+d)/2, i(b+c)/2, (c-b)/2, i(a-d)/2) for A = [[a, b], [c, d]].

    Returns the upper triangle, row-major, with the diagonal entries as
    floats. The products x_i x_j* of x = ((a+d)/2, (b+c)/2, (c-b)/2, (a-d)/2)
    are summed, and the phases of c, i on x_1 and x_3, are put on the sums
    exactly. chi is the Choi matrix J in another basis, halved (Wood,
    Biamonte and Cory, arXiv:1111.6950): Tr chi = Tr J / 2, Tr chi^2 =
    Tr J^2 / 4, and the spectrum is J's halved. For U = e^{it} (w I - i v .
    sigma), chi = q q^T, q = (w, v). The channel's action on Bloch vectors
    is linear in chi (``channels.bloch_affine_action``).
    """
    d0 = d1 = d2 = d3 = 0.0
    x01 = x02 = x03 = x13 = x21 = x23 = 0j
    for op in operators:
        a, b, c, d = op.entries
        s, u, v, t = (a + d) * 0.5, (b + c) * 0.5, (c - b) * 0.5, (a - d) * 0.5
        sc, uc, vc, tc = s.conjugate(), u.conjugate(), v.conjugate(), t.conjugate()
        d0 += (s * sc).real
        d1 += (u * uc).real
        d2 += (v * vc).real
        d3 += (t * tc).real
        x01 += s * uc
        x02 += s * vc
        x03 += s * tc
        x13 += u * tc
        x21 += v * uc
        x23 += v * tc
    return (
        d0, complex(x01.imag, -x01.real), x02, complex(x03.imag, -x03.real),  # -i x01, -i x03
        d1, complex(x21.imag, x21.real), x13,  # i conj(x21)
        d2, complex(x23.imag, -x23.real),  # -i x23
        d3,
    )


def _chi_lift(chi: tuple) -> Unitary2:
    """phi of the channel's rotation, read off chi as Shepperd reads 4 q q^T
    off R: the row of Re chi with the largest diagonal entry (the first of
    equals), over that entry, then normalized with w >= 0. Blind to scale;
    w >= 0 gives det U = 1 and phi's half-turn tie rule."""
    d0, x01, x02, x03, d1, x12, x13, d2, x23, d3 = chi
    if d0 >= d1 and d0 >= d2 and d0 >= d3:
        p, row = d0, (d0, x01.real, x02.real, x03.real)
    elif d1 >= d2 and d1 >= d3:
        p, row = d1, (x01.real, d1, x12.real, x13.real)
    elif d2 >= d3:
        p, row = d2, (x02.real, x12.real, d2, x23.real)
    else:
        p, row = d3, (x03.real, x13.real, x23.real, d3)
    w, x, y, z = row[0] / p, row[1] / p, row[2] / p, row[3] / p
    nrm = sqrt(w * w + x * x + y * y + z * z)
    if w < 0.0:
        nrm = -nrm
    return _from_quaternion(w / nrm, x / nrm, y / nrm, z / nrm)


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
    return _chi_lift(_chi((m,)))
