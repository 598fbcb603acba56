"""The two directions between rotations and special unitaries.

Both go through the unit quaternion q a rotation shares with its lifts +-q:
a rotation lifts to the unitary of its q with w >= 0, and a unitary drops to
the Euler-Rodrigues rotation of its q, quadratic in q and so blind to the
sign of U (the double cover). Two commuting-diagram verifiers live here too.
They compose in the private tuple forms of ``su2``, ``so3`` and ``bloch``, the
ones the public functions call, and check only the values they return:
the deviation between the two paths is the check on every product inside.
"""

from __future__ import annotations

from . import so3, su2
from ._value import Value
from .bloch import BlochVector, DensityOperator, _density_entries
from .errors import DomainError
from .matrix import DEFAULT_TOL, ComplexMatrix, _adjoint2, _mul2
from .so3 import AxisAngle, Rotation3
from .su2 import Unitary2

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Sequence


class DiagramReport(Value):
    """Outcome of a commuting-diagram check.

    The two path results carry density operators for the state diagram and
    rotations for the group diagram.
    """

    def __init__(
        self, max_deviation: float, commutes: bool, path_a_result: object, path_b_result: object
    ) -> None:
        d = self.__dict__
        d["max_deviation"], d["commutes"] = max_deviation, commutes
        d["path_a_result"], d["path_b_result"] = path_a_result, path_b_result


def phi(rot: Rotation3) -> Unitary2:
    """Lift a rotation to SU(2) through its unit quaternion.

    Of the two preimages this picks the one with w >= 0, Re tr U >= 0,
    angle in [0, pi]: the standard continuous-near-identity choice, which
    ``classify`` prints too. The two tie only at an exact half turn, where
    the largest component of the axis is positive.
    """
    return su2._from_quaternion(*so3._quaternion(rot.matrix))


def phi_inverse(u: Unitary2) -> Rotation3:
    """Drop a special unitary to its rotation, the mirror of :func:`phi`: the
    Euler-Rodrigues form of the q of U = w I - i v . sigma, q = (w, v). It is
    R_kj = Tr(s_k U s_j U*) / 2 to rounding, and U and -U give the same bits.
    """
    return Rotation3._built(so3._rows(*su2._quaternion(u.matrix.entries)))


def verify_state_diagram(
    r: BlochVector, aa: AxisAngle, tol: float = DEFAULT_TOL
) -> DiagramReport:
    """Compare rotating the vector first against conjugating the state first.

    Path A builds the state of the rotated vector; path B conjugates the
    state of the original vector by the corresponding unitary.
    """
    q, v = so3._half_angle(aa), (r.x1, r.x2, r.x3)  # one q gives both group elements
    rotated = _density_entries(so3._apply(so3._rows(*q), v))
    path_a = DensityOperator(ComplexMatrix._trusted(2, 2, rotated))
    ue, rho = su2._entries(*q), _density_entries(v)
    conjugated = _mul2(_mul2(ue, rho), _adjoint2(ue))
    path_b = DensityOperator(ComplexMatrix._trusted(2, 2, conjugated))
    (a0, a1, a2, a3), (b0, b1, b2, b3) = rotated, conjugated  # states: no abs() overflows
    dev = max(abs(a0 - b0), abs(a1 - b1), abs(a2 - b2), abs(a3 - b3))
    return DiagramReport(dev, dev <= tol, path_a, path_b)


def verify_group_diagram(
    aa_list: Sequence[AxisAngle], tol: float = DEFAULT_TOL
) -> DiagramReport:
    """Check the homomorphism through the double cover on a word of rotations.

    Composes the unitaries of the word left to right, drops the product to a
    rotation, and compares against the composed rotations.
    """
    if not aa_list:
        raise DomainError("need at least one axis-angle")
    first, *rest = [so3._half_angle(aa) for aa in aa_list]
    u_total, r_total = su2._entries(*first), so3._rows(*first)
    for q in rest:
        u_total = _mul2(u_total, su2._entries(*q))
        r_total = so3._mul3(r_total, so3._rows(*q))
    dropped = Rotation3._built(so3._rows(*su2._quaternion(u_total)))
    r_total = Rotation3._built(r_total)
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = dropped.matrix
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = r_total.matrix
    dev = max(
        abs(a00 - b00), abs(a01 - b01), abs(a02 - b02),
        abs(a10 - b10), abs(a11 - b11), abs(a12 - b12),
        abs(a20 - b20), abs(a21 - b21), abs(a22 - b22),
    )
    return DiagramReport(dev, dev <= tol, dropped, r_total)
