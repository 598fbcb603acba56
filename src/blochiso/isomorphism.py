"""The two directions between rotations and special unitaries.

A rotation lifts to the unitary of its canonical axis-angle; a unitary drops
to a rotation through the trace formula R_kj = Tr(U sigma_j U* sigma_k) / 2,
which is insensitive to the sign of U (the double cover). The Pauli
coordinate picture of the unitary's adjoint action on anti-Hermitian
matrices, and two commuting-diagram verifiers, live here as well.
"""

from __future__ import annotations

from math import isfinite, sqrt

from . import so3, su2
from ._value import Value
from .bloch import BlochVector, bloch_to_density
from .channels import _bloch_columns
from .errors import DomainError
from .matrix import DEFAULT_TOL, ComplexMatrix, _adjoint2, _mul2, max_abs_diff
from .so3 import AxisAngle, Rotation3
from .su2 import Unitary2

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Sequence


class Su2AlgebraElement(Value):
    """Anti-Hermitian traceless matrix i r . sigma in Pauli coordinates r."""

    def __init__(self, vector: tuple[float, float, float]) -> None:
        self.__dict__["vector"] = vector
        self.__post_init__()

    def __post_init__(self) -> None:
        vec = tuple(float(c) for c in self.vector)
        if len(vec) != 3 or not all(isfinite(c) for c in vec):
            raise DomainError("coordinates must be a finite 3-vector")
        object.__setattr__(self, "vector", vec)

    def matrix(self) -> ComplexMatrix:
        r1, r2, r3 = self.vector
        return ComplexMatrix(
            2,
            2,
            (
                complex(0.0, r3),
                complex(r2, r1),
                complex(-r2, r1),
                complex(0.0, -r3),
            ),
        )

    def norm(self) -> float:
        r1, r2, r3 = self.vector
        return sqrt(r1 * r1 + r2 * r2 + r3 * r3)


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
    """Lift a rotation to SU(2) through its canonical axis-angle.

    Of the two preimages this picks the one with angle in [0, pi], the
    standard continuous-near-identity choice.
    """
    return su2.unitary_from_axis_angle(so3.axis_angle_from_rotation(rot))


def phi_inverse(u: Unitary2) -> Rotation3:
    """Drop a special unitary to its rotation, R_kj = Tr(s_k U s_j U*) / 2.

    The rotation is the Bloch action of the channel rho -> U rho U*: the
    one-operator case of the channels' closed form, which is the generic
    trace formula bit for bit and gives U and -U the identical matrix.
    """
    return Rotation3._built(tuple(zip(*_bloch_columns((u.matrix,), 3))))


def psi(u: Su2AlgebraElement) -> BlochVector:
    """Coordinate map i r . sigma -> r."""
    return BlochVector(*u.vector)


def psi_inverse(r: BlochVector) -> Su2AlgebraElement:
    """Coordinate map r -> i r . sigma."""
    return Su2AlgebraElement(r.as_tuple())


def adjoint_action(u: Unitary2, elem: Su2AlgebraElement) -> Su2AlgebraElement:
    """u -> U u U*, expressed back in Pauli coordinates.

    Anti-Hermiticity survives conjugation, so the result decomposes as
    i r' . sigma again; the coordinate norm is preserved. The closed product
    is validated once: a product never turns a non-finite entry finite, so
    it raises exactly where the generic chain does.
    """
    ue = u.matrix.entries
    m = ComplexMatrix(2, 2, _mul2(_mul2(ue, elem.matrix().entries), _adjoint2(ue)))
    r1 = (m.at(0, 1).imag + m.at(1, 0).imag) / 2.0
    r2 = (m.at(0, 1).real - m.at(1, 0).real) / 2.0
    r3 = (m.at(0, 0).imag - m.at(1, 1).imag) / 2.0
    return Su2AlgebraElement((r1, r2, r3))


def verify_state_diagram(
    r: BlochVector, aa: AxisAngle, tol: float = DEFAULT_TOL
) -> DiagramReport:
    """Compare rotating the vector first against conjugating the state first.

    Path A builds the state of the rotated vector; path B conjugates the
    state of the original vector by the corresponding unitary.
    """
    rot = so3.rotation_from_axis_angle(aa)
    u = su2.unitary_from_axis_angle(aa)
    path_a = bloch_to_density(so3.apply(rot, r))
    path_b = su2.conjugate(u, bloch_to_density(r))
    dev = max_abs_diff(path_a.matrix, path_b.matrix)
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
    u_total = su2.unitary_from_axis_angle(aa_list[0])
    r_total = so3.rotation_from_axis_angle(aa_list[0])
    for aa in aa_list[1:]:
        u_total = su2.compose(u_total, su2.unitary_from_axis_angle(aa))
        r_total = so3.compose(r_total, so3.rotation_from_axis_angle(aa))
    dropped = phi_inverse(u_total)
    dev = max(
        abs(dropped.matrix[i][j] - r_total.matrix[i][j])
        for i in range(3)
        for j in range(3)
    )
    return DiagramReport(dev, dev <= tol, dropped, r_total)
