"""Proper rotations of physical space.

Rotations built from and read back to the unit quaternion q they share with
their SU(2) lifts +-q, and the axis-angle logarithm of q (canonical cell:
angle in [0, pi]). The product of two rotations' rows and their action on
a vector are private tuple forms (``_mul3``, ``_apply``), which the diagram
checks in ``isomorphism`` use.
"""

from __future__ import annotations

from math import atan2, cos, isfinite, pi, sin, sqrt

from ._value import Value
from .errors import DomainError
from .matrix import DEFAULT_TOL

Z_AXIS = (0.0, 0.0, 1.0)

# Below this |v| = sin(angle / 2) the quaternion's vector part no longer
# resolves the axis, and the logarithm returns z-hat.
_AXIS_CUTOFF = 1e-12
_AXIS_NORM_TOL = 1e-12

Matrix3 = tuple[tuple[float, float, float], ...]


class AxisAngle(Value):
    """Rotation axis (unit vector) and angle in radians.

    The angle lives in the closed interval [0, 2*pi]; the upper endpoint is
    produced only by the unitary logarithm at U = -I (see su2 module).
    """

    def __init__(self, axis: tuple[float, float, float], angle: float) -> None:
        d = self.__dict__
        d["axis"], d["angle"] = axis, angle
        self.__post_init__()

    def __post_init__(self) -> None:
        d = self.__dict__  # frozen: fill the fields as __init__ does
        ax = tuple(map(float, d["axis"]))
        if len(ax) != 3 or not all(map(isfinite, ax)):
            raise DomainError("axis must be a finite 3-vector")
        nrm = sqrt(ax[0] * ax[0] + ax[1] * ax[1] + ax[2] * ax[2])
        if abs(nrm - 1.0) > _AXIS_NORM_TOL:
            raise DomainError(f"axis must be a unit vector, got norm {nrm!r}")
        angle = float(d["angle"])
        if not (isfinite(angle) and 0.0 <= angle <= 2.0 * pi):
            raise DomainError(f"angle must lie in [0, 2*pi], got {angle!r}")
        d["axis"], d["angle"] = ax, angle


class Rotation3(Value):
    """Real 3x3 matrix with R^T R = I and det R = +1 (within tolerance)."""

    def __init__(self, matrix: Matrix3) -> None:
        self.__dict__["matrix"] = matrix
        self.__post_init__()

    def __post_init__(self) -> None:
        rows = tuple(tuple(float(x) for x in row) for row in self.matrix)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise DomainError("rotation matrix must be 3x3")
        if any(not isfinite(x) for r in rows for x in r):
            raise DomainError("rotation entries must be finite")
        _check_rotation(rows)
        object.__setattr__(self, "matrix", rows)

    @classmethod
    def _built(cls, rows: Matrix3) -> "Rotation3":
        """A rotation from three 3-tuples of floats already checked finite,
        without the float rebuild and finiteness pass; the orthogonality and
        det checks still run. Each rotation a library function returns is
        checked here once, on the rows it returns, and so is each CLI
        rotation document once the decoder has checked it finite.
        """
        _check_rotation(rows)
        rot = object.__new__(cls)
        rot.__dict__["matrix"] = rows  # frozen: fill the field as __init__ would
        return rot


def _check_rotation(rows: Matrix3) -> None:
    dev = orthogonality_deviation(rows)
    if dev > DEFAULT_TOL:
        raise DomainError(f"matrix is not orthogonal (deviation {dev:.3e})")
    d = _det3(rows)
    if abs(d - 1.0) > DEFAULT_TOL:
        raise DomainError(f"rotation must have det +1, got {d!r}")


def _det3(m: Matrix3) -> float:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def orthogonality_deviation(m: Matrix3) -> float:
    """Largest entrywise deviation of R^T R from the identity.

    Each entry is summed left to right over k, and R^T R is symmetric with
    the same products in the same order either side of the diagonal, so
    the six entries on and above it suffice.
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    return max(
        abs(m00 * m00 + m10 * m10 + m20 * m20 - 1.0),
        abs(m00 * m01 + m10 * m11 + m20 * m21),
        abs(m00 * m02 + m10 * m12 + m20 * m22),
        abs(m01 * m01 + m11 * m11 + m21 * m21 - 1.0),
        abs(m01 * m02 + m11 * m12 + m21 * m22),
        abs(m02 * m02 + m12 * m12 + m22 * m22 - 1.0),
    )


def _half_angle(aa: AxisAngle) -> tuple[float, float, float, float]:
    """(cos(a/2), sin(a/2) n): the quaternion both groups build an axis-angle from."""
    s = sin(aa.angle / 2.0)
    n1, n2, n3 = aa.axis
    return (cos(aa.angle / 2.0), s * n1, s * n2, s * n3)


def _rows(w: float, x: float, y: float, z: float) -> Matrix3:
    """Euler-Rodrigues rows of q / |q|: orthonormal to rounding even for a q
    read off a U that is unitary only within tolerance. Quadratic in q, so q and
    -q give the same bits once ``+ 0.0`` makes each off-diagonal zero +0.0."""
    xx, yy, zz = x * x, y * y, z * z
    s = 2.0 / (w * w + xx + yy + zz)
    return (
        (1.0 - s * (yy + zz), s * (x * y - w * z) + 0.0, s * (x * z + w * y) + 0.0),
        (s * (x * y + w * z) + 0.0, 1.0 - s * (xx + zz), s * (y * z - w * x) + 0.0),
        (s * (x * z - w * y) + 0.0, s * (y * z + w * x) + 0.0, 1.0 - s * (xx + yy)),
    )


def rotation_from_axis_angle(aa: AxisAngle) -> Rotation3:
    """The rotation by ``aa.angle`` about ``aa.axis``, through its quaternion."""
    return Rotation3._built(_rows(*_half_angle(aa)))


def _quaternion(rows: Matrix3) -> tuple[float, float, float, float]:
    """The unit quaternion q = (w, x, y, z) of a rotation's rows, with w >= 0.

    R is quadratic in q, and its entries give the table 4 q q^T: 1 + tr R
    and 1 + 2 R_ii - tr R on the diagonal, sums and differences of mirrored
    entries off it. Shepperd's form (J. Guidance and Control 1, 1978) takes
    the row with the largest diagonal entry, at least 1, and normalizes it.
    w is exactly 0 only where the skew part of R is, at a half turn; there
    the largest component of the axis comes out positive.
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = rows
    tr = m00 + m11 + m22
    wx, wy, wz = m21 - m12, m02 - m20, m10 - m01
    xy, xz, yz = m01 + m10, m02 + m20, m12 + m21
    table = (
        (1.0 + tr, wx, wy, wz),
        (wx, 1.0 + 2.0 * m00 - tr, xy, xz),
        (wy, xy, 1.0 + 2.0 * m11 - tr, yz),
        (wz, xz, yz, 1.0 + 2.0 * m22 - tr),
    )
    w, x, y, z = table[max(range(4), key=lambda i: table[i][i])]
    nrm = sqrt(w * w + x * x + y * y + z * z)
    if w < 0.0:
        nrm = -nrm
    return (w / nrm, x / nrm, y / nrm, z / nrm)


def _axis_angle(w: float, v1: float, v2: float, v3: float) -> AxisAngle:
    """Axis-angle of the quaternion w + v: angle 2 atan2(|v|, w), so in
    [0, 2*pi], and axis v / |v|, or z-hat when |v| <= 1e-12.
    """
    vn = sqrt(v1 * v1 + v2 * v2 + v3 * v3)
    angle = 2.0 * atan2(vn, w)
    if vn <= _AXIS_CUTOFF:
        return AxisAngle(Z_AXIS, angle)
    return AxisAngle((v1 / vn, v2 / vn, v3 / vn), angle)


def axis_angle_from_rotation(rot: Rotation3) -> AxisAngle:
    """Canonical axis-angle of a rotation, angle in [0, pi].

    The logarithm of its quaternion with w >= 0: the axis is z-hat at
    angles up to 2e-12, and at an exact half turn its largest component is
    positive.
    """
    return _axis_angle(*_quaternion(rot.matrix))


def _mul3(a: Matrix3, b: Matrix3) -> Matrix3:
    """a b, each entry summed left to right from 0.0 as ``sum`` did before
    Python 3.12 compensated its rounding: the same bits on every version."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return (
        (
            0.0 + a00 * b00 + a01 * b10 + a02 * b20,
            0.0 + a00 * b01 + a01 * b11 + a02 * b21,
            0.0 + a00 * b02 + a01 * b12 + a02 * b22,
        ),
        (
            0.0 + a10 * b00 + a11 * b10 + a12 * b20,
            0.0 + a10 * b01 + a11 * b11 + a12 * b21,
            0.0 + a10 * b02 + a11 * b12 + a12 * b22,
        ),
        (
            0.0 + a20 * b00 + a21 * b10 + a22 * b20,
            0.0 + a20 * b01 + a21 * b11 + a22 * b21,
            0.0 + a20 * b02 + a21 * b12 + a22 * b22,
        ),
    )


def _apply(m: Matrix3, v: tuple[float, float, float]) -> tuple[float, float, float]:
    """m v, each component summed as :func:`_mul3` sums an entry."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    x1, x2, x3 = v
    return (
        0.0 + m00 * x1 + m01 * x2 + m02 * x3,
        0.0 + m10 * x1 + m11 * x2 + m12 * x3,
        0.0 + m20 * x1 + m21 * x2 + m22 * x3,
    )
