"""Proper rotations of physical space.

Rodrigues closed form, the axis-angle logarithm with its canonical cell
(angle in [0, pi]), and rotation action on Bloch vectors.
"""

from __future__ import annotations

from math import atan2, cos, isfinite, pi, sin, sqrt

from ._value import Value
from .bloch import BlochVector
from .errors import DomainError
from .matrix import DEFAULT_TOL

Z_AXIS = (0.0, 0.0, 1.0)

# Below this |sin alpha| the skew part of R no longer resolves the axis and
# extraction falls back to the symmetric part (only relevant near alpha = pi).
_SKEW_CUTOFF = 1e-4
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
        ax = tuple(float(c) for c in self.axis)
        if len(ax) != 3 or not all(isfinite(c) for c in ax):
            raise DomainError("axis must be a finite 3-vector")
        nrm = sqrt(ax[0] * ax[0] + ax[1] * ax[1] + ax[2] * ax[2])
        if abs(nrm - 1.0) > _AXIS_NORM_TOL:
            raise DomainError(f"axis must be a unit vector, got norm {nrm!r}")
        angle = float(self.angle)
        if not (isfinite(angle) and 0.0 <= angle <= 2.0 * pi):
            raise DomainError(f"angle must lie in [0, 2*pi], got {angle!r}")
        object.__setattr__(self, "axis", ax)
        object.__setattr__(self, "angle", angle)


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
        """A rotation from three 3-tuples of finite floats the library built,
        without the float rebuild and finiteness pass; the orthogonality and
        det checks still run. No outside value comes here.
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


def rotation_from_axis_angle(aa: AxisAngle) -> Rotation3:
    """Rodrigues form: cos a * I + (1 - cos a) n n^T + sin a [n]_x."""
    n1, n2, n3 = aa.axis
    ca = cos(aa.angle)
    sa = sin(aa.angle)
    k = 1.0 - ca
    return Rotation3._built(
        (
            (ca + n1 * n1 * k, n1 * n2 * k - n3 * sa, n1 * n3 * k + n2 * sa),
            (n2 * n1 * k + n3 * sa, ca + n2 * n2 * k, n2 * n3 * k - n1 * sa),
            (n3 * n1 * k - n2 * sa, n3 * n2 * k + n1 * sa, ca + n3 * n3 * k),
        )
    )


def axis_angle_from_rotation(rot: Rotation3) -> AxisAngle:
    """Canonical axis-angle of a rotation, angle in [0, pi].

    At angle 0 the axis is conventionally z-hat; at angle pi the axis sign is
    fixed by making its first nonzero component positive.
    """
    m = rot.matrix
    s1 = (m[2][1] - m[1][2]) / 2.0
    s2 = (m[0][2] - m[2][0]) / 2.0
    s3 = (m[1][0] - m[0][1]) / 2.0
    sn = sqrt(s1 * s1 + s2 * s2 + s3 * s3)
    tr = m[0][0] + m[1][1] + m[2][2]
    ca = min(1.0, max(-1.0, (tr - 1.0) / 2.0))
    angle = atan2(sn, ca)

    if sn >= _SKEW_CUTOFF or ca >= 0.0:
        if sn <= 1e-15:
            return AxisAngle(Z_AXIS, angle)
        axis = (s1 / sn, s2 / sn, s3 / sn)
    else:
        # Near angle = pi: recover n n^T from the symmetric part.
        k = 1.0 - ca
        diag = [(m[i][i] - ca) / k for i in range(3)]
        j = max(range(3), key=diag.__getitem__)
        nj = sqrt(max(diag[j], 0.0))
        comps = [0.0, 0.0, 0.0]
        for i in range(3):
            if i == j:
                comps[i] = nj
            else:
                comps[i] = (m[j][i] + m[i][j]) / (2.0 * k * nj)
        if sn > 1e-12:
            if comps[0] * s1 + comps[1] * s2 + comps[2] * s3 < 0.0:
                comps = [-c for c in comps]
        else:
            for c in comps:
                if abs(c) > 1e-12:
                    if c < 0.0:
                        comps = [-x for x in comps]
                    break
        axis = (comps[0], comps[1], comps[2])

    nrm = sqrt(axis[0] ** 2 + axis[1] ** 2 + axis[2] ** 2)
    return AxisAngle((axis[0] / nrm, axis[1] / nrm, axis[2] / nrm), angle)


def _dot3(u, v) -> float:
    """Summed left to right from 0.0, as built-in ``sum`` did before Python
    3.12 compensated its rounding, so results are the same on every version."""
    return 0.0 + u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def compose(ra: Rotation3, rb: Rotation3) -> Rotation3:
    r0, r1, r2 = ra.matrix
    c0, c1, c2 = zip(*rb.matrix)
    return Rotation3._built(
        (
            (_dot3(r0, c0), _dot3(r0, c1), _dot3(r0, c2)),
            (_dot3(r1, c0), _dot3(r1, c1), _dot3(r1, c2)),
            (_dot3(r2, c0), _dot3(r2, c1), _dot3(r2, c2)),
        )
    )


def apply(rot: Rotation3, r: BlochVector) -> BlochVector:
    v = r.as_tuple()
    return BlochVector(*(_dot3(row, v) for row in rot.matrix))
