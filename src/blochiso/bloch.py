"""Physical-space vectors, pure states, density operators, and purity.

The dictionary between a real 3-vector r and the qubit state
rho = (I + r . sigma) / 2, with the purity dichotomy at the unit sphere.
"""

from __future__ import annotations

import cmath
from enum import Enum
from math import cos, isfinite, pi, sin, sqrt

from ._value import Value
from .errors import DomainError, NonStateError
from .matrix import DEFAULT_TOL, ComplexMatrix, _mul2

PAULI_X = ComplexMatrix(2, 2, (0j, 1 + 0j, 1 + 0j, 0j))
PAULI_Y = ComplexMatrix(2, 2, (0j, -1j, 1j, 0j))
PAULI_Z = ComplexMatrix(2, 2, (1 + 0j, 0j, 0j, -1 + 0j))

#: Fixed basis ordering (sigma_x, sigma_y, sigma_z); every trace formula in
#: the library depends on this ordering staying put.
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)

#: Band around Tr rho^2 = 1 inside which a state counts as pure.
PURITY_TOL = 1e-9


class BlochVector(Value):
    """Point of physical space R^3; it parameterizes a state when its norm
    is at most 1 (checked by :func:`bloch_to_density`, not here)."""

    def __init__(self, x1: float, x2: float, x3: float) -> None:
        d = self.__dict__
        d["x1"], d["x2"], d["x3"] = x1, x2, x3
        self.__post_init__()

    def __post_init__(self) -> None:
        for name in ("x1", "x2", "x3"):
            v = float(getattr(self, name))
            if not isfinite(v):
                raise DomainError("Bloch components must be finite")
            object.__setattr__(self, name, v)

    def norm(self) -> float:
        return sqrt(self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x1, self.x2, self.x3)


class SphericalAngles(Value):
    """Polar angle theta in [0, pi] and azimuth phi in [0, 2*pi)."""

    def __init__(self, theta: float, phi: float) -> None:
        d = self.__dict__
        d["theta"], d["phi"] = theta, phi
        self.__post_init__()

    def __post_init__(self) -> None:
        theta = float(self.theta)
        phi = float(self.phi)
        if not (isfinite(theta) and 0.0 <= theta <= pi):
            raise DomainError(f"theta must lie in [0, pi], got {theta!r}")
        if not (isfinite(phi) and 0.0 <= phi < 2.0 * pi):
            raise DomainError(f"phi must lie in [0, 2*pi), got {phi!r}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)


class PurityKind(Enum):
    PURE = "Pure"
    MIXED = "Mixed"


class Purity(Value):
    def __init__(self, value: float, kind: PurityKind) -> None:
        d = self.__dict__
        d["value"], d["kind"] = value, kind


def _hermiticity_deviation(m: ComplexMatrix) -> float:
    """max |m - m*| over the entries of a 2x2 ``m``, taken in the order
    ``max_abs_diff(m, adjoint(m))`` takes them, so the value is its own."""
    a, b, c, d = m.entries
    return max(
        abs(a - a.conjugate()),
        abs(b - c.conjugate()),
        abs(c - b.conjugate()),
        abs(d - d.conjugate()),
    )


class DensityOperator(Value):
    """2x2 Hermitian, unit-trace, positive-semidefinite matrix."""

    def __init__(self, matrix: ComplexMatrix) -> None:
        self.__dict__["matrix"] = matrix
        self.__post_init__()

    def __post_init__(self) -> None:
        m = self.matrix
        if m.rows != 2 or m.cols != 2:
            raise NonStateError("density operator must be 2x2")
        if _hermiticity_deviation(m) > DEFAULT_TOL:
            raise NonStateError("density operator must be Hermitian")
        a = m.at(0, 0).real
        d = m.at(1, 1).real
        if abs(a + d - 1.0) > DEFAULT_TOL:
            raise NonStateError(f"density operator trace must be 1, got {a + d!r}")
        b = m.at(0, 1)
        disc = sqrt((a - d) * (a - d) + 4.0 * (b.real * b.real + b.imag * b.imag))
        if (a + d - disc) / 2.0 < -DEFAULT_TOL:
            raise NonStateError("density operator must be positive semidefinite")
        if a * a + d * d + 2.0 * (b.real * b.real + b.imag * b.imag) > 1.0 + DEFAULT_TOL:
            raise NonStateError("density operator purity exceeds 1")


def angles_to_bloch(a: SphericalAngles) -> BlochVector:
    """Unit Bloch vector (sin t cos p, sin t sin p, cos t)."""
    st = sin(a.theta)
    return BlochVector(st * cos(a.phi), st * sin(a.phi), cos(a.theta))


def angles_to_pure_state(a: SphericalAngles) -> tuple[complex, complex]:
    """Pure state amplitudes (cos(t/2), e^{i p} sin(t/2))."""
    return (complex(cos(a.theta / 2.0), 0.0), cmath.exp(1j * a.phi) * sin(a.theta / 2.0))


def pure_state_to_density(state: tuple[complex, complex]) -> DensityOperator:
    """Outer product |psi><psi| of a unit 2-vector."""
    v0, v1 = complex(state[0]), complex(state[1])
    m = ComplexMatrix(
        2,
        2,
        (
            v0 * v0.conjugate(),
            v0 * v1.conjugate(),
            v1 * v0.conjugate(),
            v1 * v1.conjugate(),
        ),
    )
    return DensityOperator(m)


def bloch_to_density(r: BlochVector, tol: float = DEFAULT_TOL) -> DensityOperator:
    """Density operator (I + r . sigma) / 2 for a vector in the closed unit ball.

    Norms inside (1, 1 + tol] are silently pulled back to the sphere so that
    rounding from upstream rotations does not raise; anything beyond is a
    :class:`NonStateError`.
    """
    nrm = r.norm()
    if not nrm <= 1.0 + tol:  # negated, so that a NaN tol fails it
        raise NonStateError(f"Bloch vector norm {nrm!r} exceeds 1")
    x1, x2, x3 = r.x1, r.x2, r.x3
    if nrm > 1.0:
        x1, x2, x3 = x1 / nrm, x2 / nrm, x3 / nrm
    # Finite: each component is at most 1 in size once pulled back.
    m = ComplexMatrix._trusted(
        2,
        2,
        (
            complex(0.5 * (1.0 + x3), 0.0),
            complex(0.5 * x1, -0.5 * x2),
            complex(0.5 * x1, 0.5 * x2),
            complex(0.5 * (1.0 - x3), 0.0),
        ),
    )
    return DensityOperator(m)


def density_to_bloch(rho: DensityOperator) -> BlochVector:
    """Inverse dictionary, components x_k = Tr(rho sigma_k).

    Each trace is the generic ``trace(mul(rho, sigma_k)).real`` read off the
    entries: the same products and sums from ``0j``, less the products with
    an exact zero of sigma_k, which leave such a sum unchanged bit for bit.
    """
    a, b, c, d = rho.matrix.entries
    _, x01, x10, _ = PAULI_X.entries
    _, y01, y10, _ = PAULI_Y.entries
    z00, _, _, z11 = PAULI_Z.entries
    return BlochVector(
        (0j + (0j + b * x10) + (0j + c * x01)).real,
        (0j + (0j + b * y10) + (0j + c * y01)).real,
        (0j + (0j + a * z00) + (0j + d * z11)).real,
    )


def purity(rho: DensityOperator) -> Purity:
    """Tr rho^2 together with the pure/mixed verdict at the unit sphere.

    The diagonal of the closed product, summed from ``0j`` as the generic
    trace sums it; a state's entries are at most 1 in size, so it is finite.
    """
    p0, _, _, p3 = _mul2(rho.matrix.entries, rho.matrix.entries)
    value = (0j + p0 + p3).real
    kind = PurityKind.PURE if abs(value - 1.0) <= PURITY_TOL else PurityKind.MIXED
    return Purity(value, kind)
