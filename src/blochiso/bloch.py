"""Physical-space vectors and density operators.

The dictionary between a real 3-vector r and the qubit state
rho = (I + r . sigma) / 2.
"""

from __future__ import annotations

from math import isfinite, sqrt

from ._value import Value
from .errors import DomainError, NonStateError
from .matrix import DEFAULT_TOL, ComplexMatrix

PAULI_X = ComplexMatrix(2, 2, (0j, 1 + 0j, 1 + 0j, 0j))
PAULI_Y = ComplexMatrix(2, 2, (0j, -1j, 1j, 0j))
PAULI_Z = ComplexMatrix(2, 2, (1 + 0j, 0j, 0j, -1 + 0j))

#: Fixed basis ordering (sigma_x, sigma_y, sigma_z); every trace formula in
#: the library depends on this ordering staying put.
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


class BlochVector(Value):
    """Point of physical space R^3; it parameterizes a state when its norm
    is at most 1 (checked by :func:`bloch_to_density`, not here)."""

    def __init__(self, x1: float, x2: float, x3: float) -> None:
        d = self.__dict__
        d["x1"], d["x2"], d["x3"] = x1, x2, x3
        self.__post_init__()

    def __post_init__(self) -> None:
        d = self.__dict__  # frozen: fill the fields as __init__ does
        for name in ("x1", "x2", "x3"):
            v = d[name] = float(d[name])
            if not isfinite(v):
                raise DomainError("Bloch components must be finite")

    def norm(self) -> float:
        return sqrt(self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x1, self.x2, self.x3)


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
        a, b, _, d = m.entries
        a, d = a.real, d.real
        if abs(a + d - 1.0) > DEFAULT_TOL:
            raise NonStateError(f"density operator trace must be 1, got {a + d!r}")
        disc = sqrt((a - d) * (a - d) + 4.0 * (b.real * b.real + b.imag * b.imag))
        if (a + d - disc) / 2.0 < -DEFAULT_TOL:
            raise NonStateError("density operator must be positive semidefinite")
        if a * a + d * d + 2.0 * (b.real * b.real + b.imag * b.imag) > 1.0 + DEFAULT_TOL:
            raise NonStateError("density operator purity exceeds 1")


def bloch_to_density(r: BlochVector, tol: float = DEFAULT_TOL) -> DensityOperator:
    """Density operator (I + r . sigma) / 2 for a vector in the closed unit ball.

    Norms inside (1, 1 + tol] are silently pulled back to the sphere so that
    rounding from upstream rotations does not raise; anything beyond is a
    :class:`NonStateError`.
    """
    entries = _density_entries((r.x1, r.x2, r.x3), tol)
    return DensityOperator(ComplexMatrix._trusted(2, 2, entries))


def _density_entries(
    v: tuple[float, float, float], tol: float = DEFAULT_TOL
) -> tuple[complex, ...]:
    """The entries of :func:`bloch_to_density` for the components of a vector."""
    x1, x2, x3 = v
    nrm = sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    if not nrm <= 1.0 + tol:  # negated, so that a NaN tol fails it
        raise NonStateError(f"Bloch vector norm {nrm!r} exceeds 1")
    if nrm > 1.0:
        x1, x2, x3 = x1 / nrm, x2 / nrm, x3 / nrm
    # Finite: each component is at most 1 in size once pulled back.
    return (
        complex(0.5 * (1.0 + x3), 0.0),
        complex(0.5 * x1, -0.5 * x2),
        complex(0.5 * x1, 0.5 * x2),
        complex(0.5 * (1.0 - x3), 0.0),
    )


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
