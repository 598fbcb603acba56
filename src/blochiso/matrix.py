"""Dense complex matrices at qubit scale with deterministic factorizations.

Matrices are immutable, row-major, and small (everything downstream is 2x2
to 4x4 plus Gram matrices of Kraus sets). The hot loops, products and the
cyclic Jacobi eigensolver, live in :mod:`blochiso._kernels`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import sqrt

from . import _kernels
from .errors import DimensionError, DomainError

#: Absolute entrywise tolerance used by default everywhere in the library.
DEFAULT_TOL = 1e-9

_PHASE_CUTOFF = 1e-12


@dataclass(frozen=True)
class ComplexMatrix:
    """Immutable row-major complex matrix with finite entries."""

    rows: int
    cols: int
    entries: tuple[complex, ...]

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise DimensionError(f"matrix shape must be positive, got {self.rows}x{self.cols}")
        ents = tuple(complex(e) for e in self.entries)
        if len(ents) != self.rows * self.cols:
            raise DimensionError(
                f"expected {self.rows * self.cols} entries for a "
                f"{self.rows}x{self.cols} matrix, got {len(ents)}"
            )
        for e in ents:
            if not cmath.isfinite(e):
                raise DomainError("matrix entries must be finite")
        object.__setattr__(self, "entries", ents)

    @classmethod
    def identity(cls, n: int) -> "ComplexMatrix":
        return cls(n, n, tuple(1.0 + 0j if i == j else 0j for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ComplexMatrix":
        return cls(rows, cols, (0j,) * (rows * cols))

    def at(self, i: int, j: int) -> complex:
        return self.entries[i * self.cols + j]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def frobenius_norm(self) -> float:
        total = 0.0  # left to right on every Python version, unlike sum()
        for e in self.entries:
            total += e.real * e.real + e.imag * e.imag
        return sqrt(total)

@dataclass(frozen=True)
class HermitianEigenResult:
    """Spectral factorization A = V diag(eigenvalues) V*.

    Eigenvalues are sorted descending; eigenvector columns are orthonormal,
    each with its first non-negligible component made real positive.
    """

    eigenvalues: tuple[float, ...]
    eigenvectors: ComplexMatrix


def _require_same_shape(a: ComplexMatrix, b: ComplexMatrix) -> None:
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionError(f"shape mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")


def add(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    _require_same_shape(a, b)
    return ComplexMatrix(a.rows, a.cols, tuple(x + y for x, y in zip(a.entries, b.entries)))


def scale(a: ComplexMatrix, z: complex) -> ComplexMatrix:
    return ComplexMatrix(a.rows, a.cols, tuple(e * z for e in a.entries))


def mul(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    if a.cols != b.rows:
        raise DimensionError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = _kernels.matmul(a.rows, a.cols, a.entries, b.cols, b.entries)
    return ComplexMatrix(a.rows, b.cols, tuple(out))


def adjoint(a: ComplexMatrix) -> ComplexMatrix:
    ents = tuple(a.entries[i * a.cols + j].conjugate() for j in range(a.cols) for i in range(a.rows))
    return ComplexMatrix(a.cols, a.rows, ents)


def trace(a: ComplexMatrix) -> complex:
    if not a.is_square():
        raise DimensionError("trace needs a square matrix")
    t = 0j
    for i in range(a.rows):
        t += a.entries[i * a.cols + i]
    return t


def max_abs_diff(a: ComplexMatrix, b: ComplexMatrix) -> float:
    _require_same_shape(a, b)
    return max(abs(x - y) for x, y in zip(a.entries, b.entries))


def hermitian_deviation(a: ComplexMatrix) -> float:
    """Largest entrywise deviation from A = A*."""
    if not a.is_square():
        raise DimensionError("hermitian_deviation needs a square matrix")
    return max_abs_diff(a, adjoint(a))


def _phase_fix_columns(n: int, v: list[complex]) -> list[complex]:
    for k in range(n):
        pivot = 0j
        prow = -1
        for i in range(n):
            z = v[i * n + k]
            if abs(z) > _PHASE_CUTOFF:
                pivot = z
                prow = i
                break
        if prow < 0:
            continue
        w = pivot.conjugate() / abs(pivot)
        for i in range(n):
            v[i * n + k] *= w
    return v


def hermitian_eig(m: ComplexMatrix, tol: float = DEFAULT_TOL) -> HermitianEigenResult:
    """Spectral decomposition of a Hermitian matrix via cyclic Jacobi.

    Deterministic: eigenvalues descending (stable order on ties), eigenvector
    phases pinned. Raises :class:`DomainError` when the input departs from
    Hermiticity by more than ``tol``.
    """
    if not m.is_square():
        raise DimensionError("hermitian_eig needs a square matrix")
    x = m.entries
    y = adjoint(m).entries
    dev = max(abs(a - b) for a, b in zip(x, y))
    if dev > tol:
        raise DomainError(f"matrix is not Hermitian within {tol:g} (deviation {dev:.3e})")
    n = m.rows
    sym = tuple((a + b) * 0.5 for a, b in zip(x, y))
    # A + A* can overflow where A itself is finite.
    for e in sym:
        if not cmath.isfinite(e):
            raise DomainError("matrix entries must be finite")
    diag, vflat = _kernels.jacobi_hermitian(n, sym)
    order = sorted(range(n), key=diag.__getitem__, reverse=True)
    eigenvalues = tuple(diag[k] for k in order)
    reordered = [0j] * (n * n)
    for new_col, old_col in enumerate(order):
        for i in range(n):
            reordered[i * n + new_col] = vflat[i * n + old_col]
    vectors = _phase_fix_columns(n, reordered)
    return HermitianEigenResult(eigenvalues, ComplexMatrix(n, n, tuple(vectors)))
