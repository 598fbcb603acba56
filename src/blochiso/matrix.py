"""Dense complex matrices at qubit scale with deterministic factorizations.

Matrices are immutable, row-major, and small (everything downstream is 2x2
to 4x4 plus Gram matrices of Kraus sets). Every product is the closed 2x2
form ``_mul2``; the library has no generic product. The cyclic Jacobi
eigensolver, the one kernel, lives in :mod:`blochiso._kernels`.
"""

from __future__ import annotations

import cmath
from math import sqrt

from . import _kernels
from ._value import Value
from .errors import DimensionError, DomainError

#: Absolute entrywise tolerance used by default everywhere in the library.
DEFAULT_TOL = 1e-9

_PHASE_CUTOFF = 1e-12


def _require_positive_shape(rows: int, cols: int) -> None:
    if rows <= 0 or cols <= 0:
        raise DimensionError(f"matrix shape must be positive, got {rows}x{cols}")


class ComplexMatrix(Value):
    """Immutable row-major complex matrix with finite entries."""

    def __init__(self, rows: int, cols: int, entries: tuple[complex, ...]) -> None:
        d = self.__dict__
        d["rows"], d["cols"], d["entries"] = rows, cols, entries
        self.__post_init__()

    def __post_init__(self) -> None:
        _require_positive_shape(self.rows, self.cols)
        ents = tuple(map(complex, self.entries))
        if len(ents) != self.rows * self.cols:
            raise DimensionError(
                f"expected {self.rows * self.cols} entries for a "
                f"{self.rows}x{self.cols} matrix, got {len(ents)}"
            )
        if not all(map(cmath.isfinite, ents)):
            raise DomainError("matrix entries must be finite")
        object.__setattr__(self, "entries", ents)

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: tuple[complex, ...]) -> "ComplexMatrix":
        """A matrix without validation, for a tuple of ``rows * cols`` finite
        complex entries. The library's own values come here, and one outside
        caller: the CLI decoder, which has checked the shape and the
        finiteness of a document's entries itself.
        """
        m = object.__new__(cls)
        fields = m.__dict__  # frozen: fill the fields as __init__ would
        fields["rows"] = rows
        fields["cols"] = cols
        fields["entries"] = entries
        return m

    @classmethod
    def identity(cls, n: int) -> "ComplexMatrix":
        _require_positive_shape(n, n)
        ents = tuple(1.0 + 0j if i == j else 0j for i in range(n) for j in range(n))
        return cls._trusted(n, n, ents)

    def at(self, i: int, j: int) -> complex:
        return self.entries[i * self.cols + j]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def frobenius_norm(self) -> float:
        total = 0.0  # left to right on every Python version, unlike sum()
        for e in self.entries:
            total += e.real * e.real + e.imag * e.imag
        return sqrt(total)

class HermitianEigenResult(Value):
    """Spectral factorization A = V diag(eigenvalues) V*.

    Eigenvalues are sorted descending; eigenvector columns are orthonormal,
    each with its first non-negligible component made real positive.
    """

    def __init__(self, eigenvalues: tuple[float, ...], eigenvectors: ComplexMatrix) -> None:
        d = self.__dict__
        d["eigenvalues"], d["eigenvectors"] = eigenvalues, eigenvectors


def _require_same_shape(a: ComplexMatrix, b: ComplexMatrix) -> None:
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionError(f"shape mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")


def scale(a: ComplexMatrix, z: complex) -> ComplexMatrix:
    return ComplexMatrix(a.rows, a.cols, tuple(e * z for e in a.entries))


def adjoint(a: ComplexMatrix) -> ComplexMatrix:
    ents, cols = a.entries, a.cols
    conjugated = tuple([e.conjugate() for j in range(cols) for e in ents[j::cols]])
    return ComplexMatrix._trusted(cols, a.rows, conjugated)


# Closed 2x2 forms over row-major entry tuples: the generic adjoint and the
# reference product (the tests' ``mul``) in the same order, so the values
# are the generic ones bit for bit.


def _adjoint2(x: tuple[complex, ...]) -> tuple[complex, ...]:
    a, b, c, d = x
    return (a.conjugate(), c.conjugate(), b.conjugate(), d.conjugate())


def _mul2(x: tuple[complex, ...], y: tuple[complex, ...]) -> tuple[complex, ...]:
    """Entries of x y, each summed from 0j as the reference product sums them."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        0j + x0 * y0 + x1 * y2,
        0j + x0 * y1 + x1 * y3,
        0j + x2 * y0 + x3 * y2,
        0j + x2 * y1 + x3 * y3,
    )


def max_abs_diff(a: ComplexMatrix, b: ComplexMatrix) -> float:
    _require_same_shape(a, b)
    return max(abs(x - y) for x, y in zip(a.entries, b.entries))


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
    m_adjoint = adjoint(m)
    dev = max_abs_diff(m, m_adjoint)
    if not dev <= tol:  # negated, so that a NaN tol fails it
        raise DomainError(f"matrix is not Hermitian within {tol:g} (deviation {dev:.3e})")
    return _checked_hermitian_eig(m, m_adjoint)


def _checked_hermitian_eig(m: ComplexMatrix, m_adjoint: ComplexMatrix) -> HermitianEigenResult:
    """:func:`hermitian_eig` of a square ``m`` whose Hermiticity the caller
    has checked against ``m_adjoint``, its adjoint."""
    n = m.rows
    sym = [(a + b) * 0.5 for a, b in zip(m.entries, m_adjoint.entries)]
    # A + A* can overflow where A itself is finite.
    if not all(map(cmath.isfinite, sym)):
        raise DomainError("matrix entries must be finite")
    diag, vflat = _kernels.jacobi_hermitian(n, sym)
    order = sorted(range(n), key=diag.__getitem__, reverse=True)
    eigenvalues = tuple([diag[k] for k in order])
    reordered = [vflat[row + k] for row in range(0, n * n, n) for k in order]
    vectors = _phase_fix_columns(n, reordered)
    # Columns of a unitary: finite, of modulus at most 1.
    return HermitianEigenResult(eigenvalues, ComplexMatrix._trusted(n, n, tuple(vectors)))
