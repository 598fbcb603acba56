"""The matrix layer's one kernel, the cyclic Jacobi eigensolver, and the
reference product.

The library calls ``jacobi_hermitian`` as a module attribute
(``_kernels.jacobi_hermitian(...)``), so a test or profiler that replaces
the attribute sees every call. Its results are pinned bit for bit by the
golden CLI fixtures and the seeded ``verify`` reports: a change here must
keep each IEEE-754 operation and its order. A matrix whose sum of squared
entries leaves the float range is diagonalized as a copy scaled by a power
of two, so its results are those of the scaled copy, eigenvalues scaled back.
Its callers keep or read eigenvectors: a checked Choi matrix,
``kraus_from_choi`` and the Gram route. ``classify`` calls it for no verdict, since a refused
channel's rank is an inertia count (``channels._chi_rank``).

``matmul`` is the generic product. No library code calls it: every product
is a closed 2x2 form in :mod:`blochiso.matrix`. The test oracles call it
as the reference those forms are checked against, and the benchmark's
tracer wraps it by name, so it stays until the tracer drops that name.
"""

from __future__ import annotations

from functools import cache
from math import frexp, inf, ldexp, sqrt

from .errors import DomainError

_JACOBI_EPS = 1e-15
_MAX_SWEEPS = 60


def matmul(ar: int, ac: int, a, bc: int, b):
    """Product of row-major complex matrices (ar x ac) @ (ac x bc)."""
    out = [0j] * (ar * bc)
    for i in range(ar):
        ia = i * ac
        for j in range(bc):
            acc = 0j
            for k in range(ac):
                acc += a[ia + k] * b[k * bc + j]
            out[i * bc + j] = acc
    return out


@cache
def _sweep(n: int):
    """Pivot table of one cyclic sweep over an n x n matrix, built once per n.

    One row per pivot ``(p, q)``, ``p < q``, in sweep order: the flat indices
    of ``pq``, ``pp``, ``qq`` and ``qp``, then the flat indices of columns
    ``p`` and ``q`` and of rows ``p`` and ``q`` (each shared by every pivot
    that touches it, so the table holds O(n^2) indices).
    """
    nn = n * n
    cols = [tuple(range(k, nn, n)) for k in range(n)]
    rows = [tuple(range(k * n, k * n + n)) for k in range(n)]
    return tuple(
        (p * n + q, p * n + p, q * n + q, q * n + p, cols[p], cols[q], rows[p], rows[q])
        for p in range(n - 1)
        for q in range(p + 1, n)
    )


def jacobi_hermitian(n: int, a):
    """Cyclic Jacobi diagonalization of a Hermitian matrix.

    Returns ``(diag, v)``: unsorted real eigenvalues and the accumulated
    unitary as a row-major flat list (columns are eigenvectors). Ordering
    and phase conventions belong to the caller.
    """
    A = [complex(x) for x in a]
    V = [0j] * (n * n)
    for i in range(n):
        V[i * n + i] = 1.0 + 0j

    anorm = _frobenius(A)
    shift = 0
    if not 0.0 < anorm < inf:
        # The sum of squares overflowed (entries above about 1e154) or
        # underflowed to 0 (below about 1e-162), so the threshold would stop
        # every rotation or none. As LAPACK's zheev does, sweep a copy scaled
        # by 2**-shift, which brings the largest part into [0.5, 1) exactly
        # (a part pushed below the normal range rounds), and scale the
        # eigenvalues back. The factor stops at 2**1023, the largest power of
        # two, which still lifts a subnormal part above 2**-52. A zero matrix
        # keeps shift 0, frexp(0.0) being (0.0, 0).
        shift = max(frexp(max(max(abs(x.real), abs(x.imag)) for x in A))[1], -1023)
        factor = ldexp(1.0, -shift)
        A = [complex(x.real * factor, x.imag * factor) for x in A]
        anorm = _frobenius(A)
    if anorm == 0.0:
        return [0.0] * n, V

    thresh = _JACOBI_EPS * anorm
    sweep = _sweep(n)
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for pq, pp, qq, qp, col_p, col_q, row_p, row_q in sweep:
            apq = A[pq]
            r = sqrt(apq.real * apq.real + apq.imag * apq.imag)
            if r <= thresh:
                continue
            rotated = True
            app = A[pp].real
            aqq = A[qq].real
            tau = (aqq - app) / (2.0 * r)
            if tau >= 0.0:
                t = 1.0 / (tau + sqrt(1.0 + tau * tau))
            else:
                t = -1.0 / (-tau + sqrt(1.0 + tau * tau))
            c = 1.0 / sqrt(1.0 + t * t)
            s = apq * (t * c / r)
            sc = s.conjugate()
            # Right-multiply columns p, q of A and V by the rotation.
            for ip, iq in zip(col_p, col_q):
                aip = A[ip]
                aiq = A[iq]
                A[ip] = aip * c - aiq * sc
                A[iq] = aip * s + aiq * c
                vip = V[ip]
                viq = V[iq]
                V[ip] = vip * c - viq * sc
                V[iq] = vip * s + viq * c
            # Left-multiply rows p, q of A by the adjoint rotation.
            for pj, qj in zip(row_p, row_q):
                apj = A[pj]
                aqj = A[qj]
                A[pj] = apj * c - aqj * s
                A[qj] = apj * sc + aqj * c
            # The pivot is zero analytically; pin it to keep A Hermitian.
            A[pq] = 0j
            A[qp] = 0j
            A[pp] = complex(A[pp].real, 0.0)
            A[qq] = complex(A[qq].real, 0.0)
        if not rotated:
            break

    diag = [A[i * n + i].real for i in range(n)]
    if shift:
        try:
            diag = [ldexp(d, shift) for d in diag]
        except OverflowError:
            raise DomainError("matrix entries must be finite") from None
    return diag, V


def _frobenius(A) -> float:
    total = 0.0
    for x in A:
        total += x.real * x.real + x.imag * x.imag
    return sqrt(total)
