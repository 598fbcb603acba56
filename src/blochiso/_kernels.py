"""The two hot loops of the matrix layer: complex products and Jacobi.

Callers reach them as module attributes (``_kernels.matmul(...)``), so a
test or profiler that replaces an attribute sees every call. The results
are pinned bit for bit by the golden CLI fixtures and the seeded ``verify``
reports: a change here must keep each IEEE-754 operation and its order.
"""

from __future__ import annotations

from functools import cache
from math import sqrt

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

    anorm = 0.0
    for x in A:
        anorm += x.real * x.real + x.imag * x.imag
    anorm = sqrt(anorm)
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

    return [A[i * n + i].real for i in range(n)], V
