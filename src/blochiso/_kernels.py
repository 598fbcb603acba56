"""The library's one eigensolver, cyclic Jacobi, and the reference product.

``jacobi_hermitian`` is the whole factorization: it sweeps, sorts and
phase-fixes, and returns the :class:`HermitianEigenResult`. Its input is
finite and Hermitian, and it checks neither: each caller builds such
entries and checks them finite itself (``channels.choi_of``, a checked
``ChoiMatrix``'s Hermitian average, the Gram table of
``extract_unitary_via_gram``). The library calls it as a module attribute
(``_kernels.jacobi_hermitian(...)``), so a test or profiler that replaces
the attribute sees every call. Its results are pinned bit for bit by the
seeded ``verify`` reports and the ``convert --to kraus`` golden: a change
here must keep each IEEE-754 operation and its order. A matrix whose sum of
squared entries leaves the float range is diagonalized as a copy scaled by
a power of two, so its results are those of the scaled copy, eigenvalues
scaled back. ``classify`` calls it for no verdict, since a refused
channel's rank is an inertia count (``channels._chi_rank``).

``matmul`` is the generic product. No library code calls it: every product
is a closed 2x2 form in :mod:`blochiso.matrix`. The test oracles call it
as the reference those forms are checked against, and the benchmark's
tracer wraps it by name, so it stays until the tracer drops that name.
"""

from __future__ import annotations

from math import frexp, inf, ldexp, sqrt

from .errors import DomainError
from .matrix import ComplexMatrix, HermitianEigenResult

_JACOBI_EPS = 1e-15
_MAX_SWEEPS = 60
_PHASE_CUTOFF = 1e-12


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


def jacobi_hermitian(n: int, entries) -> HermitianEigenResult:
    """Spectral factorization A = V diag(eigenvalues) V* by cyclic Jacobi.

    ``entries`` are A row-major, unchecked: finite, and each entry below the
    diagonal the conjugate of its mirror bit for bit, a zero part's sign
    aside. Deterministic: eigenvalues descending (stable order on ties), and
    each eigenvector column with its first entry of modulus above 1e-12 made
    real positive.
    """
    nn = n * n
    A = [complex(x) for x in entries]
    V = [0j] * nn
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

    # A zero matrix rotates nothing: r <= thresh = 0 at every pivot.
    thresh = _JACOBI_EPS * anorm
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            pp = p * n + p
            for q in range(p + 1, n):
                pq, qq, d = p * n + q, q * n + q, q - p
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
                for ip in range(p, nn, n):
                    iq = ip + d
                    aip = A[ip]
                    aiq = A[iq]
                    A[ip] = aip * c - aiq * sc
                    A[iq] = aip * s + aiq * c
                    vip = V[ip]
                    viq = V[iq]
                    V[ip] = vip * c - viq * sc
                    V[iq] = vip * s + viq * c
                # Left-multiply rows p, q of A by the adjoint rotation.
                for pj in range(p * n, p * n + n):
                    qj = pj + d * n
                    apj = A[pj]
                    aqj = A[qj]
                    A[pj] = apj * c - aqj * s
                    A[qj] = apj * sc + aqj * c
                # The pivot is zero analytically; pin it to keep A Hermitian.
                A[pq] = 0j
                A[q * n + p] = 0j
                A[pp] = complex(A[pp].real, 0.0)
                A[qq] = complex(A[qq].real, 0.0)
        if not rotated:
            break

    # A zero matrix's eigenvalues are +0.0, whatever the signs of its zeros.
    diag = [A[i].real for i in range(0, nn, n + 1)] if anorm else [0.0] * n
    if shift:
        try:
            diag = [ldexp(x, shift) for x in diag]
        except OverflowError:
            raise DomainError("matrix entries must be finite") from None
    order = sorted(range(n), key=diag.__getitem__, reverse=True)
    vectors = [V[row + k] for row in range(0, nn, n) for k in order]
    # A unit column has an entry of modulus at least 1/sqrt(n), so the
    # search always breaks on a pivot.
    for k in range(n):
        for i in range(k, nn, n):
            pivot = vectors[i]
            if abs(pivot) > _PHASE_CUTOFF:
                break
        w = pivot.conjugate() / abs(pivot)
        for i in range(k, nn, n):
            vectors[i] *= w
    eigenvalues = tuple([diag[k] for k in order])
    # Columns of a unitary: finite, of modulus at most 1.
    return HermitianEigenResult(eigenvalues, ComplexMatrix._trusted(n, n, tuple(vectors)))


def _frobenius(A) -> float:
    total = 0.0
    for x in A:
        total += x.real * x.real + x.imag * x.imag
    return sqrt(total)
