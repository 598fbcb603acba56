"""Shared builders, oracles, and golden-case machinery for the test suite."""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import random
import struct
from enum import Enum
from math import cos, frexp, inf, isfinite, ldexp, pi, sin, sqrt
from pathlib import Path

import blochiso._kernels
from blochiso._value import Value
from blochiso.channels import (
    RANK_RELATIVE_THRESHOLD,
    BlochAffineAction,
    ChoiMatrix,
    GramData,
    InversePairReport,
    KrausSet,
    _bloch_columns,
    _pin_phase,
)
from blochiso.cli import CliError, _fmt_float, main as cli_main
from blochiso.errors import (
    DimensionError,
    DomainError,
    NonStateError,
    NotUnitaryConjugationError,
)
from blochiso.matrix import (
    _PHASE_CUTOFF,
    DEFAULT_TOL,
    ComplexMatrix,
    HermitianEigenResult,
    adjoint,
    hermitian_eig,
    max_abs_diff,
    scale,
)
from blochiso.isomorphism import phi, phi_inverse, verify_group_diagram, verify_state_diagram
from blochiso.sampling import axis_angle, bloch_in_ball, su2_haar
from blochiso.so3 import Rotation3, _det3, _dot3, orthogonality_deviation, rotation_from_axis_angle
from blochiso.su2 import Unitary2, negate


# The generic operations. The library's products are closed 2x2 forms; these
# are the references the oracles below build from. ``mul`` reaches the kernel
# as a module attribute, so a test that patches ``_kernels.matmul`` sees
# every call.


def zeros(rows: int, cols: int) -> ComplexMatrix:
    return ComplexMatrix(rows, cols, (0j,) * (rows * cols))


def add(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionError(f"shape mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    return ComplexMatrix(a.rows, a.cols, tuple(x + y for x, y in zip(a.entries, b.entries)))


def mul(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    if a.cols != b.rows:
        raise DimensionError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = blochiso._kernels.matmul(a.rows, a.cols, a.entries, b.cols, b.entries)
    return ComplexMatrix(a.rows, b.cols, tuple(out))


def trace(a: ComplexMatrix) -> complex:
    if not a.is_square():
        raise DimensionError("trace needs a square matrix")
    t = 0j
    for i in range(a.rows):
        t += a.entries[i * a.cols + i]
    return t


def from_rows(rows) -> ComplexMatrix:
    """Matrix from a list of equal-length rows."""
    nrows = len(rows)
    if nrows == 0:
        raise DimensionError("matrix needs at least one row")
    ncols = len(rows[0])
    flat: list[complex] = []
    for row in rows:
        if len(row) != ncols:
            raise DimensionError("ragged rows")
        flat.extend(row)
    return ComplexMatrix(nrows, ncols, tuple(flat))


def to_rows(m: ComplexMatrix) -> list[list[complex]]:
    """The entries of ``m`` as a list of rows."""
    return [list(m.entries[i * m.cols : (i + 1) * m.cols]) for i in range(m.rows)]


# Rotation generators (tau_l)_jk = -i eps_jkl, used only to drive the
# series-exponential oracle for the closed-form rotation matrix.
TAU = (
    from_rows([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]),
    from_rows([[0, 0, 1j], [0, 0, 0], [-1j, 0, 0]]),
    from_rows([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]),
)


def rotation_generator(axis: tuple[float, float, float], angle: float) -> ComplexMatrix:
    """The matrix -i * angle * (n . tau); its exponential is the rotation."""
    acc = zeros(3, 3)
    for n_l, tau_l in zip(axis, TAU):
        acc = add(acc, scale(tau_l, n_l))
    return scale(acc, -1j * angle)


def pauli_generator(axis: tuple[float, float, float], angle: float) -> ComplexMatrix:
    """The matrix -i * (angle / 2) * (n . sigma); its exponential is the unitary."""
    from blochiso.bloch import PAULIS

    acc = zeros(2, 2)
    for n_l, sigma_l in zip(axis, PAULIS):
        acc = add(acc, scale(sigma_l, n_l))
    return scale(acc, -0.5j * angle)


def expm_taylor(m: ComplexMatrix, terms: int) -> ComplexMatrix:
    """Truncated series sum_{k < terms} m^k / k!.

    Brute-force exponential used as an independent oracle for the closed-form
    rotation and unitary constructions; not meant to be fast or clever.
    """
    if not m.is_square():
        raise DimensionError("expm_taylor needs a square matrix")
    if terms < 1:
        raise DomainError("terms must be >= 1")
    acc = ComplexMatrix.identity(m.rows)
    term = ComplexMatrix.identity(m.rows)
    for k in range(1, terms):
        term = scale(mul(term, m), 1.0 / k)
        acc = add(acc, term)
    return acc


# Generic-product oracles for the closed forms in channels, su2 and so3.


def phi_inverse_generic(u) -> tuple[tuple[float, ...], ...]:
    """R_kj = Tr(U s_j U* s_k) / 2 through generic matrix products."""
    from blochiso.bloch import PAULIS

    ua = adjoint(u.matrix)
    rows = [[0.0, 0.0, 0.0] for _ in range(3)]
    for j in range(3):
        mj = mul(mul(u.matrix, PAULIS[j]), ua)
        for k in range(3):
            rows[k][j] = 0.5 * trace(mul(mj, PAULIS[k])).real
    return tuple(tuple(row) for row in rows)


def apply_to_matrix_generic(k: KrausSet, m: ComplexMatrix) -> ComplexMatrix:
    """sum_a A_a m A_a* through generic matrix products."""
    acc = zeros(2, 2)
    for op in k.operators:
        acc = add(acc, mul(mul(op, m), adjoint(op)))
    return acc


def bloch_affine_action_generic(k: KrausSet) -> BlochAffineAction:
    """M_kj = Tr(s_k Phi(s_j)) / 2 and t_k = Tr(s_k Phi(I)) / 2 through
    generic matrix products, for a set already known to be CPTP."""
    from blochiso.bloch import PAULIS

    phi_of_identity = apply_to_matrix_generic(k, ComplexMatrix.identity(2))
    translation = tuple(
        0.5 * trace(mul(PAULIS[i], phi_of_identity)).real for i in range(3)
    )
    columns = []
    for j in range(3):
        phi_of_sigma = apply_to_matrix_generic(k, PAULIS[j])
        columns.append([0.5 * trace(mul(PAULIS[i], phi_of_sigma)).real for i in range(3)])
    matrix = tuple(tuple(columns[j][i] for j in range(3)) for i in range(3))
    return BlochAffineAction(matrix, translation)  # type: ignore[arg-type]


def apply_channel_generic(k: KrausSet, rho):
    """``channels.apply_channel`` through generic matrix products, for a set
    already known to be trace preserving."""
    from blochiso.bloch import DensityOperator

    return DensityOperator(apply_to_matrix_generic(k, rho.matrix))


def purity_generic(rho) -> float:
    """Tr rho^2 through the generic product."""
    return trace(mul(rho.matrix, rho.matrix)).real


def adjoint_action_generic(u, elem):
    """``isomorphism.adjoint_action``: U u U* through generic matrix products."""
    from blochiso.isomorphism import Su2AlgebraElement

    m = mul(mul(u.matrix, elem.matrix()), adjoint(u.matrix))
    r1 = (m.at(0, 1).imag + m.at(1, 0).imag) / 2.0
    r2 = (m.at(0, 1).real - m.at(1, 0).real) / 2.0
    r3 = (m.at(0, 0).imag - m.at(1, 1).imag) / 2.0
    return Su2AlgebraElement((r1, r2, r3))


def density_to_bloch_generic(rho) -> tuple[float, float, float]:
    """x_k = Tr(rho s_k) through generic matrix products."""
    from blochiso.bloch import PAULIS

    return tuple(trace(mul(rho.matrix, p)).real for p in PAULIS)  # type: ignore[return-value]


_I2 = ComplexMatrix.identity(2)


def choi_tp_deviation(choi: ChoiMatrix) -> float:
    """Deviation of the Choi matrix's partial trace over the output factor
    from I; zero exactly when the source set is trace preserving."""
    m = choi.matrix
    reduced = [m.at(i, j) + m.at(2 + i, 2 + j) for i in range(2) for j in range(2)]
    return max_abs_diff(ComplexMatrix(2, 2, tuple(reduced)), _I2)


def tp_deviation_generic(k: KrausSet) -> float:
    """Largest entrywise deviation of sum A* A from the identity."""
    acc = zeros(2, 2)
    for op in k.operators:
        acc = add(acc, mul(adjoint(op), op))
    return max_abs_diff(acc, _I2)


def extract_unitary_via_gram_generic(
    k: KrausSet, tol: float = DEFAULT_TOL
) -> tuple[ComplexMatrix, GramData]:
    """``channels.extract_unitary_via_gram`` through generic matrix products."""
    ops = k.operators
    count = len(ops)
    beta_entries = [0j] * (count * count)
    worst_pair = (0, 0)
    worst_residual = 0.0
    for a_prime in range(count):
        left = adjoint(ops[a_prime])
        for a in range(count):
            prod = mul(left, ops[a])
            coeff = trace(prod) / 2.0
            residual = max_abs_diff(prod, scale(_I2, coeff))
            if residual > worst_residual:
                worst_residual = residual
                worst_pair = (a_prime, a)
            beta_entries[a_prime * count + a] = coeff
    if worst_residual > tol:
        raise NotUnitaryConjugationError(
            "channel is not a unitary conjugation: operator pair "
            f"{worst_pair} has proportionality residual {worst_residual:.3e}",
            worst_pair,
            worst_residual,
        )

    beta = ComplexMatrix(count, count, tuple(beta_entries))
    eig = hermitian_eig(beta, tol)
    gamma = eig.eigenvalues
    mixing = eig.eigenvectors

    if not gamma[0] > 0.0:
        raise NotUnitaryConjugationError(
            "Gram matrix has no significant direction", (0, 0), gamma[0]
        )

    combo = zeros(2, 2)
    for a in range(count):
        combo = add(combo, scale(ops[a], mixing.at(a, 0)))
    unitary = scale(combo, 1.0 / sqrt(gamma[0]))
    dev = max_abs_diff(mul(adjoint(unitary), unitary), _I2)
    if dev > max(tol, 1e-7):
        raise NotUnitaryConjugationError(
            f"leading Gram direction is not unitary (deviation {dev:.3e})", (0, 0), dev
        )
    # A second significant Gram direction is a second Kraus operator the
    # channel needs: the Gram rank, like the Choi rank, must be 1.
    if len(gamma) > 1 and gamma[1] > RANK_RELATIVE_THRESHOLD * gamma[0]:
        raise NotUnitaryConjugationError(
            "Gram directions disagree on the underlying unitary", (0, 0), gamma[1]
        )

    return _pin_phase(unitary), GramData(beta, gamma, mixing)


def verify_inverse_pair_generic(
    k_fwd: KrausSet, k_inv: KrausSet, tol: float = DEFAULT_TOL
) -> InversePairReport:
    """``channels.verify_inverse_pair`` through generic matrix products."""
    n_inv = len(k_inv.operators)
    n_fwd = len(k_fwd.operators)
    alpha_entries = [0j] * (n_inv * n_fwd)
    max_residual = 0.0
    square_sum = 0.0
    for b in range(n_inv):
        for a in range(n_fwd):
            prod = mul(k_inv.operators[b], k_fwd.operators[a])
            coeff = trace(prod) / 2.0
            residual = max_abs_diff(prod, scale(_I2, coeff))
            max_residual = max(max_residual, residual)
            alpha_entries[b * n_fwd + a] = coeff
            square_sum += coeff.real * coeff.real + coeff.imag * coeff.imag
    valid = max_residual <= tol and abs(square_sum - 1.0) <= tol
    return InversePairReport(
        valid, ComplexMatrix(n_inv, n_fwd, tuple(alpha_entries)), square_sum, max_residual
    )


# The eigensolver before its pivot table and its trusted values: the kernel
# and hermitian_eig verbatim, so their results can be compared bit for bit.
# Where the sum of squared entries leaves the float range, the factorization
# runs the reference kernel on the exactly rescaled copy the kernel sweeps.

_JACOBI_EPS = 1e-15
_MAX_SWEEPS = 60


def jacobi_hermitian_reference(n: int, a):
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
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p * n + q]
                r = sqrt(apq.real * apq.real + apq.imag * apq.imag)
                if r <= thresh:
                    continue
                rotated = True
                app = A[p * n + p].real
                aqq = A[q * n + q].real
                tau = (aqq - app) / (2.0 * r)
                if tau >= 0.0:
                    t = 1.0 / (tau + sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + sqrt(1.0 + tau * tau))
                c = 1.0 / sqrt(1.0 + t * t)
                s = apq * (t * c / r)
                sc = s.conjugate()
                # Right-multiply columns p, q of A and V by the rotation.
                for i in range(n):
                    ip = i * n + p
                    iq = i * n + q
                    aip = A[ip]
                    aiq = A[iq]
                    A[ip] = aip * c - aiq * sc
                    A[iq] = aip * s + aiq * c
                    vip = V[ip]
                    viq = V[iq]
                    V[ip] = vip * c - viq * sc
                    V[iq] = vip * s + viq * c
                # Left-multiply rows p, q of A by the adjoint rotation.
                for j in range(n):
                    pj = p * n + j
                    qj = q * n + j
                    apj = A[pj]
                    aqj = A[qj]
                    A[pj] = apj * c - aqj * s
                    A[qj] = apj * sc + aqj * c
                # The pivot is zero analytically; pin it to keep A Hermitian.
                A[p * n + q] = 0j
                A[q * n + p] = 0j
                A[p * n + p] = complex(A[p * n + p].real, 0.0)
                A[q * n + q] = complex(A[q * n + q].real, 0.0)
        if not rotated:
            break

    return [A[i * n + i].real for i in range(n)], V


def rescale_shift(a) -> int:
    """The power of two the kernel scales ``a`` down by before its sweeps: 0
    while the square root of the sum of squared entries lies in (0, inf),
    else the binary exponent of the largest part, at least -1023."""
    total = 0.0
    for x in a:
        total += x.real * x.real + x.imag * x.imag
    if 0.0 < sqrt(total) < inf:
        return 0
    return max(frexp(max(max(abs(x.real), abs(x.imag)) for x in a))[1], -1023)


def jacobi_hermitian_rescaled_reference(n: int, a):
    """The reference kernel on ``a`` scaled exactly by 2**-rescale_shift(a),
    with its eigenvalues scaled back."""
    shift = rescale_shift(a)
    if not shift:
        return jacobi_hermitian_reference(n, a)
    factor = ldexp(1.0, -shift)
    diag, v = jacobi_hermitian_reference(
        n, [complex(x.real * factor, x.imag * factor) for x in a]
    )
    return [ldexp(d, shift) for d in diag], v


def _phase_fix_columns_reference(n: int, v: list[complex]) -> list[complex]:
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


def hermitian_eig_reference(m: ComplexMatrix, tol: float = DEFAULT_TOL) -> HermitianEigenResult:
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
    diag, vflat = jacobi_hermitian_rescaled_reference(n, sym)
    order = sorted(range(n), key=diag.__getitem__, reverse=True)
    eigenvalues = tuple(diag[k] for k in order)
    reordered = [0j] * (n * n)
    for new_col, old_col in enumerate(order):
        for i in range(n):
            reordered[i * n + new_col] = vflat[i * n + old_col]
    vectors = _phase_fix_columns_reference(n, reordered)
    return HermitianEigenResult(eigenvalues, ComplexMatrix(n, n, tuple(vectors)))


def fingerprint(value):
    """``value`` with every float as its IEEE-754 bytes, so ``==`` is bitwise.

    A library value becomes the fingerprints of its fields. An exception
    becomes its type, message and, where it has them, the worst pair and
    residual. Any other blochiso object raises TypeError, since its ``==``
    need not be bitwise (``-0.0 == 0.0``).
    """
    if isinstance(value, float):
        return struct.pack("d", value)
    if isinstance(value, complex):
        return struct.pack("2d", value.real, value.imag)
    if isinstance(value, (tuple, list)):
        return tuple(fingerprint(v) for v in value)
    if isinstance(value, BaseException):
        extra = (getattr(value, "pair", None), getattr(value, "residual", None))
        return (type(value), str(value), fingerprint(extra))
    if isinstance(value, Value):
        return tuple(fingerprint(getattr(value, name)) for name in value.__match_args__)
    if type(value).__module__.startswith("blochiso") and not isinstance(value, Enum):
        raise TypeError(f"no bitwise fingerprint for {type(value).__qualname__}")
    return value


def outcome(function, *args):
    """The fingerprint of ``function(*args)`` or of what it raised."""
    try:
        return fingerprint(function(*args))
    except Exception as exc:  # compared, type included, against the oracle's
        return fingerprint(exc)


# The geometry path as it was before it trusted the values it builds: every
# rotation and 2x2 value validated in full, every 2x2 product through the
# matmul kernel. Rotations come back as their validated rows and density
# operators as their validated matrix; tests/test_trusted_geometry.py
# compares the library with these bit for bit.


def rotation_reference(matrix):
    """The rows ``Rotation3(matrix)`` kept, or the error it raised."""
    rows = tuple(tuple(float(x) for x in row) for row in matrix)
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise DomainError("rotation matrix must be 3x3")
    if any(not isfinite(x) for r in rows for x in r):
        raise DomainError("rotation entries must be finite")
    dev = orthogonality_deviation(rows)
    if dev > DEFAULT_TOL:
        raise DomainError(f"matrix is not orthogonal (deviation {dev:.3e})")
    d = _det3(rows)
    if abs(d - 1.0) > DEFAULT_TOL:
        raise DomainError(f"rotation must have det +1, got {d!r}")
    return rows


def rotation_from_axis_angle_reference(aa):
    """Rodrigues form: cos a * I + (1 - cos a) n n^T + sin a [n]_x."""
    n1, n2, n3 = aa.axis
    ca = cos(aa.angle)
    sa = sin(aa.angle)
    k = 1.0 - ca
    return rotation_reference(
        (
            (ca + n1 * n1 * k, n1 * n2 * k - n3 * sa, n1 * n3 * k + n2 * sa),
            (n2 * n1 * k + n3 * sa, ca + n2 * n2 * k, n2 * n3 * k - n1 * sa),
            (n3 * n1 * k - n2 * sa, n3 * n2 * k + n1 * sa, ca + n3 * n3 * k),
        )
    )


def so3_compose_reference(ra, rb):
    columns = tuple(zip(*rb.matrix))
    return rotation_reference(tuple(tuple(_dot3(row, col) for col in columns) for row in ra.matrix))


def phi_inverse_reference(u):
    return rotation_reference(tuple(zip(*_bloch_columns((u.matrix,), 3))))


def unitary_from_axis_angle_reference(aa) -> Unitary2:
    """cos(a/2) I - i sin(a/2) n . sigma; det is 1 by construction."""
    c = cos(aa.angle / 2.0)
    s = sin(aa.angle / 2.0)
    n1, n2, n3 = aa.axis
    return Unitary2(
        ComplexMatrix(
            2,
            2,
            (
                complex(c, -s * n3),
                complex(-s * n2, -s * n1),
                complex(s * n2, -s * n1),
                complex(c, s * n3),
            ),
        )
    )


def su2_compose_reference(ua, ub) -> Unitary2:
    return Unitary2(mul(ua.matrix, ub.matrix))


def su2_negate_reference(u) -> Unitary2:
    return Unitary2(scale(u.matrix, -1.0))


def hermitian_deviation_reference(a: ComplexMatrix) -> float:
    """Largest entrywise deviation from A = A*."""
    if not a.is_square():
        raise DimensionError("hermitian_deviation needs a square matrix")
    return max_abs_diff(a, adjoint(a))


def density_operator_reference(m: ComplexMatrix) -> ComplexMatrix:
    """The matrix ``DensityOperator(m)`` kept, or the error it raised."""
    if m.rows != 2 or m.cols != 2:
        raise NonStateError("density operator must be 2x2")
    if hermitian_deviation_reference(m) > DEFAULT_TOL:
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
    return m


def su2_conjugate_reference(u, rho) -> ComplexMatrix:
    """U rho U*; preserves trace, Hermiticity, positivity, and purity."""
    return density_operator_reference(mul(mul(u.matrix, rho.matrix), adjoint(u.matrix)))


def bloch_to_density_reference(r, tol: float = DEFAULT_TOL) -> ComplexMatrix:
    nrm = r.norm()
    if nrm > 1.0 + tol:
        raise NonStateError(f"Bloch vector norm {nrm!r} exceeds 1")
    x1, x2, x3 = r.x1, r.x2, r.x3
    if nrm > 1.0:
        x1, x2, x3 = x1 / nrm, x2 / nrm, x3 / nrm
    m = ComplexMatrix(
        2,
        2,
        (
            complex(0.5 * (1.0 + x3), 0.0),
            complex(0.5 * x1, -0.5 * x2),
            complex(0.5 * x1, 0.5 * x2),
            complex(0.5 * (1.0 - x3), 0.0),
        ),
    )
    return density_operator_reference(m)


def geometry_inputs(rng: random.Random):
    """Seeded inputs of one geometry case: a Bloch vector and an axis-angle
    for the state diagram, the entries of a special unitary, a word of three
    axis-angles and the rows of a rotation to lift."""
    return (
        bloch_in_ball(rng),
        axis_angle(rng),
        su2_haar(rng).matrix.entries,
        [axis_angle(rng) for _ in range(3)],
        rotation_from_axis_angle(axis_angle(rng)).matrix,
    )


def run_geometry_case(inputs):
    """The diagram checks of one geometry case, as a caller makes them: the
    caller builds the unitary and the rotation to lift from plain values."""
    r, aa, u_entries, word, lift_rows = inputs
    state = verify_state_diagram(r, aa)
    u = Unitary2(ComplexMatrix(2, 2, u_entries))
    plus, minus = phi_inverse(u), phi_inverse(negate(u))
    group = verify_group_diagram(word)
    lift = phi(Rotation3(lift_rows))
    return state, plus, minus, group, lift


def unitarity_deviation_generic(m: ComplexMatrix) -> float:
    """Largest entrywise deviation of M* M from the identity."""
    return max_abs_diff(mul(adjoint(m), m), ComplexMatrix.identity(m.rows))


def orthogonality_deviation_generic(m) -> float:
    """Largest entrywise deviation of R^T R from the identity, all 9 entries.

    Each entry is summed left to right, as built-in ``sum`` does on floats
    before Python 3.12 (later versions compensate the rounding).
    """
    dev = 0.0
    for i in range(3):
        for j in range(3):
            s = 0
            for k in range(3):
                s += m[k][i] * m[k][j]
            dev = max(dev, abs(s - (1.0 if i == j else 0.0)))
    return dev


def rotation_as_cmatrix(rot) -> ComplexMatrix:
    return from_rows([[complex(x) for x in row] for row in rot.matrix])


def random_hermitian(rng: random.Random, n: int) -> ComplexMatrix:
    g = ComplexMatrix(
        n, n, tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n * n))
    )
    return scale(add(g, adjoint(g)), 0.5)


def random_matrix(rng: random.Random, n: int) -> ComplexMatrix:
    return ComplexMatrix(
        n, n, tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n * n))
    )


def random_cptp_kraus(rng: random.Random, count: int) -> KrausSet:
    """Random channel: raw Gaussian blocks normalized by S^{-1/2}."""
    blocks = [random_matrix(rng, 2) for _ in range(count)]
    s = zeros(2, 2)
    for g in blocks:
        s = add(s, mul(adjoint(g), g))
    eig = hermitian_eig(s)
    inv_root_diag = ComplexMatrix(
        2,
        2,
        tuple(
            (1.0 / sqrt(eig.eigenvalues[i]) if i == j else 0j)
            for i in range(2)
            for j in range(2)
        ),
    )
    s_inv_root = mul(mul(eig.eigenvectors, inv_root_diag), adjoint(eig.eigenvectors))
    return KrausSet(tuple(mul(g, s_inv_root) for g in blocks))


def amplitude_damping(g: float) -> KrausSet:
    """Decay |1> -> |0> with probability g: sqrt(1 - g) on |1><1|, sqrt(g) on |0><1|."""
    return KrausSet(
        (
            from_rows([[1, 0], [0, sqrt(1 - g)]]),
            from_rows([[0, sqrt(g)], [0, 0]]),
        )
    )


def remix_kraus(rng_unitary: ComplexMatrix, k: KrausSet) -> KrausSet:
    """New representation A'_a = sum_c W[c][a] A_c of the same channel."""
    count = len(k.operators)
    assert rng_unitary.rows == count
    new_ops = []
    for a in range(count):
        acc = zeros(2, 2)
        for c in range(count):
            acc = add(acc, scale(k.operators[c], rng_unitary.at(c, a)))
        new_ops.append(acc)
    return KrausSet(tuple(new_ops))


def phase_aligned_diff(candidate: ComplexMatrix, reference: ComplexMatrix) -> float:
    """Entrywise distance after removing the best global phase."""
    overlap = 0j
    for x, y in zip(reference.entries, candidate.entries):
        overlap += x.conjugate() * y
    mag = abs(overlap)
    if mag < 1e-15:
        return float("inf")
    phase = overlap / mag
    return max(abs(y - phase * x) for x, y in zip(reference.entries, candidate.entries))


# The CLI codec before it checked each cell once: dumps, _decode_complex and
# _decode_cmatrix verbatim, so their bytes, values and errors can be
# compared with the library's.


def dumps_reference(value):
    """Compact JSON with fixed float formatting and insertion-order keys.

    Raises ValueError on a NaN or infinite float, which JSON cannot carry.
    """
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{dumps_reference(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(dumps_reference(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _decode_complex_reference(value, where: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(float(value), 0.0)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        return complex(float(value[0]), float(value[1]))
    raise CliError(2, "malformed_input", f"{where}: expected a number or [re, im] pair")


def _decode_cmatrix_reference(value, rows: int, cols: int, where: str) -> ComplexMatrix:
    if not isinstance(value, list) or len(value) != rows:
        raise CliError(2, "malformed_input", f"{where}: expected {rows} rows")
    flat: list[complex] = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise CliError(2, "malformed_input", f"{where}: row {i} must have {cols} entries")
        for j, cell in enumerate(row):
            flat.append(_decode_complex_reference(cell, f"{where}[{i}][{j}]"))
    return ComplexMatrix(rows, cols, tuple(flat))


# ----------------------------------------------------------------------
# Golden CLI fixtures (byte-equality determinism checks)

GOLDEN_DIR = Path(__file__).parent / "golden"

# (expected file, argv with bare names resolved against golden/inputs)
GOLDEN_CASES = [
    ("convert_bloch_to_density.json", ["convert", "--to", "density", "bloch_north.json"]),
    ("convert_unitary_to_rotation.json", ["convert", "--to", "rotation", "unitary_quarter_z.json"]),
    ("convert_axis_angle_to_unitary.json", ["convert", "--to", "unitary", "axis_angle_half_x.json"]),
    ("classify_identity.json", ["classify", "kraus_identity.json"]),
    ("classify_depolarizing_half.json", ["classify", "kraus_depolarizing_half.json"]),
    ("classify_scaled_identity.json", ["classify", "kraus_scaled_identity.json"]),
    ("bloch_action_unitary_tilted.json", ["bloch-action", "kraus_unitary_tilted.json"]),
    ("bloch_action_depolarizing_half.json", ["bloch-action", "kraus_depolarizing_half.json"]),
    ("bloch_action_damping.json", ["bloch-action", "kraus_damping.json"]),
]


def _golden_doc(kind: str, payload: dict) -> str:
    return json.dumps(
        {"schema_version": "1", "kind": kind, "payload": payload}, indent=1
    ) + "\n"


def build_golden_inputs() -> dict[str, str]:
    c = cos(pi / 4)
    s = sin(pi / 4)
    root_main = sqrt(0.625)
    root_pauli = sqrt(0.125)
    # exp(-i (pi/3) n . sigma) = cos(pi/3) I - i sin(pi/3) n . sigma about
    # the tilted axis n = (1, 2, 2) / 3; (sx, sy, sz) is sin(pi/3) n.
    half_cos = cos(pi / 3)
    sx, sy, sz = (sin(pi / 3) * x / 3 for x in (1, 2, 2))
    return {
        "bloch_north.json": _golden_doc("bloch", {"vector": [0, 0, 1]}),
        "unitary_quarter_z.json": _golden_doc(
            "unitary", {"matrix": [[[c, -s], [0, 0]], [[0, 0], [c, s]]]}
        ),
        "axis_angle_half_x.json": _golden_doc(
            "axis_angle", {"axis": [1, 0, 0], "angle": pi}
        ),
        "kraus_identity.json": _golden_doc(
            "kraus", {"operators": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}
        ),
        "kraus_depolarizing_half.json": _golden_doc(
            "kraus",
            {
                "operators": [
                    [[[root_main, 0], [0, 0]], [[0, 0], [root_main, 0]]],
                    [[[0, 0], [root_pauli, 0]], [[root_pauli, 0], [0, 0]]],
                    [[[0, 0], [0, -root_pauli]], [[0, root_pauli], [0, 0]]],
                    [[[root_pauli, 0], [0, 0]], [[0, 0], [-root_pauli, 0]]],
                ]
            },
        ),
        "kraus_scaled_identity.json": _golden_doc(
            "kraus", {"operators": [[[[2, 0], [0, 0]], [[0, 0], [2, 0]]]]}
        ),
        "kraus_unitary_tilted.json": _golden_doc(
            "kraus",
            {
                "operators": [
                    [[[half_cos, -sz], [-sy, -sx]], [[sy, -sx], [half_cos, sz]]],
                ]
            },
        ),
        # Amplitude damping at gamma = 0.36: sqrt(1 - gamma) = 0.8, sqrt(gamma) = 0.6.
        "kraus_damping.json": _golden_doc(
            "kraus",
            {
                "operators": [
                    [[[1, 0], [0, 0]], [[0, 0], [0.8, 0]]],
                    [[[0, 0], [0.6, 0]], [[0, 0], [0, 0]]],
                ]
            },
        ),
    }


def run_golden_case(argv: list[str]) -> tuple[int, str]:
    inputs = GOLDEN_DIR / "inputs"
    resolved = [str(inputs / a) if (inputs / a).is_file() else a for a in argv]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(resolved)
    return code, buffer.getvalue()
