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
from blochiso.bloch import PAULIS, BlochVector, DensityOperator, bloch_to_density
from blochiso.channels import (
    BlochAffineAction,
    ChoiMatrix,
    GramData,
    InversePairReport,
    KrausSet,
    _chi_deficit,
    _deficit_bound,
    _require_finite,
    _trace_gate,
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
    _adjoint2,
    _hermitian_eig,
    _mul2,
    adjoint,
    max_abs_diff,
    scale,
)
from blochiso.isomorphism import (
    DiagramReport,
    phi,
    phi_inverse,
    verify_group_diagram,
    verify_state_diagram,
)
from blochiso.sampling import axis_angle, bloch_in_ball, su2_haar
from blochiso.so3 import (
    Rotation3,
    _axis_angle,
    _det3,
    orthogonality_deviation,
    rotation_from_axis_angle,
)
from blochiso.su2 import Unitary2, _chi, _chi_lift, _from_quaternion, negate


# The generic operations. The library's products are closed 2x2 forms; these
# are the references the oracles below build from. ``mul`` reaches the kernel
# as a module attribute, so a test that patches ``_kernels.matmul`` sees
# every call.


def identity(n: int) -> ComplexMatrix:
    return ComplexMatrix._trusted(
        n, n, tuple(1.0 + 0j if i == j else 0j for i in range(n) for j in range(n))
    )


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
    if a.rows != a.cols:
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
    acc = zeros(2, 2)
    for n_l, sigma_l in zip(axis, PAULIS):
        acc = add(acc, scale(sigma_l, n_l))
    return scale(acc, -0.5j * angle)


def expm_taylor(m: ComplexMatrix, terms: int) -> ComplexMatrix:
    """Truncated series sum_{k < terms} m^k / k!.

    Brute-force exponential used as an independent oracle for the closed-form
    rotation and unitary constructions; not meant to be fast or clever.
    """
    if m.rows != m.cols:
        raise DimensionError("expm_taylor needs a square matrix")
    if terms < 1:
        raise DomainError("terms must be >= 1")
    acc = identity(m.rows)
    term = identity(m.rows)
    for k in range(1, terms):
        term = scale(mul(term, m), 1.0 / k)
        acc = add(acc, term)
    return acc


# The paper's state dictionary and the Lie-algebra coordinates of the
# isomorphism. No library path or CLI command calls them, so they live here,
# with the samplers the tests draw states from.


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


class Su2AlgebraElement(Value):
    """Anti-Hermitian traceless matrix i r . sigma in Pauli coordinates r."""

    def __init__(self, vector: tuple[float, float, float]) -> None:
        self.__dict__["vector"] = vector
        self.__post_init__()

    def __post_init__(self) -> None:
        vec = tuple(float(c) for c in self.vector)
        if len(vec) != 3 or not all(isfinite(c) for c in vec):
            raise DomainError("coordinates must be a finite 3-vector")
        object.__setattr__(self, "vector", vec)

    def matrix(self) -> ComplexMatrix:
        r1, r2, r3 = self.vector
        return ComplexMatrix(
            2,
            2,
            (
                complex(0.0, r3),
                complex(r2, r1),
                complex(-r2, r1),
                complex(0.0, -r3),
            ),
        )

    def norm(self) -> float:
        r1, r2, r3 = self.vector
        return sqrt(r1 * r1 + r2 * r2 + r3 * r3)


def psi(u: Su2AlgebraElement) -> BlochVector:
    """Coordinate map i r . sigma -> r."""
    return BlochVector(*u.vector)


def psi_inverse(r: BlochVector) -> Su2AlgebraElement:
    """Coordinate map r -> i r . sigma."""
    return Su2AlgebraElement(r.as_tuple())


def random_density(rng: random.Random) -> DensityOperator:
    """The state of a uniform point of the Bloch ball."""
    return bloch_to_density(bloch_in_ball(rng))


def is_pure(purity: float) -> bool:
    """The pure/mixed verdict at the unit sphere: Tr rho^2 within 1e-9 of 1."""
    return abs(purity - 1.0) <= 1e-9


# Generic-product oracles for the closed forms in channels, su2 and so3.


def phi_inverse_generic(u) -> tuple[tuple[float, ...], ...]:
    """R_kj = Tr(U s_j U* s_k) / 2 through generic matrix products."""
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
    phi_of_identity = apply_to_matrix_generic(k, identity(2))
    translation = tuple(
        0.5 * trace(mul(PAULIS[i], phi_of_identity)).real for i in range(3)
    )
    columns = []
    for j in range(3):
        phi_of_sigma = apply_to_matrix_generic(k, PAULIS[j])
        columns.append([0.5 * trace(mul(PAULIS[i], phi_of_sigma)).real for i in range(3)])
    matrix = tuple(tuple(columns[j][i] for j in range(3)) for i in range(3))
    return BlochAffineAction(matrix, translation)  # type: ignore[arg-type]


def apply_channel_generic(k: KrausSet, rho) -> DensityOperator:
    """sum_a A_a rho A_a* through generic matrix products, for a set already
    known to be trace preserving."""
    return DensityOperator(apply_to_matrix_generic(k, rho.matrix))


def purity_generic(rho) -> float:
    """Tr rho^2 through the generic product."""
    return trace(mul(rho.matrix, rho.matrix)).real


def adjoint_action_generic(u, elem: Su2AlgebraElement) -> Su2AlgebraElement:
    """u -> U u U* in Pauli coordinates, through generic matrix products.
    Anti-Hermiticity survives conjugation, so the result is i r' . sigma
    again, with the coordinate norm preserved."""
    m = mul(mul(u.matrix, elem.matrix()), adjoint(u.matrix))
    r1 = (m.at(0, 1).imag + m.at(1, 0).imag) / 2.0
    r2 = (m.at(0, 1).real - m.at(1, 0).real) / 2.0
    r3 = (m.at(0, 0).imag - m.at(1, 1).imag) / 2.0
    return Su2AlgebraElement((r1, r2, r3))


def density_to_bloch_generic(rho) -> tuple[float, float, float]:
    """x_k = Tr(rho s_k) through generic matrix products."""
    return tuple(trace(mul(rho.matrix, p)).real for p in PAULIS)  # type: ignore[return-value]


_I2 = identity(2)


def choi_tp_deviation(choi: ChoiMatrix) -> float:
    """Deviation of the Choi matrix's partial trace over the output factor
    from I; zero exactly when the source set is trace preserving."""
    m = choi.matrix
    reduced = [m.at(i, j) + m.at(2 + i, 2 + j) for i in range(2) for j in range(2)]
    return max_abs_diff(ComplexMatrix(2, 2, tuple(reduced)), _I2)


def choi_entries_generic(operators) -> tuple[complex, ...]:
    """The 16 entries of sum_a vec(A_a) vec(A_a)*, each summed from 0j."""
    ents = [0j] * 16
    for op in operators:
        w = op.entries
        for r in range(4):
            for c in range(4):
                ents[r * 4 + c] += w[r] * w[c].conjugate()
    return tuple(ents)


def chi_deficit(chi: tuple) -> float:
    """``channels._chi_deficit`` at the trace ``channels._trace_gate`` sums
    and checks, as the library hands it over."""
    return _chi_deficit(chi, _trace_gate(chi)[0])


def tp_deviation_generic(k: KrausSet) -> float:
    """Largest entrywise deviation of sum A* A from the identity."""
    acc = zeros(2, 2)
    for op in k.operators:
        acc = add(acc, mul(adjoint(op), op))
    return max_abs_diff(acc, _I2)


def tp_deviation_loop(k: KrausSet) -> float:
    """Largest entrywise deviation of sum A* A from the identity, as a loop
    over the closed 2x2 forms: each A* A is ``_mul2(_adjoint2(A), A)``,
    added entrywise. ``KrausSet.tp_deviation`` reads the same sum off chi."""
    s0 = s1 = s2 = s3 = 0j
    for op in k.operators:
        p0, p1, p2, p3 = _mul2(_adjoint2(op.entries), op.entries)
        s0, s1, s2, s3 = s0 + p0, s1 + p1, s2 + p2, s3 + p3
    _require_finite(s0, s1, s2, s3)
    return max(abs(s0 - 1.0), abs(s1), abs(s2), abs(s3 - 1.0))


# How often each upper chi entry appears in the square: once on the diagonal,
# twice off it.
_CHI_UPPER_WEIGHTS = (1.0, 2.0, 2.0, 2.0, 1.0, 2.0, 2.0, 1.0, 2.0, 1.0)


def chi_deficit_loop(chi: tuple) -> float:
    """``channels._chi_deficit`` as a loop over the 10 upper entries of chi,
    each weighted by how often it appears in the square."""
    trace = chi[0] + chi[4] + chi[7] + chi[9]
    _require_finite(trace + trace)
    inverse = 1.0 / trace
    square_sum = 0.0
    for z, weight in zip(chi, _CHI_UPPER_WEIGHTS):
        x = abs(z) * inverse
        square_sum += weight * (x * x)
    return 1.0 - square_sum


def chi_lift_index_max(chi: tuple) -> Unitary2:
    """``su2._chi_lift`` with its row picked as ``index(max)`` of the diagonal."""
    d0, x01, x02, x03, d1, x12, x13, d2, x23, d3 = chi
    r01, r02, r03, r12, r13, r23 = x01.real, x02.real, x03.real, x12.real, x13.real, x23.real
    diagonal = (d0, d1, d2, d3)
    k = diagonal.index(max(diagonal))
    row = ((d0, r01, r02, r03), (r01, d1, r12, r13), (r02, r12, d2, r23), (r03, r13, r23, d3))[k]
    p = row[k]
    w, x, y, z = row[0] / p, row[1] / p, row[2] / p, row[3] / p
    nrm = sqrt(w * w + x * x + y * y + z * z)
    if w < 0.0:
        nrm = -nrm
    return _from_quaternion(w / nrm, x / nrm, y / nrm, z / nrm)


# Flat index of each upper entry of a 4x4, row-major, as su2._chi lists them.
_UPPER4 = tuple(r * 4 + c for r in range(4) for c in range(r, 4))


def chi_matrix(chi: tuple) -> tuple[complex, ...]:
    """The 16 entries of chi, row-major: its upper triangle, each diagonal
    entry complex, and below it ``0j + conj`` of each mirror, Hermitian bit
    for bit as the Choi matrix's entries are."""
    ents = [0j] * 16
    for i, z in zip(_UPPER4, chi):
        ents[i] += z
    for r in range(1, 4):
        for c in range(r):
            ents[r * 4 + c] = 0j + ents[c * 4 + r].conjugate()
    return tuple(ents)


def extract_unitary_via_gram_generic(
    k: KrausSet, tol: float = DEFAULT_TOL
) -> tuple[ComplexMatrix, GramData]:
    """``channels.extract_unitary_via_gram`` through generic matrix products."""
    ops = k.operators
    count = len(ops)
    beta_entries = [0j] * (count * count)
    worst_pair = (0, 0)
    worst_residual = 0.0
    try:
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
    except OverflowError as exc:  # a residual's modulus past the float range
        raise DomainError("matrix entries must be finite") from exc
    # The library's trace gate, as its lift below: the comparison checks the
    # pair-product closed forms, not the gate (see test_tp_deviation).
    chi = _chi(ops)
    dev = _trace_gate(chi)[1]
    deficit = chi_deficit_loop(chi)
    if not (dev <= tol and deficit <= _deficit_bound(tol)):
        raise NotUnitaryConjugationError(
            f"channel is not a unitary conjugation: tp deviation {dev:.3e}, "
            f"Choi purity deficit {deficit:.3e}; "
            f"operator pair {worst_pair} has proportionality residual {worst_residual:.3e}",
            worst_pair,
            worst_residual,
        )

    beta = ComplexMatrix(count, count, tuple(beta_entries))
    eig = hermitian_eig_reference(beta, tol)
    mixing = eig.eigenvectors
    combo = zeros(2, 2)
    for a in range(count):
        combo = add(combo, scale(ops[a], mixing.at(a, 0)))
    # The library's one lift, so that the comparison stays bitwise: it checks
    # the pair-product closed forms, not the phase rule.
    return _chi_lift(_chi((combo,))).matrix, GramData(beta, eig.eigenvalues, mixing)


def verify_inverse_pair_generic(
    k_fwd: KrausSet, k_inv: KrausSet, tol: float = DEFAULT_TOL
) -> InversePairReport:
    """``channels.verify_inverse_pair`` through generic matrix products: the
    composite's sum P* P is summed entrywise from the kernel's P* P products,
    unchecked, as the library keeps an overflowing sum, and compared with I.
    A modulus past the float range is a DomainError, as a non-finite entry is."""
    n_inv = len(k_inv.operators)
    n_fwd = len(k_fwd.operators)
    alpha_entries = [0j] * (n_inv * n_fwd)
    max_residual = 0.0
    square_sum = 0.0
    gram = [0j] * 4
    try:
        for b in range(n_inv):
            for a in range(n_fwd):
                prod = mul(k_inv.operators[b], k_fwd.operators[a])
                coeff = trace(prod) / 2.0
                residual = max_abs_diff(prod, scale(_I2, coeff))
                max_residual = max(max_residual, residual)
                alpha_entries[b * n_fwd + a] = coeff
                gram_term = blochiso._kernels.matmul(2, 2, adjoint(prod).entries, 2, prod.entries)
                gram = [x + y for x, y in zip(gram, gram_term)]
        tp_deviation = max(abs(x - y) for x, y in zip(gram, _I2.entries))
    except OverflowError as exc:
        raise DomainError("matrix entries must be finite") from exc
    for coeff in alpha_entries:
        square_sum += coeff.real * coeff.real + coeff.imag * coeff.imag
    half_weight = (gram[0] + gram[3]).real / 2.0
    infidelity = 1.0 - square_sum / half_weight if half_weight > 0.0 else 1.0
    valid = tp_deviation <= tol and infidelity <= _deficit_bound(tol)
    return InversePairReport(
        valid,
        ComplexMatrix(n_inv, n_fwd, tuple(alpha_entries)),
        square_sum,
        max_residual,
        infidelity,
        tp_deviation,
    )


# The eigensolver before its pivot table and its trusted values: the kernel
# and the factorization verbatim, so their results can be compared bit for bit.
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
    if m.rows != m.cols:
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


def factor_hermitian(m: ComplexMatrix) -> HermitianEigenResult:
    """The library's factorization of a square ``m``, as ``ChoiMatrix`` runs
    it on a matrix it has checked Hermitian: symmetrized, then
    ``matrix._hermitian_eig``."""
    return _hermitian_eig(m.rows, [(a + b) * 0.5 for a, b in zip(m.entries, adjoint(m).entries)])


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
# matmul kernel, and each diagram a chain of such values. Rotations come back
# as their validated rows and density operators as their validated matrix;
# tests/test_trusted_geometry.py compares the library with these bit for bit.


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


def euler_rodrigues_reference(w, x, y, z):
    """The Euler-Rodrigues rotation of the quaternion (w, x, y, z) / |q|,
    off-diagonal zeros made +0.0, as ``Rotation3(...)`` keeps it."""
    ww, xx, yy, zz = w * w, x * x, y * y, z * z
    s = 2.0 / (ww + xx + yy + zz)
    return rotation_reference(
        (
            (1.0 - s * (yy + zz), s * (x * y - w * z) + 0.0, s * (x * z + w * y) + 0.0),
            (s * (x * y + w * z) + 0.0, 1.0 - s * (xx + zz), s * (y * z - w * x) + 0.0),
            (s * (x * z - w * y) + 0.0, s * (y * z + w * x) + 0.0, 1.0 - s * (xx + yy)),
        )
    )


def rotation_from_axis_angle_reference(aa):
    """The Euler-Rodrigues rotation of (cos(a/2), sin(a/2) n)."""
    s = sin(aa.angle / 2.0)
    n1, n2, n3 = aa.axis
    return euler_rodrigues_reference(cos(aa.angle / 2.0), s * n1, s * n2, s * n3)


def rodrigues_generic(aa) -> tuple[tuple[float, ...], ...]:
    """Rodrigues form: cos a * I + (1 - cos a) n n^T + sin a [n]_x."""
    n1, n2, n3 = aa.axis
    ca = cos(aa.angle)
    sa = sin(aa.angle)
    k = 1.0 - ca
    return (
        (ca + n1 * n1 * k, n1 * n2 * k - n3 * sa, n1 * n3 * k + n2 * sa),
        (n2 * n1 * k + n3 * sa, ca + n2 * n2 * k, n2 * n3 * k - n1 * sa),
        (n3 * n1 * k - n2 * sa, n3 * n2 * k + n1 * sa, ca + n3 * n3 * k),
    )


def _dot3(u, v) -> float:
    """Summed left to right from 0.0, as built-in ``sum`` did before Python
    3.12 compensated its rounding, so results are the same on every version."""
    return 0.0 + u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def so3_compose_reference(ra, rb):
    columns = tuple(zip(*rb.matrix))
    return rotation_reference(tuple(tuple(_dot3(row, col) for col in columns) for row in ra.matrix))


def so3_apply_reference(rot, r) -> BlochVector:
    v = r.as_tuple()
    return BlochVector(*(_dot3(row, v) for row in rot.matrix))


def phi_inverse_reference(u):
    """The Euler-Rodrigues rotation of U = w I - i (x, y, z) . sigma, each
    quaternion component the average of its two read-offs."""
    a, b, c, d = u.matrix.entries
    return euler_rodrigues_reference(
        (a + d).real / 2.0,
        -(b.imag + c.imag) / 2.0,
        (c.real - b.real) / 2.0,
        (d.imag - a.imag) / 2.0,
    )


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


def det2_reference(m: ComplexMatrix) -> complex:
    return m.at(0, 0) * m.at(1, 1) - m.at(0, 1) * m.at(1, 0)


def axis_angle_from_unitary_reference(u):
    """U = w I - i v . sigma read entry by entry, then so3's logarithm."""
    m = u.matrix
    return _axis_angle(
        (m.at(0, 0) + m.at(1, 1)).real / 2.0,
        -(m.at(0, 1).imag + m.at(1, 0).imag) / 2.0,
        (m.at(1, 0).real - m.at(0, 1).real) / 2.0,
        (m.at(1, 1).imag - m.at(0, 0).imag) / 2.0,
    )


def hermitian_deviation_reference(a: ComplexMatrix) -> float:
    """Largest entrywise deviation from A = A*."""
    if a.rows != a.cols:
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


def verify_state_diagram_reference(r, aa, tol: float = DEFAULT_TOL) -> DiagramReport:
    """The state diagram as a chain of fully checked values: the rotated
    vector, both states and the conjugated state are each validated."""
    rot = Rotation3(rotation_from_axis_angle_reference(aa))
    u = unitary_from_axis_angle_reference(aa)
    path_a = DensityOperator(bloch_to_density_reference(so3_apply_reference(rot, r)))
    rho = DensityOperator(bloch_to_density_reference(r))
    path_b = DensityOperator(su2_conjugate_reference(u, rho))
    dev = max_abs_diff(path_a.matrix, path_b.matrix)
    return DiagramReport(dev, dev <= tol, path_a, path_b)


def verify_group_diagram_reference(aa_list, tol: float = DEFAULT_TOL) -> DiagramReport:
    """The group diagram as a chain of fully checked values: every partial
    product of the word is a validated unitary and a validated rotation."""
    if not aa_list:
        raise DomainError("need at least one axis-angle")
    u_total = unitary_from_axis_angle_reference(aa_list[0])
    r_total = Rotation3(rotation_from_axis_angle_reference(aa_list[0]))
    for aa in aa_list[1:]:
        u_total = su2_compose_reference(u_total, unitary_from_axis_angle_reference(aa))
        rot = Rotation3(rotation_from_axis_angle_reference(aa))
        r_total = Rotation3(so3_compose_reference(r_total, rot))
    dropped = Rotation3(phi_inverse_reference(u_total))
    dev = max(
        abs(x - y) for ra, rb in zip(dropped.matrix, r_total.matrix) for x, y in zip(ra, rb)
    )
    return DiagramReport(dev, dev <= tol, dropped, r_total)


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
    caller builds the unitary and the rotation to lift from plain values.
    Returns every value the library hands back, ``negate(u)`` last."""
    r, aa, u_entries, word, lift_rows = inputs
    state = verify_state_diagram(r, aa)
    u = Unitary2(ComplexMatrix(2, 2, u_entries))
    negated = negate(u)
    plus, minus = phi_inverse(u), phi_inverse(negated)
    group = verify_group_diagram(word)
    lift = phi(Rotation3(lift_rows))
    return state, plus, minus, group, lift, negated


def unitarity_deviation_generic(m: ComplexMatrix) -> float:
    """Largest entrywise deviation of M* M from the identity."""
    return max_abs_diff(mul(adjoint(m), m), identity(m.rows))


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
    eig = hermitian_eig_reference(s)
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


def make_depolarizing(p: float) -> KrausSet:
    """Channel rho -> p rho + (1 - p) I / 2 in its four-operator form."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"depolarizing parameter must lie in [0, 1], got {p!r}")
    q = 1.0 - p
    ops = (
        scale(_I2, sqrt(1.0 - 0.75 * q)),
        scale(PAULIS[0], sqrt(0.25 * q)),
        scale(PAULIS[1], sqrt(0.25 * q)),
        scale(PAULIS[2], sqrt(0.25 * q)),
    )
    return KrausSet(ops)


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
    (
        "classify_roundoff_unitary_tol.json",
        ["classify", "--tol", "1e-16", "kraus_roundoff_unitary.json"],
    ),
    (
        "bloch_action_roundoff_unitary_tol.json",
        ["bloch-action", "--tol", "1e-16", "kraus_roundoff_unitary.json"],
    ),
    (
        "convert_rotation_half_turn_to_unitary.json",
        ["convert", "--to", "unitary", "rotation_half_turn.json"],
    ),
    (
        "convert_rotation_half_turn_to_axis_angle.json",
        ["convert", "--to", "axis_angle", "rotation_half_turn.json"],
    ),
]

# The whole stdout of usage errors whose argparse words or meaning vary by
# Python release, the same on every Python: an unknown subcommand, a second
# ``--`` (3.13.13 runs ``classify``), an invalid choice in a subcommand's
# parser, each in Python 3.10 to 3.13.0's words; and a second ``--`` after
# ``verify``'s mode, a document as on 3.13.13 (3.10 to 3.13.0 dropped it).
_COMMANDS = "(choose from 'convert', 'classify', 'verify', 'bloch-action')"
_MODES = "(choose from 'diagram', 'double-cover', 'group', 'inverse-pair')"
USAGE_ERROR_STDOUT = {
    tuple(argv): b'{"error":{"code":"malformed_input","detail":"%s"}}\n' % detail.encode()
    for argv, detail in [
        (["frobnicate"], f"argument command: invalid choice: 'frobnicate' {_COMMANDS}"),
        (["--", "--", "classify"], f"argument command: invalid choice: '--' {_COMMANDS}"),
        (["verify"], "the following arguments are required: mode"),
        (["verify", "frob"], f"argument mode: invalid choice: 'frob' {_MODES}"),
        (["verify", "group", "--", "--", "D"], "cannot read --: No such file or directory"),
    ]
}

# A two-operator unitary conjugation with TP deviation 3.1e-17 and Choi
# spectrum (2.0, 0.0, -5.2e-18, -1.57e-16): at --tol 1e-16 its roundoff
# eigenvalue once read as a failed positivity check (NotCptp, exit 2).
ROUNDOFF_UNITARY_OPS = [
    [
        [[-0.31314843423461786, -0.6812272125570971], [-0.07727121920841441, 0.1817177235281021]],
        [[-0.1860395759567645, -0.06619251120797451], [-0.28922176181954556, -0.6917248220802137]],
    ],
    [
        [[0.5241343913358012, -0.3135048825639902], [-0.1539548574888297, -0.04659507408607021]],
        [[0.037243192915324116, -0.15648048969428807], [0.5347398120650055, -0.295051698800557]],
    ],
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
        "kraus_roundoff_unitary.json": _golden_doc("kraus", {"operators": ROUNDOFF_UNITARY_OPS}),
        # The exact half turn 2 n n^T - I about n = (0.6, -0.8, 0): the lift
        # has w = 0, and the axis printed is the one whose largest component
        # is positive, (-0.6, 0.8, 0).
        "rotation_half_turn.json": _golden_doc(
            "rotation", {"matrix": [[-0.28, -0.96, 0], [-0.96, 0.28, 0], [0, 0, -1]]}
        ),
    }


def resolve_golden_argv(argv: list[str]) -> list[str]:
    """``argv`` with each bare input name made a path into golden/inputs."""
    inputs = GOLDEN_DIR / "inputs"
    return [str(inputs / a) if (inputs / a).is_file() else a for a in argv]


def run_golden_case(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(resolve_golden_argv(argv))
    return code, buffer.getvalue()
