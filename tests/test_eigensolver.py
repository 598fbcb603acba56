"""The eigensolver path gives the reference eigensolver's bytes.

``helpers`` keeps the Jacobi kernel and the factorization as they were before
the kernel walked a pivot table and the factorization built its eigenvector
matrix without re-validation. Both perform the same IEEE-754 operations in
the same order, so on every Hermitian input each eigenvalue and eigenvector
entry is the reference's bit for bit, and every such input the reference
rejects raises the same exception with the same message. A matrix whose sum of squared
entries over- or underflows is compared against the reference run on the
copy scaled by the same exact power of two, eigenvalues scaled back. The
kernel is compared as its sweep's eigenvalues with the eigenvectors its
rotation log replays, and the eigenvalues-only factorization with the full
one.
"""

import random
import struct

import pytest

from blochiso import _kernels
from blochiso.channels import ChoiMatrix, _chi_matrix, _choi_entries
from blochiso.errors import DomainError, InvalidChannelError
from blochiso.matrix import ComplexMatrix, _hermitian_eig, _hermitian_eigenvalues
from blochiso.su2 import _chi
from helpers import (
    factor_hermitian,
    hermitian_eig_reference,
    jacobi_hermitian_reference,
    jacobi_hermitian_rescaled_reference,
    rescale_shift,
)
from test_channels import near_unitary
from test_closed_forms import channel_sets
from test_purity_rule import exact_channels, rounded

SIZES = (1, 2, 3, 4, 5, 6)
SCALES = (1e-160, 1e-100, 1e-30, 1.0, 1e30, 1e100, 1e150)


def gauss_entries(rng: random.Random, count: int) -> list[complex]:
    return [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(count)]


def hermitian_part(n: int, g: list[complex]) -> list[complex]:
    return [(g[i * n + j] + g[j * n + i].conjugate()) * 0.5 for i in range(n) for j in range(n)]


def outer(n: int, v: list[complex], w: float = 1.0) -> list[complex]:
    return [w * v[i] * v[j].conjugate() for i in range(n) for j in range(n)]


def shapes(rng: random.Random, n: int) -> list[list[complex]]:
    """Random Hermitian, rank one, diagonal, degenerate and zero matrices."""
    v = gauss_entries(rng, n)
    diagonal = [complex(rng.gauss(0.0, 1.0)) if i == j else 0j for i in range(n) for j in range(n)]
    repeated = [complex(1.5) if i == j else 0j for i in range(n) for j in range(n)]
    # 2 I + v v*: the eigenvalue 2 has multiplicity n - 1.
    lifted = outer(n, v)
    for i in range(n):
        lifted[i * n + i] += 2.0
    return [
        hermitian_part(n, gauss_entries(rng, n * n)),
        outer(n, v),
        diagonal,
        repeated,
        lifted,
        [0j] * (n * n),
    ]


def cases(n: int) -> list[list[complex]]:
    rng = random.Random(4100 + n)
    out = []
    for base in shapes(rng, n):
        out += [[e * s for e in base] for s in SCALES]
        # Mixed scales: D A D with D's entries drawn across the range, so
        # one matrix holds tiny, unit and huge entries.
        d = [rng.choice(SCALES) for _ in range(n)]
        out.append([base[i * n + j] * (d[i] * d[j]) for i in range(n) for j in range(n)])
    out += [hermitian_part(n, gauss_entries(rng, n * n)) for _ in range(20)]
    return out


def edges(n: int) -> list[ComplexMatrix]:
    """A matrix Hermitian only within the default tolerance, which both
    symmetrize, and one whose finite entries' Hermitian average overflows."""
    rng = random.Random(4200 + n)
    # A deviation from Hermiticity of 5e-10 (n = 1: 1e-9).
    h = hermitian_part(n, gauss_entries(rng, n * n))
    h[n - 1] += 5e-10j
    return [
        ComplexMatrix(n, n, tuple(h)),
        ComplexMatrix(n, n, tuple(complex(1.5e308) for _ in range(n * n))),
    ]


def kernel(n: int, entries):
    """The sweep's eigenvalues and the eigenvectors its rotation log replays."""
    diag, rotations = _kernels.jacobi_hermitian(n, entries)
    return diag, _kernels.jacobi_vectors(n, rotations)


def kernel_bits(result) -> bytes:
    diag, v = result
    flat = [x for z in v for x in (z.real, z.imag)]
    return struct.pack(f"{len(diag)}d{len(flat)}d", *diag, *flat)


def eig_bits(result) -> tuple:
    vectors = result.eigenvectors
    return (vectors.rows, vectors.cols, kernel_bits((result.eigenvalues, vectors.entries)))


def eig_outcome(function, m: ComplexMatrix):
    try:
        return eig_bits(function(m))
    except Exception as exc:  # compared, type included, against the reference's
        return type(exc), str(exc)


@pytest.mark.parametrize("n", SIZES)
def test_kernel_matches_reference(n):
    for entries in cases(n):
        got = kernel(n, entries)
        assert kernel_bits(got) == kernel_bits(jacobi_hermitian_rescaled_reference(n, entries))


def test_out_of_range_cases_are_rescaled():
    # 20 cases whose sum of squares overflows, 2 (n = 1, entries near 1e-320)
    # whose sum underflows to 0; the unscaled reference gets 16 of them wrong.
    shifts = [rescale_shift(entries) for n in SIZES for entries in cases(n)]
    assert len(shifts) == 408
    assert sum(s > 0 for s in shifts) == 20
    assert sum(s < 0 for s in shifts) == 2
    changed = sum(
        kernel_bits(kernel(n, e)) != kernel_bits(jacobi_hermitian_reference(n, e))
        for n in SIZES
        for e in cases(n)
        if rescale_shift(e)
    )
    assert changed == 16


@pytest.mark.parametrize("s", [1e155, 1e-165])
def test_spectrum_at_every_scale(s):
    # The sum of squares overflows at 1e155 and underflows to 0 at 1e-165;
    # unscaled, the kernel returned (s, s) and (0, 0).
    top, bottom = factor_hermitian(ComplexMatrix(2, 2, (s, s, s, s))).eigenvalues
    assert abs(top - 2.0 * s) <= 1e-15 * s
    assert abs(bottom) <= 1e-15 * s


def test_eigenvalue_beyond_the_float_range_raises_domain_error():
    with pytest.raises(DomainError, match="matrix entries must be finite"):
        factor_hermitian(ComplexMatrix(2, 2, (1e308, 1e308, 1e308, 1e308)))


@pytest.mark.parametrize("n", SIZES)
def test_hermitian_eig_matches_reference(n):
    matrices = [ComplexMatrix(n, n, tuple(e)) for e in cases(n)] + edges(n)
    refused = 0
    for m in matrices:
        want = eig_outcome(hermitian_eig_reference, m)
        assert eig_outcome(factor_hermitian, m) == want
        refused += isinstance(want[0], type)
    assert refused == 1


def values_outcome(function, n: int, entries):
    try:
        values = function(n, entries)
    except Exception as exc:  # compared, type included, with _hermitian_eig's
        return type(exc), str(exc)
    return struct.pack(f"{len(values)}d", *values)


def factored_values(n: int, entries):
    return _hermitian_eig(n, entries).eigenvalues


def test_eigenvalues_alone_are_the_factorizations():
    # The chi and Choi matrices of every channel family the verdict tests
    # use, and diagonals whose zeros of either sign tie: the sweep's values,
    # sorted as _hermitian_eig sorts them, bits and tie order included.
    sets = channel_sets() + [near_unitary(10.0 ** (-i / 4.0)) for i in range(65)]
    sets += [rounded(ops) for _, ops in exact_channels(random.Random(2508))]
    assert len(sets) == 3069 + 65 + 240
    matrices = [m for k in sets for m in (_chi_matrix(_chi(k.operators)), _choi_entries(k).entries)]
    for signs in ((0.0, -0.0, 1.0, -0.0), (-0.0, 0.0, 0.0, -1.0), (-0.0, 2.0, -0.0, 0.0)):
        matrices.append([complex(signs[i]) if i == j else 0j for i in range(4) for j in range(4)])
    ties = 0
    for entries in matrices:
        got = values_outcome(_hermitian_eigenvalues, 4, entries)
        assert got == values_outcome(factored_values, 4, entries)
        ties += len(set(struct.unpack("4d", got))) < 4
    assert ties == 466 + 3


@pytest.mark.parametrize("n, x", [(2, 1e308), (4, 8e307)], ids=["entry", "eigenvalue"])
def test_eigenvalues_alone_raise_as_the_factorization(n, x):
    # Every entry x: A + A overflows at 1e308. At 8e307 it is finite and the
    # kernel sweeps the rescaled copy, but the eigenvalue 4 x is past the
    # float range.
    entries = [complex(x)] * (n * n)
    want = values_outcome(factored_values, n, entries)
    assert want == (DomainError, "matrix entries must be finite")
    assert values_outcome(_hermitian_eigenvalues, n, entries) == want


def test_choi_spectrum_matches_reference():
    for entries in cases(4):
        m = ComplexMatrix(4, 4, tuple(entries))
        want = hermitian_eig_reference(m)
        if want.eigenvalues[-1] < -1e-9 * max(1.0, want.eigenvalues[0]):
            with pytest.raises(InvalidChannelError, match="positive semidefinite"):
                ChoiMatrix(m)
        else:
            assert eig_bits(ChoiMatrix(m).spectrum) == eig_bits(want)


def test_pivot_table_is_built_once_per_size():
    assert _kernels._sweep(5) is _kernels._sweep(5)
    pivots = [(pq // 5, pq % 5) for pq, *_ in _kernels._sweep(5)]
    assert pivots == [(p, q) for p in range(4) for q in range(p + 1, 5)]
