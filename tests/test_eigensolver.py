"""The eigensolver path gives the reference eigensolver's bytes.

``helpers`` keeps the Jacobi kernel and the factorization as they were before
the kernel walked a pivot table and the factorization built its eigenvector
matrix without re-validation. Both perform the same IEEE-754 operations in
the same order, so on every Hermitian input each eigenvalue and eigenvector
entry is the reference's bit for bit, and every such input the reference
rejects raises the same exception with the same message. A matrix whose sum of squared
entries over- or underflows is compared against the reference run on the
copy scaled by the same exact power of two, eigenvalues scaled back.

``channels._chi_rank``, the inertia count a refused ``classify`` prints,
counts the eigenvalues of chi above a floor with no eigensolve: it is
checked against the count of the factorization's eigenvalues above the same
floor, on the channel families the verdict tests use and at the edges of
its domain, where it needs no range scaling.
"""

import random
import struct

import pytest

from blochiso import _kernels
from blochiso.channels import (
    ChannelKind,
    ChoiMatrix,
    KrausSet,
    _chi_deficit,
    _chi_rank,
    _deficit_bound,
    _rank_floor,
    _trace_gate,
    classify,
)
from blochiso.errors import DomainError, InvalidChannelError
from blochiso.matrix import ComplexMatrix, _hermitian_eig, adjoint, scale
from blochiso.sampling import su2_haar
from blochiso.su2 import _chi
from helpers import (
    amplitude_damping,
    chi_matrix,
    factor_hermitian,
    hermitian_eig_reference,
    jacobi_hermitian_reference,
    jacobi_hermitian_rescaled_reference,
    make_depolarizing,
    mul,
    rescale_shift,
)
from test_channels import near_unitary, nudged
from test_closed_forms import channel_sets

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
        got = _kernels.jacobi_hermitian(n, entries)
        assert kernel_bits(got) == kernel_bits(jacobi_hermitian_rescaled_reference(n, entries))


def test_out_of_range_cases_are_rescaled():
    # 20 cases whose sum of squares overflows, 2 (n = 1, entries near 1e-320)
    # whose sum underflows to 0; the unscaled reference gets 16 of them wrong.
    shifts = [rescale_shift(entries) for n in SIZES for entries in cases(n)]
    assert len(shifts) == 408
    assert sum(s > 0 for s in shifts) == 20
    assert sum(s < 0 for s in shifts) == 2
    changed = sum(
        kernel_bits(_kernels.jacobi_hermitian(n, e)) != kernel_bits(jacobi_hermitian_reference(n, e))
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


def test_eigenvalue_beyond_the_float_range_raises_domain_error(monkeypatch):
    # Every entry 8e307: each is finite and so is A + A, so the kernel sweeps
    # the copy scaled by a power of two, and the eigenvalue 3 x = 2.4e308 is
    # past the float range as it is scaled back.
    calls = []
    kernel = _kernels.jacobi_hermitian

    def counted(n, a):
        calls.append(n)
        return kernel(n, a)

    monkeypatch.setattr(_kernels, "jacobi_hermitian", counted)
    with pytest.raises(DomainError, match="^matrix entries must be finite$"):
        factor_hermitian(ComplexMatrix(3, 3, (8e307 + 0j,) * 9))
    assert calls == [3]


@pytest.mark.parametrize("n", SIZES)
def test_hermitian_eig_matches_reference(n):
    matrices = [ComplexMatrix(n, n, tuple(e)) for e in cases(n)] + edges(n)
    refused = 0
    for m in matrices:
        want = eig_outcome(hermitian_eig_reference, m)
        assert eig_outcome(factor_hermitian, m) == want
        refused += isinstance(want[0], type)
    assert refused == 1


@pytest.mark.parametrize("n, x", [(2, 1e308), (4, 8e307)], ids=["entry", "eigenvalue"])
def test_eigenvalues_alone_raise_as_the_factorization(n, x):
    # Named for the eigenvalues-only factorization it once compared with this
    # one. Every entry x: A + A overflows at 1e308. At 8e307 it is finite and
    # the kernel sweeps the rescaled copy, but the eigenvalue 4 x is past the
    # float range.
    with pytest.raises(DomainError, match="^matrix entries must be finite$"):
        _hermitian_eig(n, [complex(x)] * (n * n))


def eigenvalue_count(chi: tuple, floor: float) -> int:
    """The factorization's eigenvalues of chi above floor."""
    return sum(1 for ev in _hermitian_eig(4, chi_matrix(chi)).eigenvalues if ev > floor)


def largest_floor_count(chi: tuple, tol: float) -> int:
    """The count above delta(tol) / 12 of the largest eigenvalue, the floor
    the printed rank was measured against before it moved to the trace."""
    spectrum = _hermitian_eig(4, chi_matrix(chi)).eigenvalues
    floor = _deficit_bound(tol) / 12.0 * spectrum[0]
    return sum(1 for ev in spectrum if ev > floor)


def rotated_channels(rng: random.Random, count: int) -> list[KrausSet]:
    """Amplitude damping turned by a Haar unitary V, {V K V*}, and
    depolarizing sets, in turn: the refused classes of a seeded mix."""
    sets = []
    for i in range(count):
        if i % 2:
            sets.append(make_depolarizing(0.95 * rng.random()))
            continue
        v = su2_haar(rng).matrix
        k = amplitude_damping(0.05 + 0.9 * rng.random())
        sets.append(KrausSet(tuple(mul(mul(v, op), adjoint(v)) for op in k.operators)))
    return sets


def refused_chis(sets: list[KrausSet], tol: float) -> list[tuple]:
    """chi of each set classify refuses at tol, by its own two gates."""
    out = []
    for k in sets:
        chi = _chi(k.operators)
        trace, dev = _trace_gate(chi)
        if dev <= tol and _chi_deficit(chi, trace) > _deficit_bound(tol):
            out.append(chi)
    return out


def chi_floor(chi: tuple, tol: float) -> float:
    """The floor classify counts chi's eigenvalues above, at the trace the
    trace gate sums."""
    return _rank_floor(_trace_gate(chi)[0], tol)


def diagonal_chi(d0: float, d1: float, d2: float, d3: float) -> tuple:
    return (d0, 0j, 0j, 0j, d1, 0j, 0j, d2, 0j, d3)


class TestInertiaCount:
    """The count equals the factorization's count above the same floor, so
    the printed rank has one meaning whichever way it is computed."""

    def test_is_the_eigenvalue_count(self):
        sets = channel_sets() + [near_unitary(10.0 ** (-i / 4.0)) for i in range(65)]
        sets += rotated_channels(random.Random(99), 1000)
        refused, moved = {}, {}
        for tol in (1e-9, 1e-15, 1e-3, 0.3):
            chis = refused_chis(sets, tol)
            refused[tol], moved[tol] = len(chis), 0
            for chi in chis:
                floor = chi_floor(chi, tol)
                count = _chi_rank(chi, floor)
                assert count == eigenvalue_count(chi, floor)
                # The floor moved from the largest eigenvalue to the trace.
                moved[tol] += count != largest_floor_count(chi, tol)
        # At 1e-15 the trace gate decides on roundoff: read off chi, it moved
        # seven sets across, and one refused set fewer passes it (was 1439).
        assert refused == {1e-9: 1423, 1e-15: 1438, 1e-3: 1399, 0.3: 297}
        assert moved == {1e-9: 0, 1e-15: 0, 1e-3: 0, 0.3: 16}

    @pytest.mark.parametrize(
        "diagonal",
        [(0.0, -0.0, 1.0, -0.0), (-0.0, 0.0, 0.0, -1.0), (-0.0, 2.0, -0.0, 0.0)],
        ids=["one", "minus-one", "two"],
    )
    def test_signed_zero_diagonals(self, diagonal):
        # Zeros of either sign tie, and the floor is delta / 12 of a trace
        # of either sign.
        chi = diagonal_chi(*diagonal)
        floor = chi_floor(chi, 1e-9)
        assert _chi_rank(chi, floor) == eigenvalue_count(chi, floor)

    @pytest.mark.parametrize(
        "chi, floor, count",
        [
            # A diagonal entry on the floor makes the pivot after it 0 / 0
            # unguarded; an off-diagonal entry makes it e^2 / 0.
            (diagonal_chi(0.5, 0.25, 0.125, 0.125), 0.25, 1),
            ((0.25, 0.125 + 0.0625j, 0j, 0j, 0.5, 0j, 0j, 0.125, 0j, 0.125), 0.25, 1),
        ],
        ids=["zero-pivot", "zero-pivot-off-diagonal"],
    )
    def test_a_pivot_on_the_floor_counts_as_below_it(self, chi, floor, count):
        assert _chi_rank(chi, floor) == count == eigenvalue_count(chi, floor)

    def test_loosest_refusing_tolerance(self):
        # Refusing needs 2 tol < deficit <= 3/4, so tol < 3/8; at 0.37 the
        # trace gate lets Tr chi reach 1 +- 0.36, and every refused chi is
        # rank 4 (an eigenvalue at the floor 0.74 / 12 Tr caps the deficit
        # at 0.71).
        depolarizing = make_depolarizing(0.01).operators
        for weight in (1.36, 0.64, 1.0):
            k = KrausSet(tuple(scale(op, weight**0.5) for op in depolarizing))
            result = classify(k, 0.37)
            assert result.kind is ChannelKind.CPTP_NOT_INVERTIBLE
            assert result.choi_rank == 4
            (chi,) = refused_chis([k], 0.37)
            floor = chi_floor(chi, 0.37)
            assert _chi_rank(chi, floor) == eigenvalue_count(chi, floor) == 4

    @pytest.mark.parametrize("tiny", [1e-170, 1e-310], ids=["1e-170", "subnormal"])
    def test_tiny_entries_need_no_scaling(self, tiny):
        # A damping pair whose |0><1| entry of K0 is tiny puts tiny entries
        # before chi's largest off-diagonal one: at 1e-310 the reflection's
        # leading entry is subnormal. A depolarizing set with that entry has
        # a column of tiny entries only, whose reflection drops it.
        for k in (nudged(amplitude_damping(0.3), tiny), nudged(make_depolarizing(0.5), tiny)):
            (chi,) = refused_chis([k], 1e-9)
            floor = chi_floor(chi, 1e-9)
            assert _chi_rank(chi, floor) == eigenvalue_count(chi, floor)


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
