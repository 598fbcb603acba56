"""Unit tests for the dense-matrix kernel layer."""

import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import blochiso
import blochiso._kernels
import blochiso.matrix
from blochiso.channels import ChoiMatrix
from blochiso.errors import DimensionError, DomainError, InvalidChannelError
from blochiso.matrix import ComplexMatrix, adjoint, max_abs_diff, scale
from helpers import (
    add,
    expm_taylor,
    factor_hermitian,
    from_rows,
    identity,
    mul,
    random_hermitian,
    random_matrix,
    to_rows,
    trace,
    zeros,
)

SIGMA_X = from_rows([[0, 1], [1, 0]])


def diag(*values):
    n = len(values)
    return ComplexMatrix(
        n, n, tuple(complex(values[i]) if i == j else 0j for i in range(n) for j in range(n))
    )


def reconstruct_eig(result):
    lam = diag(*result.eigenvalues)
    return mul(mul(result.eigenvectors, lam), adjoint(result.eigenvectors))


class TestAlgebra:
    def test_trace_identity(self):
        assert trace(identity(2)) == 2 + 0j

    def test_add_sub_scale(self):
        a = from_rows([[1, 2], [3, 4]])
        b = from_rows([[5, 6], [7, 8]])
        assert to_rows(add(a, b)) == [[6, 8], [10, 12]]
        assert scale(a, 2j).at(1, 1) == 8j

    def test_mul_known(self):
        assert to_rows(mul(SIGMA_X, SIGMA_X)) == to_rows(identity(2))

    def test_adjoint_involution(self):
        rng = random.Random(5)
        a = random_matrix(rng, 3)
        assert adjoint(adjoint(a)) == a

    def test_shape_mismatch(self):
        a = identity(2)
        b = identity(3)
        with pytest.raises(DimensionError):
            add(a, b)
        with pytest.raises(DimensionError):
            mul(a, b)
        with pytest.raises(DimensionError):
            max_abs_diff(a, b)

    def test_max_abs_diff_past_the_float_range_is_inf(self):
        # The difference 1.3e308 (1 + i) is finite and its modulus is not:
        # abs() raised a bare OverflowError. A finite modulus keeps its bits.
        c = 0.65e308
        a = ComplexMatrix(1, 2, (complex(c, c), 1e300 + 0j))
        b = ComplexMatrix(1, 2, (complex(-c, -c), -1e300 + 0j))
        assert max_abs_diff(a, b) == float("inf")
        assert max_abs_diff(b, b) == 0.0
        x = ComplexMatrix(1, 1, (0.6e308 + 0.6e308j,))
        y = ComplexMatrix(1, 1, (-0.6e308 + 0j,))
        assert max_abs_diff(x, y) == abs(x.entries[0] - y.entries[0])

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            ComplexMatrix(1, 1, (complex(float("nan"), 0),))

    @pytest.mark.parametrize("rows, cols, entries", [(0, 2, ()), (2, 2, (1, 2, 3))])
    def test_rejects_a_bad_shape(self, rows, cols, entries):
        with pytest.raises(DimensionError):
            ComplexMatrix(rows, cols, entries)

    @given(
        st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
        st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
    )
    def test_trace_cyclic(self, a_entries, b_entries):
        a = ComplexMatrix(2, 2, tuple(a_entries))
        b = ComplexMatrix(2, 2, tuple(b_entries))
        assert abs(trace(mul(a, b)) - trace(mul(b, a))) <= 1e-12


def test_one_python_kernel_reached_through_module_attributes(monkeypatch):
    # blochbench stamps kernel_backend() on every result and wraps the
    # kernels by module attribute; the call-count tests patch them the same way.
    assert blochiso.kernel_backend() == "python"
    calls = []
    original = blochiso._kernels.jacobi_hermitian

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(blochiso._kernels, "jacobi_hermitian", counted)
    factor_hermitian(SIGMA_X)
    assert calls == [2]
    # The library defines no generic product: its products are the closed
    # 2x2 forms, and only the kernels module, whose matmul the test oracles
    # and the benchmark's tracer use, names the reference product.
    package = Path(blochiso.__file__).parent
    naming = sorted(p.name for p in package.glob("*.py") if "matmul" in p.read_text("utf-8"))
    assert naming == ["_kernels.py"]
    for name in ("mul", "add", "trace"):
        assert not hasattr(blochiso.matrix, name)
        assert not hasattr(blochiso, name)
    assert not hasattr(ComplexMatrix, "zeros")


class TestHermitianEig:
    def test_already_diagonal(self):
        result = factor_hermitian(diag(3, 1))
        assert result.eigenvalues == (3.0, 1.0)
        assert result.eigenvectors == identity(2)

    def test_sigma_x_spectrum(self):
        # Characteristic polynomial lambda^2 - 1.
        result = factor_hermitian(SIGMA_X)
        assert abs(result.eigenvalues[0] - 1.0) <= 1e-12
        assert abs(result.eigenvalues[1] + 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reconstruction(self, n):
        rng = random.Random(100 + n)
        for _ in range(20):
            h = random_hermitian(rng, n)
            result = factor_hermitian(h)
            assert max_abs_diff(reconstruct_eig(result), h) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orthonormal_columns(self, n):
        rng = random.Random(200 + n)
        h = random_hermitian(rng, n)
        v = factor_hermitian(h).eigenvectors
        assert max_abs_diff(mul(adjoint(v), v), identity(n)) <= 1e-12

    def test_descending_order(self):
        rng = random.Random(7)
        for _ in range(20):
            evs = factor_hermitian(random_hermitian(rng, 4)).eigenvalues
            assert all(evs[i] >= evs[i + 1] for i in range(3))

    def test_psd_eigenvalues_nonnegative(self):
        rng = random.Random(8)
        for _ in range(20):
            g = random_matrix(rng, 3)
            psd = mul(adjoint(g), g)
            evs = factor_hermitian(psd).eigenvalues
            assert evs[-1] >= -1e-9

    def test_phase_convention(self):
        rng = random.Random(9)
        v = factor_hermitian(random_hermitian(rng, 4)).eigenvectors
        for k in range(4):
            col = [v.at(i, k) for i in range(4)]
            first = next(z for z in col if abs(z) > 1e-12)
            assert first.imag == pytest.approx(0.0, abs=1e-12)
            assert first.real > 0

    # The factorization's one caller with unchecked input, ChoiMatrix,
    # refuses what is not a Hermitian square before factoring it.
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidChannelError, match="^Choi matrix must be Hermitian$"):
            ChoiMatrix(from_rows([[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))

    def test_rejects_rectangular(self):
        with pytest.raises(InvalidChannelError, match="^Choi matrix must be 4x4$"):
            ChoiMatrix(zeros(4, 3))


class TestAgainstLapack:
    """Cross-checks against numpy's LAPACK bindings (test-only dependency)."""

    def test_eigenvalues_match_numpy(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(401)
        for n in (2, 3, 4):
            for _ in range(10):
                h = random_hermitian(rng, n)
                ours = factor_hermitian(h).eigenvalues
                theirs = sorted(
                    np.linalg.eigvalsh(np.array(to_rows(h))), reverse=True
                )
                for a, b in zip(ours, theirs):
                    assert abs(a - b) <= 1e-10


class TestExpmTaylor:
    """The series oracle in ``helpers`` that the closed forms are checked against."""

    def test_zero_matrix(self):
        assert expm_taylor(zeros(2, 2), 30) == identity(2)

    def test_needs_at_least_one_term(self):
        with pytest.raises(DomainError):
            expm_taylor(identity(2), 0)

    def test_scalar_case(self):
        from cmath import exp

        m = ComplexMatrix(1, 1, (0.3 + 0.4j,))
        assert abs(expm_taylor(m, 40).at(0, 0) - exp(0.3 + 0.4j)) <= 1e-14
