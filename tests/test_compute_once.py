"""Each channel fact is computed once per value.

The eigensolve, Choi-table, chi-pass, adjoint and validated-construction
counts are exact, so they gate regressions without timing noise. The cache tests check that what
a ``KrausSet`` or ``ChoiMatrix`` keeps never changes an answer, an equality,
a hash or a repr.
"""

import collections
import contextlib
import hashlib
import io
import json
import random

import pytest

import blochiso._kernels
import blochiso.channels
import blochiso.matrix
import blochiso.so3
import blochiso.su2
from blochiso.bloch import BlochVector, DensityOperator
from blochiso.channels import (
    ChannelKind,
    ChoiMatrix,
    KrausSet,
    _choi_entries,
    _rank,
    bloch_affine_action,
    choi_of,
    classify,
    extract_unitary_via_gram,
    invert,
    kraus_from_choi,
    verify_inverse_pair,
)
from blochiso.cli import main
from blochiso.errors import DomainError, InvalidChannelError, NotUnitaryConjugationError
from blochiso.matrix import ComplexMatrix, adjoint, scale
from blochiso.sampling import redundant_unitary_kraus, su2_haar
from blochiso.so3 import AxisAngle, Rotation3
from blochiso.su2 import Unitary2, _chi
from helpers import (
    GOLDEN_DIR,
    amplitude_damping,
    chi_matrix,
    geometry_inputs,
    hermitian_eig_reference,
    identity,
    make_depolarizing,
    random_cptp_kraus,
    run_geometry_case,
)
from test_closed_forms import channel_sets

I2 = identity(2)


@pytest.fixture
def eigensolves(monkeypatch):
    """Sizes of the matrices handed to the Jacobi kernel, one per call."""
    sizes = []
    kernel = blochiso._kernels.jacobi_hermitian

    def counted(n, a):
        sizes.append(n)
        return kernel(n, a)

    monkeypatch.setattr(blochiso._kernels, "jacobi_hermitian", counted)
    return sizes


def kraus_doc(tmp_path, k: KrausSet) -> str:
    ops = [
        [[[op.at(i, j).real, op.at(i, j).imag] for j in range(2)] for i in range(2)]
        for op in k.operators
    ]
    path = tmp_path / "kraus.json"
    path.write_text(
        json.dumps({"schema_version": "1", "kind": "kraus", "payload": {"operators": ops}}),
        encoding="utf-8",
    )
    return str(path)


class TestEigensolveCounts:
    def test_unitary_classify_invert_verify(self, eigensolves):
        k = redundant_unitary_kraus(random.Random(5), 3)[0]
        assert classify(k).kind is ChannelKind.UNITARY_CONJUGATION
        assert verify_inverse_pair(k, invert(k)).valid
        # None: the purity decides, and the unitary is the Bloch rotation's.
        assert eigensolves == []

    @pytest.mark.parametrize(
        "k", [make_depolarizing(0.5), amplitude_damping(0.3)], ids=["depolarizing", "damping"]
    )
    def test_non_invertible_channel(self, eigensolves, k):
        # None (was 1, chi's): the rank a refused channel prints is an
        # inertia count.
        assert classify(k).kind is ChannelKind.CPTP_NOT_INVERTIBLE
        assert eigensolves == []

    def test_non_trace_preserving_set(self, eigensolves):
        assert classify(KrausSet((scale(I2, 2.0),))).kind is ChannelKind.NOT_CPTP
        assert eigensolves == []

    def test_cli_classify_unitary(self, eigensolves, tmp_path):
        path = kraus_doc(tmp_path, redundant_unitary_kraus(random.Random(6), 3)[0])
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["classify", path]) == 0
        assert json.loads(out.getvalue())["kind"] == "UnitaryConjugation"
        assert eigensolves == []

    def test_cli_convert_to_choi(self, eigensolves):
        # Only the entries are printed, so the spectrum is never read.
        path = str(GOLDEN_DIR / "inputs" / "kraus_damping.json")
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["convert", "--to", "choi", path]) == 0
        assert json.loads(out.getvalue())["kind"] == "choi"
        assert eigensolves == []

    def test_choi_of_factors_on_the_first_read_only(self, eigensolves):
        j = choi_of(amplitude_damping(0.3))
        assert eigensolves == []
        assert _rank(j.spectrum.eigenvalues) == 2
        assert eigensolves == [4]


@pytest.fixture
def choi_tables(monkeypatch):
    """Calls of ``channels._choi_entries``, the Choi matrix's table."""
    calls = []
    build = blochiso.channels._choi_entries

    def counted(k):
        calls.append(len(k.operators))
        return build(k)

    monkeypatch.setattr(blochiso.channels, "_choi_entries", counted)
    return calls


# A channel of each verdict; TestSweepAndReplayCounts counts their sweeps and
# inertia counts.
VERDICTS = {
    "unitary": (redundant_unitary_kraus(random.Random(50), 3)[0], ChannelKind.UNITARY_CONJUGATION),
    "depolarizing": (make_depolarizing(0.5), ChannelKind.CPTP_NOT_INVERTIBLE),
    "damping": (amplitude_damping(0.3), ChannelKind.CPTP_NOT_INVERTIBLE),
    "not-tp": (KrausSet((scale(I2, 2.0),)), ChannelKind.NOT_CPTP),
}


class TestChoiTableCounts:
    """classify reads every fact off one chi matrix: the purity, the lift
    and a refused channel's rank. The Choi table is choi_of's alone."""

    @pytest.mark.parametrize("k, kind", VERDICTS.values(), ids=VERDICTS)
    def test_classify_builds_none(self, choi_tables, k, kind):
        assert classify(KrausSet(k.operators)).kind is kind  # a copy keeps no verdict
        assert choi_tables == []

    def test_invert_and_verify_build_none(self, choi_tables):
        k = KrausSet(VERDICTS["unitary"][0].operators)
        assert verify_inverse_pair(k, invert(k)).valid
        assert choi_tables == []

    @pytest.mark.parametrize("k", [k for k, _ in VERDICTS.values()], ids=VERDICTS)
    def test_choi_of_builds_one(self, choi_tables, k):
        choi_of(k)
        assert choi_tables == [len(k.operators)]


@pytest.fixture
def kernel_calls(monkeypatch):
    """The Jacobi sweeps, ("sweep", n), and the inertia counts of chi,
    ("count",), in the order they are called."""
    calls = []
    sweep, count = blochiso._kernels.jacobi_hermitian, blochiso.channels._chi_rank

    def counted_sweep(n, a):
        calls.append(("sweep", n))
        return sweep(n, a)

    def counted_count(chi, floor):
        calls.append(("count",))
        return count(chi, floor)

    monkeypatch.setattr(blochiso._kernels, "jacobi_hermitian", counted_sweep)
    monkeypatch.setattr(blochiso.channels, "_chi_rank", counted_count)
    return calls


class TestSweepAndReplayCounts:
    """A sweep-only count, named for the split of the sweep and the
    eigenvector replay it once gated; the replay is folded back into the
    sweep. A refused verdict's rank is one inertia count and no sweep (was
    one sweep); each caller that reads eigenvectors makes one sweep (was one
    sweep and one replay)."""

    @pytest.mark.parametrize("k, kind", VERDICTS.values(), ids=VERDICTS)
    def test_classify(self, kernel_calls, k, kind):
        assert classify(KrausSet(k.operators)).kind is kind
        refused = kind is ChannelKind.CPTP_NOT_INVERTIBLE
        assert kernel_calls == ([("count",)] if refused else [])

    def test_checked_choi_matrix(self, kernel_calls):
        m = choi_of(amplitude_damping(0.3)).matrix
        j = ChoiMatrix(m)
        assert kraus_from_choi(j).operators
        assert kernel_calls == [("sweep", 4)]

    def test_kraus_from_choi(self, kernel_calls):
        assert len(kraus_from_choi(choi_of(make_depolarizing(0.5))).operators) == 4
        assert kernel_calls == [("sweep", 4)]

    def test_gram_route(self, kernel_calls):
        k = redundant_unitary_kraus(random.Random(51), 3)[0]
        extract_unitary_via_gram(k)
        assert kernel_calls == [("sweep", 3)]


class CountedOperators(tuple):
    """A Kraus set's operators that count the passes made over them."""

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def counted_copy(k: KrausSet) -> KrausSet:
    """A copy of k, with no verdict kept, whose operators count their passes."""
    copy = KrausSet(k.operators)
    ops = CountedOperators(copy.operators)
    ops.passes = 0
    copy.__dict__["operators"] = ops
    return copy


@pytest.fixture
def chi_passes(monkeypatch):
    """The operators of each ``su2._chi`` pass ``channels`` makes."""
    calls = []

    def counted(operators):
        calls.append(operators)
        return _chi(operators)

    monkeypatch.setattr(blochiso.channels, "_chi", counted)
    return calls


class TestOperatorPasses:
    """Trace preservation and the purity are both read off chi: a verdict,
    the affine action and tp_deviation each make one pass over the
    operators, su2._chi's, whatever they decide (two before sum A* A was
    read off chi). No function of channels sums A* A in a loop of its own."""

    @pytest.mark.parametrize("k, kind", VERDICTS.values(), ids=VERDICTS)
    def test_classify(self, chi_passes, k, kind):
        k = counted_copy(k)
        assert classify(k).kind is kind
        assert chi_passes == [k.operators] and k.operators.passes == 1

    @pytest.mark.parametrize("k, kind", VERDICTS.values(), ids=VERDICTS)
    def test_bloch_affine_action(self, chi_passes, k, kind):
        k = counted_copy(k)
        if kind is ChannelKind.NOT_CPTP:
            with pytest.raises(InvalidChannelError, match="CPTP sets only"):
                bloch_affine_action(k)
        else:
            bloch_affine_action(k)
        assert chi_passes == [k.operators] and k.operators.passes == 1

    @pytest.mark.parametrize("k", [k for k, _ in VERDICTS.values()], ids=VERDICTS)
    def test_tp_deviation(self, chi_passes, k):
        k = counted_copy(k)
        k.tp_deviation()
        assert chi_passes == [k.operators] and k.operators.passes == 1

    @pytest.mark.parametrize("k, kind", VERDICTS.values(), ids=VERDICTS)
    def test_gram_route(self, chi_passes, k, kind):
        # One chi pass decides; an accepted set adds the Gram table's two
        # argument lists, the remix, and the chi of the one remixed operator.
        k = counted_copy(k)
        if kind is ChannelKind.UNITARY_CONJUGATION:
            extract_unitary_via_gram(k)
            first, (remixed,) = chi_passes
            assert remixed.rows == remixed.cols == 2
            assert k.operators.passes == 4
        else:
            with pytest.raises(NotUnitaryConjugationError):
                extract_unitary_via_gram(k)
            (first,) = chi_passes
            assert k.operators.passes == 3
        assert first is k.operators

    def test_the_rest_of_channels_makes_no_chi_pass(self, chi_passes):
        k = counted_copy(VERDICTS["unitary"][0])
        inverse = invert(k)  # the kept verdict: no pass of its own
        assert k.operators.passes == 1
        verify_inverse_pair(k, inverse)
        choi_of(k)
        assert len(chi_passes) == 1 and k.operators.passes == 3


class TestChiIsTheChoiMatrixInAnotherBasis:
    """chi = (B x I) J (B x I)* / 2 for a unitary basis change B (Wood,
    Biamonte and Cory, arXiv:1111.6950), so Tr chi = Tr J / 2, Tr chi^2 =
    Tr J^2 / 4 and the spectrum is J's halved. On channel_sets() the float
    forms agree to 2.2e-16, 1.9e-16 and 1.04e-15, relative to Tr J, Tr J^2
    and J's largest eigenvalue; the bounds leave a factor of 2 to 4."""

    def test_traces_and_spectrum(self):
        sets = channel_sets()
        assert len(sets) == 3069
        for k in sets:
            chi, j = chi_matrix(_chi(k.operators)), _choi_entries(k).entries
            trace_chi = sum(chi[i].real for i in (0, 5, 10, 15))
            trace_j = sum(j[i].real for i in (0, 5, 10, 15))
            assert abs(trace_chi - trace_j / 2.0) <= 4.5e-16 * trace_j
            square_chi = sum(abs(z) ** 2 for z in chi)
            square_j = sum(abs(z) ** 2 for z in j)
            assert abs(square_chi - square_j / 4.0) <= 4.5e-16 * square_j
            spectrum_chi = blochiso._kernels.jacobi_hermitian(4, chi).eigenvalues
            spectrum_j = blochiso._kernels.jacobi_hermitian(4, j).eigenvalues
            gap = max(abs(x - y / 2.0) for x, y in zip(spectrum_chi, spectrum_j))
            assert gap <= 4e-15 * spectrum_j[0]


@pytest.fixture
def validated(monkeypatch):
    """Shapes of the ``ComplexMatrix`` values built through validation."""
    shapes = []
    check = ComplexMatrix.__post_init__

    def counted(self):
        shapes.append((self.rows, self.cols))
        check(self)

    monkeypatch.setattr(ComplexMatrix, "__post_init__", counted)
    return shapes


class TestValueConstructions:
    def test_choi_matrix_makes_one_adjoint(self, monkeypatch):
        m = choi_of(make_depolarizing(0.5)).matrix
        calls = []

        def counted(a):
            calls.append((a.rows, a.cols))
            return adjoint(a)

        monkeypatch.setattr(blochiso.matrix, "adjoint", counted)
        monkeypatch.setattr(blochiso.channels, "adjoint", counted)
        ChoiMatrix(m)
        assert calls == [(4, 4)]

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_unitary_classify_invert_verify(self, validated, count):
        k = redundant_unitary_kraus(random.Random(10 + count), count)[0]
        validated.clear()
        assert verify_inverse_pair(k, invert(k)).valid
        # None: the lifted unitary is built from its quaternion, and
        # Unitary2 checks it; the Choi entries and the pair tables are
        # finite by construction. The README states this count.
        assert validated == []

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_geometry_case_validates_only_the_callers_unitary(self, validated, seed):
        inputs = geometry_inputs(random.Random(seed))
        validated.clear()
        run_geometry_case(inputs)
        # The unitary the caller builds from its entries; every other 2x2
        # value of the diagrams is built by the library. The README states
        # this count.
        assert validated == [(2, 2)]

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_geometry_case_validates_only_the_callers_rotation(self, monkeypatch, seed):
        inputs = geometry_inputs(random.Random(seed))
        checked = []
        check = Rotation3.__post_init__

        def counted(self):
            checked.append(self.matrix)
            check(self)

        monkeypatch.setattr(Rotation3, "__post_init__", counted)
        run_geometry_case(inputs)
        # The rotation to lift; rotation_from_axis_angle, compose and phi_inverse
        # build theirs through Rotation3._built.
        assert checked == [inputs[4]]

    def test_cli_rotation_document_is_checked_once(self, monkeypatch, validated):
        # The decoder checks the nine entries finite and builds the rotation
        # through Rotation3._built, which keeps the orthogonality and det
        # checks; the lift builds its unitary trusted.
        rebuilt = []
        check = Rotation3.__post_init__

        def counted(self):
            rebuilt.append(self.matrix)
            check(self)

        monkeypatch.setattr(Rotation3, "__post_init__", counted)
        path = GOLDEN_DIR / "inputs" / "rotation_half_turn.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["convert", "--to", "unitary", str(path)]) == 0
        assert rebuilt == []
        assert validated == []

    def test_cli_classify_validates_nothing_past_the_decoder(self, validated):
        # The decoder checks the four operators itself and builds them
        # trusted; the factorization checks the Choi entries finite, and the
        # depolarizing channel is not invertible, so no unitary is pinned.
        path = GOLDEN_DIR / "inputs" / "kraus_depolarizing_half.json"
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["classify", str(path)]) == 0
        assert json.loads(out.getvalue())["kind"] == "CptpNotInvertible"
        assert validated == []

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_hermitian_tables_are_not_rechecked(self, monkeypatch, count):
        # The Choi and Gram matrices are Hermitian bit for bit as built, so
        # no adjoint and no Hermiticity deviation is taken of them.
        sets = (
            redundant_unitary_kraus(random.Random(20 + count), count)[0],
            random_cptp_kraus(random.Random(30 + count), count),
        )
        calls = []
        for name in ("adjoint", "max_abs_diff"):
            for module in (blochiso.matrix, blochiso.channels):
                original = getattr(module, name)

                def counted(*args, name=name, original=original):
                    calls.append((name, args[0].rows, args[0].cols))
                    return original(*args)

                monkeypatch.setattr(module, name, counted)
        for k in sets:
            classify(k)
            choi_of(k)
        assert calls == []

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_pair_products(self, monkeypatch, count):
        products = []
        mul2 = blochiso.channels._mul2

        def counted(x, y):
            products.append(1)
            return mul2(x, y)

        monkeypatch.setattr(blochiso.channels, "_mul2", counted)
        k = redundant_unitary_kraus(random.Random(40 + count), count)[0]
        extract_unitary_via_gram(k)
        # Every product of the Gram table.
        assert len(products) == count * count
        products.clear()
        # B_b A_a is not Hermitian in (b, a): every product is made.
        report = verify_inverse_pair(k, KrausSet(k.operators[:2]))
        assert len(products) == count * min(count, 2)
        assert report.alpha.rows == min(count, 2)

    @pytest.mark.parametrize("k, kind", VERDICTS.values(), ids=VERDICTS)
    def test_classify_forms_no_pair_product(self, monkeypatch, k, kind):
        # Trace preservation sums each A* A inline, and chi reads the entries.
        calls = []
        for name in ("_mul2", "_adjoint2"):
            original = getattr(blochiso.channels, name)

            def counted(*args, name=name, original=original):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(blochiso.channels, name, counted)
        assert classify(KrausSet(k.operators)).kind is kind
        assert calls == []

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_invert_makes_no_generic_adjoint(self, monkeypatch, count):
        # U* is the closed 2x2 form of the lifted unitary.
        k = redundant_unitary_kraus(random.Random(60 + count), count)[0]
        calls = []

        def counted(a):
            calls.append((a.rows, a.cols))
            return adjoint(a)

        monkeypatch.setattr(blochiso.matrix, "adjoint", counted)
        monkeypatch.setattr(blochiso.channels, "adjoint", counted)
        (inverse,) = invert(k).operators
        assert calls == []
        assert repr(inverse) == repr(adjoint(classify(k).extracted_unitary))

    def test_non_hermitian_input_is_still_refused(self, tmp_path):
        skewed = [[1.0 + 0j if r == c else 0j for c in range(4)] for r in range(4)]
        skewed[0][1] = 1e-3j
        path = tmp_path / "choi.json"
        rows = [[[z.real, z.imag] for z in row] for row in skewed]
        path.write_text(
            json.dumps({"schema_version": "1", "kind": "choi", "payload": {"matrix": rows}}),
            encoding="utf-8",
        )
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["convert", str(path), "--to", "kraus"]) == 2
        detail = json.loads(out.getvalue())["error"]["detail"]
        assert detail == "invalid choi document: Choi matrix must be Hermitian"
        m = ComplexMatrix(4, 4, tuple(z for row in skewed for z in row))
        with pytest.raises(InvalidChannelError, match="^Choi matrix must be Hermitian$"):
            ChoiMatrix(m)

    def test_choi_of_overflow_still_raises(self):
        k = KrausSet((ComplexMatrix(2, 2, (1e160, 0j, 0j, 1e160)),))
        with pytest.raises(DomainError, match="^matrix entries must be finite$"):
            choi_of(k)


@pytest.fixture
def geometry_checks(monkeypatch):
    """Calls of each check a geometry value runs, by name."""
    counts = collections.Counter()

    def count(owner, name):
        original = getattr(owner, name)
        key = f"{owner.__name__}.{name}"

        def counted(*args):
            counts[key] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    count(blochiso.su2.Unitary2, "__post_init__")
    count(blochiso.su2, "unitarity_deviation")
    count(blochiso.su2, "det2")
    count(blochiso.so3, "_check_rotation")
    count(DensityOperator, "__post_init__")
    count(BlochVector, "__post_init__")
    count(AxisAngle, "__post_init__")
    return counts


@pytest.fixture
def checked_values(monkeypatch):
    """What each value check ran on, in call order: the ``Unitary2`` or
    ``DensityOperator`` itself, or the rows of a rotation."""
    seen = []

    def record(owner, name):
        original = getattr(owner, name)

        def recorded(value):
            seen.append(value)
            return original(value)

        monkeypatch.setattr(owner, name, recorded)

    record(blochiso.su2.Unitary2, "__post_init__")
    record(DensityOperator, "__post_init__")
    record(blochiso.so3, "_check_rotation")
    return seen


class TestGeometryChecks:
    """Every check of a geometry value runs, however fast its closed form.

    The rule: each value a public function returns is validated once, and
    so is each value a caller builds. The products inside the diagram
    checks are plain tuples, checked by the diagram's own deviation. The
    README states these counts.
    """

    # No BlochVector: the diagrams build none. No AxisAngle: the case's
    # inputs are built beforehand.
    PER_CASE = {
        "Unitary2.__post_init__": 3,
        "blochiso.su2.unitarity_deviation": 3,
        "blochiso.su2.det2": 3,
        "blochiso.so3._check_rotation": 5,
        "DensityOperator.__post_init__": 2,
    }

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_geometry_case(self, geometry_checks, seed):
        inputs = geometry_inputs(random.Random(seed))
        geometry_checks.clear()
        run_geometry_case(inputs)
        assert geometry_checks == self.PER_CASE

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_each_returned_value_is_checked_once(self, checked_values, seed):
        inputs = geometry_inputs(random.Random(seed))
        checked_values.clear()
        state, plus, minus, group, lift, negated = run_geometry_case(inputs)
        returned = [
            state.path_a_result,
            state.path_b_result,
            plus.matrix,
            minus.matrix,
            negated,
            group.path_a_result.matrix,
            group.path_b_result.matrix,
            lift,
        ]
        for value in returned:
            assert [seen for seen in checked_values if seen is value] == [value]
        # The rest are the caller's two inputs, its unitary and its rotation.
        callers = [seen for seen in checked_values if not any(seen is v for v in returned)]
        assert [type(callers[0]), callers[0].matrix.entries, callers[1]] == [
            Unitary2,
            inputs[2],
            inputs[4],
        ]
        assert len(checked_values) == len(returned) + 2

    def test_requests_from_plain_numbers(self, geometry_checks):
        # As the benchmark's request builds them: the Bloch vector and the
        # four axis-angles from plain numbers, then the same diagram checks.
        rng = random.Random(10)
        plain = []
        for _ in range(200):
            r, aa, u_entries, word, lift_rows = geometry_inputs(rng)
            word = [(w.axis, w.angle) for w in word]
            plain.append((r.as_tuple(), (aa.axis, aa.angle), u_entries, word, lift_rows))
        geometry_checks.clear()
        for r, aa, u_entries, word, lift_rows in plain:
            inputs = (BlochVector(*r), AxisAngle(*aa), u_entries, [AxisAngle(*w) for w in word])
            run_geometry_case(inputs + (lift_rows,))
        expected = collections.Counter({name: 200 * n for name, n in self.PER_CASE.items()})
        expected.update({"BlochVector.__post_init__": 200, "AxisAngle.__post_init__": 800})
        assert geometry_checks == expected


class TestCacheSafety:
    def test_new_tolerance_is_classified_afresh(self):
        # Trace preservation fails by about 2e-6: not CPTP at 1e-9, a
        # unitary conjugation at 1e-3.
        u = su2_haar(random.Random(8)).matrix
        k = KrausSet((scale(u, 1.0 + 1e-6),))
        assert classify(k, 1e-9).kind is ChannelKind.NOT_CPTP
        loose = classify(k, 1e-3)
        assert loose.kind is ChannelKind.UNITARY_CONJUGATION
        assert loose == classify(KrausSet(k.operators), 1e-3)
        assert classify(k, 1e-9).kind is ChannelKind.NOT_CPTP

    def test_kraus_set_value_unchanged_by_classification(self):
        k = redundant_unitary_kraus(random.Random(9), 2)[0]
        twin = KrausSet(k.operators)
        before = (repr(k), hash(k))
        classify(k)
        invert(k)
        assert (repr(k), hash(k)) == before
        assert k == twin and twin == k
        assert hash(k) == hash(twin)

    def test_choi_matrix_value_excludes_its_spectrum(self):
        j = choi_of(make_depolarizing(0.25))
        same = ChoiMatrix(j.matrix)
        assert j == same and hash(j) == hash(same)
        assert repr(j) == f"ChoiMatrix(matrix={j.matrix!r})"
        assert repr(j.spectrum) == repr(hermitian_eig_reference(j.matrix))

    def test_kraus_from_choi_bytes(self):
        rng = random.Random(91)
        parts = [
            repr(kraus_from_choi(choi_of(random_cptp_kraus(rng, count))))
            for count in (1, 2, 3, 4)
            for _ in range(3)
        ]
        # Recorded when kraus_from_choi ran its own eigensolve.
        expected = "58f8ef2c35d7acdfd2946681e2eb749ea747af3b24c5ededce683e350ff1b7f1"
        assert hashlib.sha256("\n".join(parts).encode()).hexdigest() == expected
