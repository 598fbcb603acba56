"""The library's immutable values behave as the frozen dataclasses they were.

For each value class: the field order, equality and hashing over the
fields, the literal repr, immutability, keyword construction and arity
errors, and which classes validate in ``__post_init__``, where the
benchmark's tracer finds the validations. Equality, hashing and repr are
checked on seeded instances built by the library, and the repr text also on
a fixed instance.
"""

import random
import struct

import pytest

from blochiso import sampling
from blochiso._value import Value
from blochiso.bloch import (
    BlochVector,
    DensityOperator,
    Purity,
    PurityKind,
    SphericalAngles,
    purity,
)
from blochiso.channels import (
    BlochAffineAction,
    ChannelClassification,
    ChannelKind,
    ChoiMatrix,
    CptpDiagnostics,
    GramData,
    InversePairReport,
    KrausSet,
    bloch_affine_action,
    choi_of,
    classify,
    extract_unitary_via_gram,
    invert,
    is_cptp,
    verify_inverse_pair,
)
from blochiso.cli import _build_parser
from blochiso.isomorphism import (
    DiagramReport,
    Su2AlgebraElement,
    phi_inverse,
    psi_inverse,
    verify_state_diagram,
)
from blochiso.matrix import ComplexMatrix, HermitianEigenResult, hermitian_eig
from blochiso.so3 import AxisAngle, Rotation3
from blochiso.su2 import Unitary2
from helpers import fingerprint, random_hermitian

I2 = ComplexMatrix.identity(2)
ONE = ComplexMatrix(1, 1, (1,))
ROT = Rotation3(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
I2_REPR = "ComplexMatrix(rows=2, cols=2, entries=((1+0j), 0j, 0j, (1+0j)))"
ONE_REPR = "ComplexMatrix(rows=1, cols=1, entries=((1+0j),))"
ROT_ROWS = "((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))"


def _kraus(rng):
    return sampling.redundant_unitary_kraus(rng, 3)[0]


def _inverse_pair(rng):
    k = _kraus(rng)
    return verify_inverse_pair(k, invert(k))


# class: (fields, a seeded instance from an rng, a fixed instance, its repr)
VALUES = {
    ComplexMatrix: (
        ("rows", "cols", "entries"),
        lambda rng: sampling.su2_haar(rng).matrix,
        lambda: ComplexMatrix(2, 2, (1, 0.5j, -0.5j, 1)),
        "ComplexMatrix(rows=2, cols=2, entries=((1+0j), 0.5j, (-0-0.5j), (1+0j)))",
    ),
    HermitianEigenResult: (
        ("eigenvalues", "eigenvectors"),
        lambda rng: hermitian_eig(random_hermitian(rng, 2)),
        lambda: HermitianEigenResult((1.0, 0.0), I2),
        f"HermitianEigenResult(eigenvalues=(1.0, 0.0), eigenvectors={I2_REPR})",
    ),
    BlochVector: (
        ("x1", "x2", "x3"),
        sampling.bloch_in_ball,
        lambda: BlochVector(0.5, -0.25, 0),
        "BlochVector(x1=0.5, x2=-0.25, x3=0.0)",
    ),
    SphericalAngles: (
        ("theta", "phi"),
        lambda rng: SphericalAngles(3.0 * rng.random(), 6.0 * rng.random()),
        lambda: SphericalAngles(0.5, 1),
        "SphericalAngles(theta=0.5, phi=1.0)",
    ),
    Purity: (
        ("value", "kind"),
        lambda rng: purity(sampling.density(rng)),
        lambda: Purity(1.0, PurityKind.PURE),
        "Purity(value=1.0, kind=<PurityKind.PURE: 'Pure'>)",
    ),
    DensityOperator: (
        ("matrix",),
        sampling.density,
        lambda: DensityOperator(ComplexMatrix(2, 2, (1, 0, 0, 0))),
        "DensityOperator(matrix=ComplexMatrix(rows=2, cols=2, entries=((1+0j), 0j, 0j, 0j)))",
    ),
    AxisAngle: (
        ("axis", "angle"),
        sampling.axis_angle,
        lambda: AxisAngle((0, 0, 1), 0.5),
        "AxisAngle(axis=(0.0, 0.0, 1.0), angle=0.5)",
    ),
    Rotation3: (
        ("matrix",),
        lambda rng: phi_inverse(sampling.su2_haar(rng)),
        lambda: ROT,
        f"Rotation3(matrix={ROT_ROWS})",
    ),
    Unitary2: (
        ("matrix",),
        sampling.su2_haar,
        lambda: Unitary2(I2),
        f"Unitary2(matrix={I2_REPR})",
    ),
    Su2AlgebraElement: (
        ("vector",),
        lambda rng: psi_inverse(sampling.bloch_in_ball(rng)),
        lambda: Su2AlgebraElement((0.5, 0, -1)),
        "Su2AlgebraElement(vector=(0.5, 0.0, -1.0))",
    ),
    DiagramReport: (
        ("max_deviation", "commutes", "path_a_result", "path_b_result"),
        lambda rng: verify_state_diagram(sampling.bloch_in_ball(rng), sampling.axis_angle(rng)),
        lambda: DiagramReport(0.0, True, ROT, None),
        "DiagramReport(max_deviation=0.0, commutes=True, "
        f"path_a_result=Rotation3(matrix={ROT_ROWS}), path_b_result=None)",
    ),
    KrausSet: (
        ("operators",),
        _kraus,
        lambda: KrausSet((I2,)),
        f"KrausSet(operators=({I2_REPR},))",
    ),
    ChoiMatrix: (
        ("matrix",),
        lambda rng: choi_of(_kraus(rng)),
        lambda: ChoiMatrix(ComplexMatrix(4, 4, (1, 0, 0, 1) + (0,) * 8 + (1, 0, 0, 1))),
        "ChoiMatrix(matrix=ComplexMatrix(rows=4, cols=4, entries=((1+0j), 0j, 0j, (1+0j), "
        "0j, 0j, 0j, 0j, 0j, 0j, 0j, 0j, (1+0j), 0j, 0j, (1+0j))))",
    ),
    CptpDiagnostics: (
        ("is_cptp", "tp_deviation", "choi_min_eigenvalue"),
        lambda rng: is_cptp(_kraus(rng)),
        lambda: CptpDiagnostics(True, 0.0, -0.0),
        "CptpDiagnostics(is_cptp=True, tp_deviation=0.0, choi_min_eigenvalue=-0.0)",
    ),
    ChannelClassification: (
        ("kind", "choi_rank", "extracted_unitary"),
        lambda rng: classify(_kraus(rng)),
        lambda: ChannelClassification(ChannelKind.UNITARY_CONJUGATION, 1, ONE),
        "ChannelClassification(kind=<ChannelKind.UNITARY_CONJUGATION: 'UnitaryConjugation'>, "
        f"choi_rank=1, extracted_unitary={ONE_REPR})",
    ),
    GramData: (
        ("beta", "gamma", "mixing"),
        lambda rng: extract_unitary_via_gram(_kraus(rng))[1],
        lambda: GramData(ONE, (1.0,), ONE),
        f"GramData(beta={ONE_REPR}, gamma=(1.0,), mixing={ONE_REPR})",
    ),
    InversePairReport: (
        ("valid", "alpha", "alpha_square_sum", "max_residual"),
        _inverse_pair,
        lambda: InversePairReport(True, ONE, 1.0, 0.0),
        f"InversePairReport(valid=True, alpha={ONE_REPR}, alpha_square_sum=1.0, max_residual=0.0)",
    ),
    BlochAffineAction: (
        ("matrix", "translation"),
        lambda rng: bloch_affine_action(_kraus(rng)),
        lambda: BlochAffineAction(ROT.matrix, (0.0, 0.0, 0.0)),
        f"BlochAffineAction(matrix={ROT_ROWS}, translation=(0.0, 0.0, 0.0))",
    ),
}

VALIDATING = {
    ComplexMatrix,
    BlochVector,
    SphericalAngles,
    DensityOperator,
    AxisAngle,
    Rotation3,
    Unitary2,
    Su2AlgebraElement,
    KrausSet,
    ChoiMatrix,
}

CLASSES = pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)


def _seeded(cls, seed):
    return VALUES[cls][1](random.Random(seed))


def _fields(value):
    return tuple(getattr(value, name) for name in type(value).__match_args__)


def test_every_value_class_is_covered():
    assert set(Value.__subclasses__()) == set(VALUES) and len(VALUES) == 18


@CLASSES
def test_field_order(cls):
    assert cls.__match_args__ == VALUES[cls][0]


@CLASSES
def test_equality_and_hash_run_over_the_fields(cls):
    for seed in range(3):
        a, b, other = _seeded(cls, seed), _seeded(cls, seed), _seeded(cls, seed + 100)
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b) == hash(_fields(a))
        assert a != other
        assert a.__eq__(_fields(a)) is NotImplemented
        assert a != _fields(a)


@CLASSES
def test_a_subclass_instance_is_never_equal(cls):
    a = _seeded(cls, 1)
    twin = object.__new__(type("Twin", (cls,), {}))
    twin.__dict__.update(a.__dict__)
    assert a != twin and twin != a


@CLASSES
def test_repr_is_the_qualified_name_and_the_fields(cls):
    *_, fixed, text = VALUES[cls]
    assert repr(fixed()) == text
    a = _seeded(cls, 2)
    inner = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__match_args__, _fields(a)))
    assert repr(a) == f"{cls.__qualname__}({inner})"


@CLASSES
def test_assignment_and_deletion_raise(cls):
    a = _seeded(cls, 3)
    before = _fields(a)
    for name in (*cls.__match_args__, "unrelated"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert _fields(a) == before


@CLASSES
def test_keyword_construction_and_arity(cls):
    a = _seeded(cls, 4)
    values = _fields(a)
    assert cls(**dict(zip(cls.__match_args__, values))) == a
    assert cls(*values) == a
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, unrelated=0)


@CLASSES
def test_validating_classes_keep_their_own_post_init(cls):
    assert ("__post_init__" in vars(cls)) == (cls in VALIDATING)


def test_kept_state_stays_out_of_equality_hash_and_repr():
    k = _kraus(random.Random(5))
    fresh = KrausSet(k.operators)
    text = repr(k)
    classify(k)
    assert k._classified is not None and fresh._classified is None
    assert k == fresh and hash(k) == hash(fresh) and repr(k) == text
    choi = choi_of(k)
    assert "spectrum" not in repr(choi)
    assert hash(choi) == hash((choi.matrix,))


def test_fingerprint_tells_negative_zero_apart():
    assert BlochVector(-0.0, 0.0, 1.0) == BlochVector(0.0, 0.0, 1.0)
    assert fingerprint(BlochVector(-0.0, 0.0, 1.0)) != fingerprint(BlochVector(0.0, 0.0, 1.0))
    neg = ComplexMatrix(1, 1, (complex(0.0, -0.0),))
    pos = ComplexMatrix(1, 1, (0j,))
    assert neg == pos and fingerprint(neg) != fingerprint(pos)
    assert fingerprint(pos) == (1, 1, (struct.pack("2d", 0.0, 0.0),))


def test_fingerprint_refuses_other_library_objects():
    assert fingerprint(ChannelKind.NOT_CPTP) is ChannelKind.NOT_CPTP
    with pytest.raises(TypeError):
        fingerprint(_build_parser())
