"""A NaN tolerance fails every library guard closed.

Each guard is a negated comparison (``if not dev <= tol: raise``), which is
the plain one for any other ``tol`` and is false for a NaN, so an input a
guard rejects at the default tolerance is rejected at NaN too.
"""

import pytest

from blochiso.bloch import BlochVector, bloch_to_density
from blochiso.channels import KrausSet, apply_channel, extract_unitary_via_gram
from blochiso.errors import (
    DomainError,
    InvalidChannelError,
    NonStateError,
    NotUnitaryConjugationError,
)
from blochiso.matrix import DEFAULT_TOL, ComplexMatrix, hermitian_eig, scale
from blochiso.su2 import normalize_phase
from helpers import amplitude_damping

I2 = ComplexMatrix.identity(2)
NORTH = bloch_to_density(BlochVector(0.0, 0.0, 1.0))

GUARDS = {
    "bloch_to_density": (
        lambda tol: bloch_to_density(BlochVector(3.0, 0.0, 0.0), tol),
        NonStateError,
        "exceeds 1",
    ),
    "hermitian_eig": (
        lambda tol: hermitian_eig(ComplexMatrix(2, 2, (1, 5, 0, 1)), tol),
        DomainError,
        "not Hermitian",
    ),
    "normalize_phase": (
        lambda tol: normalize_phase(scale(I2, 2.0), tol),
        DomainError,
        "not unitary",
    ),
    "apply_channel": (
        lambda tol: apply_channel(KrausSet((scale(I2, 2.0),)), NORTH, tol),
        InvalidChannelError,
        "not trace preserving",
    ),
    "extract_unitary_via_gram": (
        lambda tol: extract_unitary_via_gram(amplitude_damping(0.3), tol),
        NotUnitaryConjugationError,
        "proportionality residual",
    ),
}


@pytest.mark.parametrize("tol", [DEFAULT_TOL, float("nan")], ids=["default", "nan"])
@pytest.mark.parametrize("guard", GUARDS)
def test_guard_rejects_at_a_nan_tolerance(guard, tol):
    call, error, message = GUARDS[guard]
    with pytest.raises(error, match=message):
        call(tol)


def test_gram_extraction_of_a_unitary_set_fails_at_a_nan_tolerance():
    # The proportionality guard rejects first, before the Gram eigensolve
    # and the unitarity guards, which compare against max(tol, 1e-7).
    with pytest.raises(NotUnitaryConjugationError, match="proportionality residual"):
        extract_unitary_via_gram(KrausSet((I2,)), float("nan"))
