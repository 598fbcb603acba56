"""A NaN tolerance fails every library guard closed.

Each guard is a negated comparison (``if not dev <= tol: raise``), which is
the plain one for any other ``tol`` and is false for a NaN, so an input a
guard rejects at the default tolerance is rejected at NaN too.
"""

import pytest

from blochiso.bloch import BlochVector, bloch_to_density
from blochiso.channels import KrausSet, bloch_affine_action, extract_unitary_via_gram
from blochiso.errors import (
    DomainError,
    InvalidChannelError,
    NonStateError,
    NotUnitaryConjugationError,
)
from blochiso.matrix import DEFAULT_TOL, scale
from blochiso.su2 import normalize_phase
from helpers import amplitude_damping, identity

I2 = identity(2)

GUARDS = {
    "bloch_to_density": (
        lambda tol: bloch_to_density(BlochVector(3.0, 0.0, 0.0), tol),
        NonStateError,
        "exceeds 1",
    ),
    "bloch_affine_action": (
        lambda tol: bloch_affine_action(KrausSet((scale(I2, 2.0),)), tol),
        InvalidChannelError,
        "CPTP sets only",
    ),
    "extract_unitary_via_gram": (
        lambda tol: extract_unitary_via_gram(amplitude_damping(0.3), tol),
        NotUnitaryConjugationError,
        "proportionality residual",
    ),
}


# normalize_phase takes no tolerance: it holds its input to DEFAULT_TOL, the
# tolerance Unitary2 holds its result to, so it has only the default case.
GUARDS_AT_DEFAULT_ONLY = {
    "normalize_phase": (
        lambda tol: normalize_phase(scale(I2, 2.0)),
        DomainError,
        "not unitary",
    ),
}

CASES = [
    pytest.param(guard, tol, id=f"{guard}-{tol_id}")
    for guard in GUARDS
    for tol, tol_id in ((DEFAULT_TOL, "default"), (float("nan"), "nan"))
] + [
    pytest.param(guard, DEFAULT_TOL, id=f"{guard}-default")
    for guard in GUARDS_AT_DEFAULT_ONLY
]


@pytest.mark.parametrize(("guard", "tol"), CASES)
def test_guard_rejects_at_a_nan_tolerance(guard, tol):
    call, error, message = {**GUARDS, **GUARDS_AT_DEFAULT_ONLY}[guard]
    with pytest.raises(error, match=message):
        call(tol)


def test_gram_extraction_of_a_unitary_set_fails_at_a_nan_tolerance():
    # The trace gate and the purity rule compare against tol and delta(tol),
    # NaN at a NaN tol, so even a unitary set is refused, before the Gram
    # eigensolve.
    with pytest.raises(NotUnitaryConjugationError, match="proportionality residual"):
        extract_unitary_via_gram(KrausSet((I2,)), float("nan"))
