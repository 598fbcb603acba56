"""Bloch-sphere geometry, the rotation/unitary correspondence, and
reversibility analysis of qubit channels."""

from .bloch import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PAULIS,
    BlochVector,
    DensityOperator,
    bloch_to_density,
    density_to_bloch,
)
from .channels import (
    BlochAffineAction,
    ChannelClassification,
    ChannelKind,
    ChoiMatrix,
    GramData,
    InversePairReport,
    KrausSet,
    bloch_affine_action,
    choi_of,
    classify,
    extract_unitary_via_gram,
    invert,
    kraus_from_choi,
    verify_inverse_pair,
)
from .errors import (
    DimensionError,
    DomainError,
    InvalidChannelError,
    NonStateError,
    NotInvertibleError,
    NotUnitaryConjugationError,
)
from .isomorphism import (
    DiagramReport,
    phi,
    phi_inverse,
    verify_group_diagram,
    verify_state_diagram,
)
from .matrix import (
    DEFAULT_TOL,
    ComplexMatrix,
    HermitianEigenResult,
    adjoint,
    max_abs_diff,
    scale,
)
from .so3 import AxisAngle, Rotation3, axis_angle_from_rotation, rotation_from_axis_angle
from .su2 import Unitary2, axis_angle_from_unitary, normalize_phase, unitary_from_axis_angle

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Name of the matrix kernel implementation; there is one, in Python."""
    return "python"
