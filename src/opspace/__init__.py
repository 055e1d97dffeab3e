"""Concrete operator spaces and executable metric characterizations.

The package represents finite-dimensional subspaces of complex matrix spaces
with their inherited matrix norms and turns metric characterizations of
unitaries, coisometries/isometries, operator systems, positive elements,
adjoints and multiplication-closed subspaces into decision procedures that
return certified witnesses or bounded-budget "no violation found" reports.
"""

__version__ = "0.1.0"

from .criteria import (
    HOLDS_WITHIN_BUDGET,
    INCONCLUSIVE,
    UNSUPPORTED_LEVEL,
    VIOLATED,
    CheckReport,
    check_adjoint,
    check_algebra_product,
    check_coisometry,
    check_cstar_among_systems,
    check_isometry,
    check_left_multiplier_map,
    check_mult_closed,
    check_multiplier,
    check_operator_system,
    check_positive,
    check_unitary_four_rotation,
    check_unitary_t_gadget,
)
from .errors import (
    InvalidInputError,
    NumericalError,
    OpspaceError,
    ShapeError,
    SpaceFormatError,
    UnsupportedLevelError,
)
from .matcore import block, dagger, op_norm, rand_cmat, scalar_amplify, stream, trace_norm
from .spaces import (
    LevelElement,
    SpaceRep,
    apply_involution,
    load_space,
    load_space_file,
    make_space,
    membership_residual,
    norm,
    realize,
    space_to_json,
)
from .witness import SearchConfig, SearchResult, maximize_violation, refine_witness

__all__ = [name for name in dir() if not name.startswith("_")]
