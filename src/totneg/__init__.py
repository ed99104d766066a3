"""Exact certification of totally negative / totally non-positive matrices.

The package decides, over exact rational arithmetic, whether a matrix (or an
entire entrywise interval hull of matrices) has all its minors up to a given
order negative or non-positive, using several independent characterizations
(minor enumeration, contiguous-minor reduction, sign non-reversal, variation
diminution, and linear complementarity) that cross-validate each other.
"""

from .checks import (
    TN,
    TNP,
    AlphaChoice,
    ClassQuery,
    Verdict,
    Violation,
    ViolationKind,
    check_by_contiguous_minors,
    check_by_minor_definition,
    check_tn_snr_single_vector,
    check_tn_vd_single_vector,
    check_tnp_snr,
    check_tnp_vd,
    sign_non_reversal,
    vd_check,
)
from .errors import DimensionError, ResourceLimitError
from .hull import (
    HullVerdict,
    IntervalHull,
    c_plus_minus,
    hull_is_totally_negative,
    hull_is_totally_nonpositive,
    i_matrix,
)
from .lcp import (
    LCPInstance,
    LCPSolutionSet,
    SolutionFamily,
    TnpLcpReport,
    TnpLcpStatus,
    lcp_single_vector_check,
    lcp_single_vector_check_variant,
    solve_lcp,
    tnp_lcp_sufficient_check,
)
from .matrix import (
    ExactMatrix,
    MinorRecord,
    adjugate,
    cofactor_minor,
    contiguous_minors_up_to,
    det,
    minor_det,
    minors_up_to,
    parse_lcp_input,
    parse_matrix,
    parse_matrix_pair,
    submatrix,
    to_fraction,
)
from .signs import (
    SignProfile,
    alternating_signature,
    is_alternating_orthant,
    is_mixed_orthant,
    s_minus,
    s_plus,
    sign_profile,
)

__version__ = "0.1.0"
