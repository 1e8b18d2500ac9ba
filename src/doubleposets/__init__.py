"""Exact combinatorics of double posets.

Double posets (one vertex set, two partial orders) with their two
composition products, the ideal coproduct, the picture pairing, the
plane and WN subfamilies, and the operad of indexed WN posets.  All
arithmetic is exact (ints and Fractions); every public value is
immutable and every function pure.
"""

from .core import (
    BasisNotIotaClosedError,
    BudgetExceededError,
    CycleError,
    DoublePoset,
    EmptyInputError,
    EmptyListError,
    LabelError,
    NotHConnectedError,
    NotPlaneError,
    NotWNError,
    PosetError,
    RangeError,
    SizeMismatchError,
    automorphism_count,
    canonical_form,
    canonical_key,
    comparability_counts,
    connected_components,
    crown_poset,
    induced_subposet,
    involution,
    is_connected,
    is_forest,
    is_plane,
    is_wn,
    n_shape_completions,
    new_double_poset,
    new_single_poset,
    plane_completions,
    plane_total_order,
    relabel,
    wn_completions,
)
from .products import (
    FactorizationResult,
    IndecomposabilityClass,
    classify,
    compose_g,
    compose_h,
    compose_many,
    factor_blocks,
    factorize,
    twoas_decomposition_tree,
    evaluate_tree,
)
from .hopf import (
    LinComb,
    TensorComb,
    coproduct,
    deconcat_coproduct_g,
    extend_bilinear,
    ideals,
    reduced_coproduct,
)
from .pairing import (
    NondegeneracyReport,
    PairingMatrix,
    integer_matrix_rank,
    nondegeneracy_check,
    pairing_matrix,
    pictures_count,
    pictures_count_bruteforce,
    xy_order,
)
from .enumeration import (
    PosetFamily,
    SequenceReport,
    catalan_numbers,
    count_family,
    enumerate_family,
    schroeder_coefficients,
    sequence_check,
)
from .twoas import (
    IndexedWNPoset,
    b_mn,
    binfty_bracket,
    compose_by_expansion,
    indexed_poset,
    operad_compose,
    phi,
    shift_labels,
    star,
)
from .textio import (
    ParseError,
    format_double_poset,
    format_indexed_poset,
    format_lincomb,
    format_single_poset,
    format_tensorcomb,
    parse_double_poset,
    parse_indexed_poset,
    parse_single_poset,
    to_dot,
    to_json,
)

from .core import EMPTY  # noqa: E402
