"""Exact toolkit for commuting probabilities via branching matrices.

Builds finite groups from generators, computes conjugacy classes,
centralizers and z-classes of commuting tuples, constructs integer
branching matrices, counts simultaneous conjugacy classes exactly, and
carries the symbolic degree calculus for the bundled reductive-group
matrices.
"""

from .branching import (
    BranchingMatrix,
    TypeRegistry,
    branching_matrix,
    branching_submatrix,
    tuple_z_type,
    verify_structure,
)
from .conjugacy import (
    ClassPartition,
    ConjugacyClass,
    ZClass,
    centralizer,
    commuting_tuple,
    conjugacy_classes,
    subgroup_conjugate,
    z_classes,
)
from .counting import (
    FamilyAsymptote,
    FamilySpec,
    RatioReport,
    asymptotic_ratio,
    class_count,
    class_count_sequence,
    commuting_count,
    commuting_tuple_total,
    cp,
    family_asymptote,
    family_base,
    family_max_abelian,
    family_order,
    lie_type_estimate,
    max_abelian,
    oracle_class_count,
)
from .errors import ToolkitError
from .fields import Field, field_create
from .groups import (
    FiniteGroup,
    GroupElement,
    Subgroup,
    center,
    group_generate,
    matrix_element,
    permutation_element,
)
from .groupspec import (
    CORPUS_NAMES,
    GroupSpec,
    build_group,
    corpus_group,
    corpus_spec,
    load_group_spec,
    parse_group_spec,
)
from .symbolic import (
    PsiMatrix,
    PsiPoly,
    cp_bounds,
    degree_window,
    degree_windows,
    diagonal_degree_interval,
    export_grid,
    first_column_degree,
    fixture,
    import_grid,
    max_entry_degree,
    maxplus_walk,
    psi_matrix_from_exponents,
    verify_symbolic_structure,
)

__version__ = "0.1.0"
