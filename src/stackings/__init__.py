"""Stackable structures on finitely generated groups.

Normal forms via stacking reduction, van Kampen diagrams via the seashell
recursion, bounded flow functions from complete rewriting systems and from
almost-convex shortlex structures, and verification of the flow-function
axioms on finite Cayley-graph balls.
"""

from .builtin import (
    ACReport,
    almost_convexity_check,
    bs1p_alphabet,
    bs1p_structure,
    crs_structure,
    expsum_x0,
    shortlex_ac_structure,
    thompson_alphabet,
    thompson_f_in_C,
)
from .cayley import (
    Ball,
    DirectedEdge,
    EdgeKind,
    FunctionOracle,
    GroupElement,
    NormalFormOracle,
    alpha,
    ball_to_json,
    build_ball,
    classify,
    free_group_oracle,
    tree_path,
)
from .errors import (
    AlmostConvexityError,
    BudgetExceededError,
    DiagramError,
    FormatError,
    OutsideExploredRegionError,
    StackingsError,
    StructureError,
)
from .rewriting import (
    CompletenessReport,
    RewriteRule,
    RewritingSystem,
    bs12_system,
    check_complete,
    is_irreducible,
    load_rewriting_system,
    minimize,
    prefix_rewrite_length,
    prefix_rewrite_step,
    reduce_to_irreducible,
    word_problem,
    z2_system,
)
from .stacking import (
    FlowFunction,
    FlowReport,
    GeodesicReport,
    StackingStructure,
    s_phi_membership,
    stacking_reduce,
    stacking_reduce_steps,
    stacking_relation_set,
    verify_flow_properties,
    verify_geodesic_stacking,
    word_problem_via_stacking,
)
from .vankampen import (
    ValidationReport,
    VanKampenDiagram,
    area,
    build_filling_diagram,
    degenerate_diagram,
    export_diagram,
    import_diagram,
    recursive_diagram,
    seashell_glue,
    validate_diagram,
)
from .words import (
    Alphabet,
    Presentation,
    Word,
    cyclic_rotations,
    load_presentation,
    parse_sections,
    symmetrize,
)

__version__ = "0.1.0"
