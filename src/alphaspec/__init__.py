"""Spectral radius toolkit for the alpha matrix of strongly connected digraphs.

The package computes certified spectral radii (power iteration with
Collatz-Wielandt enclosures), builds the extremal digraph families, evaluates
their closed-form radii, and verifies the extremal statements exhaustively at
small order.
"""
from .digraph import (
    DegreeProfile,
    Digraph,
    NotStronglyConnected,
    arc_connectivity,
    clique_number,
    code_of_digraph,
    degree_profile,
    digraph_from_code,
    from_arcs,
    from_text,
    girth,
    induced,
    is_isomorphic,
    is_strongly_connected,
    join,
    to_text,
    union,
    vertex_connectivity,
)
from .families import (
    b_nd,
    build_family,
    c_ng,
    circulant,
    complete,
    cycle,
    g0,
    h4,
    k_nkm,
    path,
    tournament,
)
from .formulas import (
    knkm_quadratic,
    knkm_quotient_entries,
    lambda_knkm,
    max_vertex_conn_radius,
    second_max_radius,
)
from .oracle import (
    ExtremalReport,
    Problem41Report,
    ScanStats,
    VerificationVerdict,
    explore_problem_4_1,
    extremal_scan,
    run_scan,
    subdivision_sweep,
    verify_theorem,
)
from .spectral import (
    AlphaMatrix,
    ConvergenceError,
    QuotientMatrix,
    SpectralResult,
    alpha_matrix,
    batch_cw_radius,
    collatz_wielandt_bounds,
    quotient_matrix,
    spectral_radius,
    spectral_radius_general,
)
from .transforms import TransformRecord, redirect_in_arcs, subdivide_arc

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # digraph
    "Digraph",
    "DegreeProfile",
    "NotStronglyConnected",
    "from_arcs",
    "from_text",
    "to_text",
    "is_strongly_connected",
    "girth",
    "clique_number",
    "vertex_connectivity",
    "arc_connectivity",
    "degree_profile",
    "union",
    "join",
    "induced",
    "is_isomorphic",
    "digraph_from_code",
    "code_of_digraph",
    # spectral
    "AlphaMatrix",
    "QuotientMatrix",
    "SpectralResult",
    "ConvergenceError",
    "alpha_matrix",
    "collatz_wielandt_bounds",
    "spectral_radius",
    "spectral_radius_general",
    "quotient_matrix",
    "batch_cw_radius",
    # families
    "path",
    "cycle",
    "complete",
    "c_ng",
    "b_nd",
    "k_nkm",
    "tournament",
    "g0",
    "h4",
    "circulant",
    "build_family",
    # formulas
    "lambda_knkm",
    "knkm_quadratic",
    "knkm_quotient_entries",
    "second_max_radius",
    "max_vertex_conn_radius",
    # transforms
    "TransformRecord",
    "redirect_in_arcs",
    "subdivide_arc",
    # oracle
    "run_scan",
    "ScanStats",
    "extremal_scan",
    "ExtremalReport",
    "verify_theorem",
    "VerificationVerdict",
    "explore_problem_4_1",
    "Problem41Report",
    "subdivision_sweep",
]
