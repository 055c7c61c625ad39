"""Desk-scale laboratory for monochromatic tight paths in layered-graph
hypergraphs: random host construction, proper-cycle enumeration and
counting, the greedy tight-path builder with audited certificates, and
Monte Carlo property verification."""

# set before the submodules load: ``reporting`` reads it while this package initializes
__version__ = "0.1.0"

from .bounds import (
    ExpectedStats,
    chernoff_lower,
    chernoff_upper,
    expected_stats,
    poly_concentration_scale,
)
from .cycles import (
    TightHypergraph,
    TrashFamily,
    build_hypergraph,
    count_cycles_meeting,
    count_family_extensions,
    count_proper_cycles,
    count_restricted_extensions,
    cycles_per_vertex,
    cycles_through_vertex,
    trash_family,
    validate_tight_path,
    validate_tight_path_verbose,
)
from .errors import (
    InvariantViolationError,
    ParameterError,
    ResourceLimitError,
    UnknownVertexError,
)
from .greedy import (
    Certificate,
    CertificateAudit,
    Coloring,
    FoundPath,
    adversarial_coloring,
    audit_certificate,
    greedy_round,
    pick_majority_color,
    random_coloring,
    run_outer,
)
from .layered_graph import (
    CanonicalParams,
    GraphParams,
    LayeredGraph,
    canonical_params,
    complete_layered,
    generate_random,
)
from .oracle import (
    ArrowResult,
    SearchResult,
    Verdict,
    arrow_check,
    brute_force_cycles,
    tight_path_exists,
)
from .verifier import (
    EPSILON_GRID,
    ConcentrationReport,
    PropertyReport,
    RatioReport,
    check_property_i,
    check_property_ii,
    check_property_iii,
    concentration_experiment,
    sample_trash_family,
)
