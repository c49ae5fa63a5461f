"""Trace-positivity toolkit for noncommutative polynomials.

Certifies that a self-adjoint noncommutative polynomial is cyclically
equivalent to a sum of hermitian squares (so its trace is nonnegative on
every Hermitian matrix tuple), or produces the countervailing evidence: a
pseudo-moment witness with negative pairing, or an explicit matrix tuple
with negative normalized trace.  A truncated GNS construction rebuilds
operators from moment data for independent verification.
"""

from .algebra import (
    NCPoly,
    concat,
    cyclic_canonical,
    evaluate,
    involute_word,
    normalized_trace,
    pair,
    star_product,
    words_up_to,
)
from .certify import (
    Certificate,
    DualWitness,
    GramProblem,
    InfeasibilityReport,
    SolverStalled,
    build_gram_problem,
    certify_sos,
    dual_witness,
    falsify,
    validate_witness,
    verify_certificate,
)
from .gns import (
    GnsModel,
    ModelRejected,
    gns_build,
    norm_bound_check,
    unitary_group,
    verify_moments,
    verify_trace_property,
)
from .moments import (
    MatrixTuple,
    MomentSequence,
    as_matrix_tuple,
    check_w_membership,
    growth_radius,
    moment_matrix,
    moment_sequence,
    psd_check,
)
from .parsing import PolyParseError, format_poly, format_polys, parse_poly
from .sdp import (
    ClassConstraints,
    SolveReport,
    feasibility_solve,
    minimize_linear,
    project_affine,
    project_psd,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ClassConstraints",
    "DualWitness",
    "GnsModel",
    "GramProblem",
    "InfeasibilityReport",
    "MatrixTuple",
    "ModelRejected",
    "MomentSequence",
    "NCPoly",
    "PolyParseError",
    "SolveReport",
    "SolverStalled",
    "as_matrix_tuple",
    "build_gram_problem",
    "certify_sos",
    "check_w_membership",
    "concat",
    "cyclic_canonical",
    "dual_witness",
    "evaluate",
    "falsify",
    "feasibility_solve",
    "format_poly",
    "format_polys",
    "gns_build",
    "growth_radius",
    "involute_word",
    "minimize_linear",
    "moment_matrix",
    "moment_sequence",
    "norm_bound_check",
    "normalized_trace",
    "pair",
    "parse_poly",
    "project_affine",
    "project_psd",
    "psd_check",
    "star_product",
    "unitary_group",
    "validate_witness",
    "verify_certificate",
    "verify_moments",
    "verify_trace_property",
    "words_up_to",
]
