"""dcquartic: duality certificates for functionals of the form

    J(x) = x^T A x / 2 + sum_j gamma_j/2 (x^T B_j x / 2 + c_j)^2 + f^T x

on R^n.  The library finds primal critical points, lifts them to dual
critical points of the associated D.C. dual, evaluates closed-form
conjugates and dual functionals, classifies critical points (local min /
global min / local max), and verifies the second-order chain identity
and the zero duality gap.  The test suite cross-checks every analytic
quantity against independent finite-difference and brute-force oracles.
"""

__version__ = "0.1.0"

from .errors import (
    AStarEmptyError,
    DegenerateCriticalPointError,
    DimensionMismatchError,
    DualityError,
    LeftCstarError,
    NoConvergenceError,
    NotCase2Error,
    NotConvergedPairError,
    OutsideCstarError,
    ParseError,
    ProbeFailureError,
    SingularMatrixError,
    ValidationError,
)
from .problem import (
    ProblemInstance,
    g1_value,
    g2_value,
    primal_gradient,
    primal_hessian,
    primal_value,
    validate_instance,
)
from .conjugates import (
    J2Result,
    g1_star,
    g2_star,
    in_A_star,
    in_B_star,
    in_C_star,
    j2_star,
    j_star,
    j_tilde_star,
    recover_primal,
)
from .critical import (
    CriticalPair,
    MultistartResult,
    SolveResult,
    dual_stationarity_residual,
    find_critical_pairs,
    find_critical_points,
    lift_to_dual,
    multistart,
    solve_primal_critical,
)
from .curvature import (
    CurvatureBundle,
    build_bundle,
    implicit_sensitivity,
    verify_chain_identity,
)
from .gap import (
    CaseReport,
    GlobalCertificate,
    ProbeEvidence,
    SweepReport,
    classify_case,
    epsilon_sweep,
    global_min_certificate,
    local_extremality_probe,
    local_extremality_probes,
    verify_zero_gap,
)
from .baseline import (
    BaselineReport,
    correspondence_report,
    j1_star,
    search_correspondence_counterexample,
)
from .ensembles import generate_instance, iter_ensemble
from .instancefile import (
    instance_digest,
    instance_to_doc,
    load_instance,
    parse_instance_text,
    serialize_instance,
)
