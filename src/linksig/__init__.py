"""SU(2) representation invariants and multivariable signatures of
two-component links, with closed-form coverage of the (2,2l)-torus family.
"""

from .chebyshev import eval_T, eval_U, roots_U
from .errors import (
    BadSystemError,
    DegeneratePhiError,
    FitFailureError,
    LinksigError,
    NotDefinedError,
    NullityWarning,
    OmegaOneError,
    PositiveOnlyError,
    TransversalityFailureError,
    ZeroLinkingError,
)
from .pillowcase import (
    CurveSample,
    PillowPoint,
    SignedIntersection,
    gamma_theta_chebyshev,
    gamma_theta_quaternion,
    intersections,
    sample_curve,
)
from .signature import (
    Inertia,
    SeifertSystem,
    build_H,
    inertia,
    levine_tristram_via_cf,
    seifert_from_json,
    seifert_system,
    seifert_to_json,
    sigma_eval,
    sigma_torus_closed,
    symmetrized_sigma,
    torus_seifert,
)
from .su2 import ColoredBraidWord, UnitQuaternion, act, closure_linking_number
from .torus_rep import (
    AnglePair,
    RationalAngle,
    alexander_eval,
    angle_pair,
    conway_potential_torus,
    h_invariant,
    is_defined,
    rep_count,
    solve_phi,
    torus_braid,
)
from .verify import (
    check_mod4_congruence,
    check_sigma_jump_dichotomy,
    region_grid,
    sweep_main_identity,
)

__version__ = "0.1.0"
