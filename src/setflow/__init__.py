"""Support-function calculus and set-valued dynamics in the plane.

Convex compact subsets of R^2 are identified with their support functions
sampled on an equally spaced grid of unit directions.  The package provides
the resulting discrete calculus (Minkowski algebra, Hausdorff distances,
projections, halfplane reconstruction), the sup-norm duality machinery
(extremal sets, semi-inner product), Hukuhara differences and differential
classification of sampled set curves, and fixed-step integration of set
dynamics on the support cone with feasibility and uniqueness diagnostics.
"""

from .duality import (
    DiscreteMeasure,
    dual_representatives,
    extremal_sets,
    hausdorff_realizing_directions,
    semi_inner,
)
from .dynamics import (
    RhsField,
    Trajectory,
    constant_field,
    exact_flow,
    existence_horizon,
    expansion_field,
    integrate,
    integrate_stack,
    lipschitz_estimate,
    osl_check,
    relax_to,
    relaxation_closed_form,
    relaxation_curve,
    subtangent_feasible,
)
from .errors import (
    AsymmetricDistance,
    ConfigError,
    Contained,
    EmptyIntersection,
    GridMismatch,
    NegativeScalar,
    NonFiniteValue,
    NotInCone,
    SetflowError,
    ZeroFunction,
)
from .hukuhara import (
    HukuharaClass,
    SetCurve,
    classify_curve,
    classify_step,
    difference_quotients,
    hukuhara_difference,
    second_type_differential,
    time_reverse,
)
from .sampling import (
    ball_draws,
    perturb_in_ball,
    random_cone_sample,
    random_rectangle,
)
from .support import (
    ConvexPolygon,
    DirectionGrid,
    SupportDelta,
    SupportSample,
    cone_margins,
    cone_residual,
    farthest_realizer,
    halfplane_intersection,
    hausdorff_exact,
    hausdorff_grid,
    hausdorff_onesided,
    is_in_cone,
    project_point,
    reconstruct_polygon,
    regularize,
    support_of_polygon,
)

__version__ = "0.1.0"
