"""Injective sets in the sup norm, as executable objects.

The package represents subsets of R^n cut out by 1-Lipschitz coordinate
bounds, retracts points onto them by cyclic single-coordinate projections,
extends Lipschitz maps into them, enumerates the extremal functions of a
finite metric space on a grid, and reconstructs bound descriptions from
membership samples.
"""

from .boxset import (
    BoxLipschitzSet,
    DivergenceDetectedError,
    InconsistentBoundsError,
    IterationTrace,
    MaxSweepsExceededError,
    UnsupportedSetError,
    check_decay_certificate,
    cyclic_iterate,
    cyclic_retract,
    cyclic_retract_many,
    detect_noncontraction,
    enclosure_bounds,
    relaxation_order,
    retract,
    retract_lambda_one_bounded,
    retract_lambda_one_bounded_many,
    retract_lambda_one_general,
    retract_lambda_one_general_many,
    set_from_obj,
    set_to_obj,
    shrink_set,
    trace_to_csv,
    truncated_set,
    violation,
    violation_many,
)
from .extension import NotLipschitzError, extend_into_Q, kuratowski_embed
from .hull import enumerate_extremal_grid, is_extremal
from .lipfun import (
    Blend,
    Const,
    DistCone,
    Infinite,
    LipExpr,
    Max,
    McShane,
    Min,
    bounds_of,
    expr_from_obj,
    expr_to_obj,
    lip_bound,
    shrink,
    verify_lipschitz_on_grid,
)
from .metric import (
    ConeDescriptor,
    FiniteMetricSpace,
    as_point,
    as_points,
    check_metric_axioms,
    cone_contains,
    hat,
    hausdorff_distance,
    sup_dist,
)
from .reconstruct import (
    ConeOverlapError,
    ReconstructionConfig,
    ReconstructionReport,
    choose_cone,
    membership_from_samples,
    synthesize_bounds,
    verify_reconstruction,
)

__version__ = "0.1.0"
