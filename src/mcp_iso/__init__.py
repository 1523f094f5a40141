"""Sharp isoperimetric machinery for one-dimensional weighted spaces.

The package evaluates and inverts the model isoperimetric profile for
non-negative synthetic curvature with a dimension bound, verifies the
defining density ratio inequalities, computes measures / boundary content /
asymptotic volume ratios of weighted intervals, brute-force certifies the
volume-growth boundary bound at desk scale, and instantiates the ray-wise
dimension-reduction argument on rotationally symmetric models.
"""

from .density import (
    ConstantDensity,
    Density,
    MonomialDensity,
    PiecewiseMonomialDensity,
    SharpDensity,
    TabulatedDensity,
    Verdict,
    Witness,
    check_mcp_density,
    density_from_dict,
    minimal_mcp_dimension,
)
from .errors import (
    BracketError,
    DomainError,
    InfeasibleSearchError,
    PreconditionError,
)
from .localization import (
    ChainReport,
    RadialModel,
    TruncatedNeedle,
    dimension_reduction_chain,
    disintegrate_ball,
    model_from_dict,
    verify_disintegration,
)
from .numerics import (
    DEFAULT_TOLERANCE,
    Tolerance,
    gamma,
    invert_monotone,
    unit_ball_volume,
)
from .profile import (
    ProfileResult,
    avr_lower_bound,
    cd_lower_bound,
    eval_f,
    eval_v,
    expansion_leading_coefficient,
    invert_v,
    profile_mcp,
)
from .search import (
    CertifyReport,
    CertifyRow,
    SearchConfig,
    SearchOutcome,
    brute_force_profile,
    certify_bound,
)
from .space import (
    AvrResult,
    IntervalUnion,
    WeightedInterval,
    avr,
    bishop_gromov_check,
    interval_union_from_dict,
    measure,
    minkowski_content,
    minkowski_content_estimator,
    sharp_space,
    space_from_dict,
    verify_sharpness,
    volume_ratio,
)

__version__ = "0.1.0"
