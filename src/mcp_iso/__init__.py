"""Sharp isoperimetric machinery for one-dimensional weighted spaces.

The package evaluates and inverts the model isoperimetric profile for
non-negative synthetic curvature with a dimension bound, verifies the
defining density ratio inequalities, computes measures / boundary content /
asymptotic volume ratios of weighted intervals, brute-force certifies the
volume-growth boundary bound at desk scale, and instantiates the ray-wise
dimension-reduction argument on rotationally symmetric models.
"""

# The public names are the modules' __all__ lists, written once there.
from .density import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .localization import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403
from .profile import *  # noqa: F401,F403
from .search import *  # noqa: F401,F403
from .space import *  # noqa: F401,F403

__version__ = "0.1.0"
