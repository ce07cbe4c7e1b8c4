"""Poisson horosphere processes in hyperbolic space.

Sampling of the truncated process, exact moment and bound computations in
log arithmetic, a flat-space companion model, empirical distribution
distances, and a deterministic CLI wrapping all of it.
"""

from .analysis import (
    BoundReport,
    GrowthRegime,
    IntegralSet,
    MomentSummary,
    Regime,
    effective_width,
    integrals,
    kolmogorov_bound,
    moments,
    rate_envelope,
    rate_envelopes,
    wasserstein_bound_integrals,
    wasserstein_bound_width,
    width_limit_integral,
    width_ratio_table,
    width_scale,
    width_substituted,
)
from .empirical import (
    EmpiricalSummary,
    empirical_kolmogorov,
    empirical_wasserstein1,
    k_statistics,
    summarize,
)
from .geometry import (
    EuclideanCircle,
    HorosphereParam,
    horocycle_disc_embedding,
    log_chord_area,
    log_sinh,
    log_unit_ball_volume,
)
from .quadrature import LOG_ZERO, QuadratureError, quad_log_integral, quad_log_integrals
from .render import Scene, horocycle_scene, render_svg
from .sampling import (
    Batch,
    FeasibilityError,
    SimConfig,
    log_hitting_mass,
    replication_stream,
    sample_points,
    sample_signed_distance,
    simulate_batch,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Batch",
    "BoundReport",
    "EmpiricalSummary",
    "EuclideanCircle",
    "FeasibilityError",
    "GrowthRegime",
    "HorosphereParam",
    "IntegralSet",
    "LOG_ZERO",
    "MomentSummary",
    "QuadratureError",
    "Regime",
    "Scene",
    "SimConfig",
    "effective_width",
    "empirical_kolmogorov",
    "empirical_wasserstein1",
    "horocycle_disc_embedding",
    "horocycle_scene",
    "integrals",
    "k_statistics",
    "kolmogorov_bound",
    "log_chord_area",
    "log_hitting_mass",
    "log_sinh",
    "log_unit_ball_volume",
    "moments",
    "quad_log_integral",
    "quad_log_integrals",
    "rate_envelope",
    "rate_envelopes",
    "render_svg",
    "replication_stream",
    "sample_points",
    "sample_signed_distance",
    "simulate_batch",
    "summarize",
    "wasserstein_bound_integrals",
    "wasserstein_bound_width",
    "width_limit_integral",
    "width_ratio_table",
    "width_scale",
    "width_substituted",
]
