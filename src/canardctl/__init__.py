"""Feedback stabilization of canard cycles in planar fast-slow systems.

Library layout:

- :mod:`canardctl.core`         conserved quantity, scaled levels, parameter containers
- :mod:`canardctl.models`       fold normal form and van der Pol vector fields
- :mod:`canardctl.blowup`       rescaling charts, transition maps, germ check
- :mod:`canardctl.controllers`  level, chart, centre-manifold and composite controllers
- :mod:`canardctl.sim`          embedded RK45 integrator with event detection
- :mod:`canardctl.mmo`          loop classification and pattern supervision
- :mod:`canardctl.cli`          `canard-ctl` experiment runner
"""

from __future__ import annotations

from .blowup import (
    ChartPointK1,
    ChartPointK2,
    GermReport,
    germ_check,
    k1_vdp_field,
    k2_field,
    kappa12,
    kappa21,
)
from .controllers import (
    K1Domain,
    NeighborhoodParams,
    bump_psi,
    composite_u,
    default_neighborhoods,
    fast_u,
    k1_chart_phi1,
    k1_vdp_mu,
    k2_mu,
    lyapunov_L2,
    slow_u,
    vdp_slow_manifold_phi,
)
from .core import (
    ControllerGains,
    PhasePoint,
    ScaledLevel,
    SystemParams,
    eval_H,
    eval_H1,
    eval_H2,
    eval_level_term,
)
from .errors import (
    ConfigError,
    DomainError,
    ExponentOverflowError,
    ExtrapolationError,
    IntegrationError,
    PatternDeviationError,
    SingularConfigurationError,
    StepLimitError,
    StepUnderflowError,
)
from .mmo import (
    DISC_RADIUS,
    LAO_THRESHOLD,
    LoopLabel,
    MmoPattern,
    MmoSegment,
    classify_loops,
    run_pattern,
)
from .models import (
    HigherOrderTerms,
    fold_rhs,
    parabolic_shear_terms,
    vdp_rhs,
    zero_terms,
)
from .sim import (
    Event,
    IntegratorConfig,
    Trajectory,
    Watcher,
    convergence_metrics,
    integrate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ControllerGains",
    "PhasePoint",
    "ScaledLevel",
    "SystemParams",
    "eval_H",
    "eval_H1",
    "eval_H2",
    "eval_level_term",
    "HigherOrderTerms",
    "fold_rhs",
    "parabolic_shear_terms",
    "vdp_rhs",
    "zero_terms",
    "ChartPointK1",
    "ChartPointK2",
    "GermReport",
    "germ_check",
    "k1_vdp_field",
    "k2_field",
    "kappa12",
    "kappa21",
    "K1Domain",
    "NeighborhoodParams",
    "bump_psi",
    "composite_u",
    "default_neighborhoods",
    "fast_u",
    "k1_chart_phi1",
    "k1_vdp_mu",
    "k2_mu",
    "lyapunov_L2",
    "slow_u",
    "vdp_slow_manifold_phi",
    "Event",
    "IntegratorConfig",
    "Trajectory",
    "Watcher",
    "convergence_metrics",
    "integrate",
    "DISC_RADIUS",
    "LAO_THRESHOLD",
    "LoopLabel",
    "MmoPattern",
    "MmoSegment",
    "classify_loops",
    "run_pattern",
    "ConfigError",
    "DomainError",
    "ExponentOverflowError",
    "ExtrapolationError",
    "IntegrationError",
    "PatternDeviationError",
    "SingularConfigurationError",
    "StepLimitError",
    "StepUnderflowError",
]
