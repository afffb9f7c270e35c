"""Robust randomization-design selection for online experiments under interference.

The library replays a catalog of implementable designs (user, cluster,
switchback, budget split, two-stage saturation, mixed) over a unit-by-period
panel, scores each design against a grid of plausible interference mechanisms,
and picks the design minimizing worst-case planning risk, returning a
certified shortlist when the risk surface is too flat for a unique answer.
"""

from .designs import DesignSpec, default_catalog, effective_units
from .diagnostics import wasserstein1_1d
from .errors import (
    CalibrationError,
    ConfigurationError,
    IngestionError,
    PlanningError,
    XDesignError,
)
from .mechanisms import AmbiguityGrid, MechanismPoint, default_grid
from .panel import (
    CalibrationScales,
    CsvSchema,
    Panel,
    SyntheticPanelConfig,
    calibrate_scales,
    code_labels,
    ess_share,
    generate_synthetic_panel,
    ingest_log_csv,
)
from .risk import PlanningWeights, mde, score_grid
from .selector import (
    RiskSurface,
    RobustDecision,
    dominance_audit,
    risk_surface,
    robust_select,
    weight_winner_search,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguityGrid",
    "CalibrationError",
    "CalibrationScales",
    "ConfigurationError",
    "CsvSchema",
    "DesignSpec",
    "IngestionError",
    "MechanismPoint",
    "Panel",
    "PlanningError",
    "PlanningWeights",
    "RiskSurface",
    "RobustDecision",
    "SyntheticPanelConfig",
    "XDesignError",
    "calibrate_scales",
    "code_labels",
    "default_catalog",
    "default_grid",
    "dominance_audit",
    "effective_units",
    "ess_share",
    "generate_synthetic_panel",
    "ingest_log_csv",
    "mde",
    "risk_surface",
    "robust_select",
    "score_grid",
    "wasserstein1_1d",
    "weight_winner_search",
]
