"""Simultaneous confidence bands for regression targets and their inversion
into inner/outer confidence regions for threshold excursion sets.

Band constructors (regression, functional, geospatial) all emit
:class:`~confbands.core.SCBand`; :mod:`confbands.regions` inverts any band,
including externally produced ones loaded from the band JSON format.
"""

from .core import (
    Domain,
    SCBand,
    assemble_band,
    band_from_json,
    band_to_json,
    empirical_quantile,
    substream,
)
from .functional import (
    FoSRFit,
    FunctionalDataset,
    SubsetSpec,
    fit_fosr,
    predict_target,
    scb_cma,
    scb_multiplier,
)
from .geospatial import (
    CorrelationSpec,
    GLSFit,
    SpatialObservations,
    fit_gls_grid,
    scb_gls,
)
from .regions import (
    ContainmentSummary,
    RegionSet,
    ThresholdSpec,
    check_containment,
    invert_interval,
    invert_levels,
    invert_lower,
    invert_two_sided,
    invert_upper,
    regions_from_json,
    regions_to_json,
)
from .regression import (
    FittedGLM,
    ModelSpec,
    Table,
    fit_logistic,
    fit_ols,
    parse_formula,
    predict_mean,
    scb_coef_bootstrap,
    scb_mean_bootstrap,
)
from .simulate import CoverageReport, SimDesign, generate, run_coverage

__version__ = "0.1.0"

__all__ = [
    "Domain", "SCBand", "substream", "empirical_quantile",
    "assemble_band", "band_to_json", "band_from_json",
    "ThresholdSpec", "RegionSet", "ContainmentSummary", "invert_upper",
    "invert_lower", "invert_interval", "invert_two_sided", "invert_levels",
    "check_containment", "regions_to_json", "regions_from_json",
    "Table", "ModelSpec", "FittedGLM", "parse_formula", "fit_ols",
    "fit_logistic", "predict_mean", "scb_mean_bootstrap", "scb_coef_bootstrap",
    "FunctionalDataset", "FoSRFit", "SubsetSpec", "fit_fosr", "predict_target",
    "scb_cma", "scb_multiplier",
    "SpatialObservations", "CorrelationSpec", "GLSFit", "fit_gls_grid", "scb_gls",
    "SimDesign", "CoverageReport", "generate", "run_coverage",
    "__version__",
]
