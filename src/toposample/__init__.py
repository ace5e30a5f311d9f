"""Topology-aware sampling of one dimensional Gaussian random fields.

The package plans sample grids whose resolution follows a local
crossover rate density, so that connected components of excursion sets
are recovered from finitely many point evaluations with a quantified
failure probability. See the README for the command line interface and
the module docstrings for the underlying quantities.

The names below are the library API. The submodules' other functions
(correlation jets, quadrature, grid inversion, config parsing) are
internals of these calls and of the command line.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateDensityError,
    FactorizationError,
    NondegeneracyError,
    NonFiniteDensityError,
    NotPositiveDefiniteError,
    ToposampleError,
)
from .fields import (
    FieldModel,
    SamplePath,
    ThresholdFn,
    binomial_model,
    chebyshev_model,
    cosine_model,
    custom_model,
    periodic_model,
    sample_path,
    threshold_constant,
    threshold_cubic_shift,
    threshold_polynomial,
    threshold_zero,
    unit_model,
)
from .density import DensityProfile, density_profile
from .planner import (
    SamplingPlan,
    ScalingRow,
    build_plan,
    failure_bound,
    min_samples,
    scaling_study,
)
from .topology import (
    NodalReport,
    OracleCount,
    admissibility_failure_bound,
    cubical_beta0,
    oracle_beta0,
    verify_match,
)
from .orthant import (
    CrossoverEstimate,
    EigenExpansion,
    crossover_probability_mc,
    eigen_expansion_check,
    orthant_weight,
)
from .config import ExperimentConfig
from .harness import (
    ExperimentResult,
    ZeroCountResult,
    compare_strategies,
    forget,
    run_experiment,
    zero_count_experiment,
)

__all__ = [
    "__version__",
    "ToposampleError",
    "NondegeneracyError",
    "FactorizationError",
    "NotPositiveDefiniteError",
    "NonFiniteDensityError",
    "DegenerateDensityError",
    "ConfigError",
    "FieldModel",
    "chebyshev_model",
    "cosine_model",
    "periodic_model",
    "binomial_model",
    "unit_model",
    "custom_model",
    "ThresholdFn",
    "threshold_zero",
    "threshold_constant",
    "threshold_polynomial",
    "threshold_cubic_shift",
    "SamplePath",
    "sample_path",
    "DensityProfile",
    "density_profile",
    "SamplingPlan",
    "build_plan",
    "failure_bound",
    "min_samples",
    "scaling_study",
    "ScalingRow",
    "OracleCount",
    "oracle_beta0",
    "cubical_beta0",
    "NodalReport",
    "verify_match",
    "admissibility_failure_bound",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "compare_strategies",
    "ZeroCountResult",
    "zero_count_experiment",
    "forget",
    "orthant_weight",
    "EigenExpansion",
    "eigen_expansion_check",
    "CrossoverEstimate",
    "crossover_probability_mc",
]
