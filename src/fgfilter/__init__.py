"""Gaussian and feature-Gaussian filtering for nonlinear state-space models.

The package provides moment-matched Gaussian filtering where the
measurement update conditions on features of the measurement rather
than the measurement itself. With the affine feature (1, y) this is the
classical Gaussian filter; richer features recover information from
measurements that are only nonlinearly informative. Expectations are
pluggable (Monte Carlo, sigma points or a Gauss-Hermite rule), and a
brute-force grid oracle supplies exact scalar posteriors for validation.
"""

from ._linalg import NumericsError
from .filters import (
    FeatureFunction,
    FgfPosteriorParams,
    FilterLanes,
    JointMoments,
    fgf_solve,
    fgf_update,
    gf_update,
    joint_moments,
    make_affine_feature,
    make_monomial_feature,
    predict,
    run_filter,
    run_filter_lanes,
)
from .gridoracle import (
    Grid1D,
    GridCoverageWarning,
    GridDensity2D,
    conditional_mean_curve,
    conditional_slice,
    default_grids,
    gaussian_moment_oracle,
    grid_joint_moments,
    joint_density_grid,
    kl_conditional,
)
from .models import (
    AffineProcess,
    GaussianBelief,
    StateSpaceModel,
    make_heaviside_model,
    make_noise_magnitude_model,
    simulate,
)
from .quadrature import (
    ExpectationEngine,
    expect,
    expected_likelihood_weight,
    gauss_hermite,
    monte_carlo,
    sample_points,
    sigma_point,
)
from .experiments import (
    ExperimentReport,
    run_experiment_batch,
    run_heaviside_experiment,
    run_noise_experiment,
    write_report_csv,
    write_summary_csv,
)

__version__ = "0.1.0"

__all__ = [
    "NumericsError",
    "AffineProcess",
    "StateSpaceModel",
    "GaussianBelief",
    "make_noise_magnitude_model",
    "make_heaviside_model",
    "simulate",
    "ExpectationEngine",
    "monte_carlo",
    "sigma_point",
    "gauss_hermite",
    "sample_points",
    "expect",
    "expected_likelihood_weight",
    "FeatureFunction",
    "JointMoments",
    "FgfPosteriorParams",
    "make_affine_feature",
    "make_monomial_feature",
    "predict",
    "joint_moments",
    "gf_update",
    "fgf_solve",
    "fgf_update",
    "run_filter",
    "run_filter_lanes",
    "FilterLanes",
    "Grid1D",
    "GridDensity2D",
    "GridCoverageWarning",
    "default_grids",
    "joint_density_grid",
    "conditional_slice",
    "conditional_mean_curve",
    "grid_joint_moments",
    "kl_conditional",
    "gaussian_moment_oracle",
    "ExperimentReport",
    "run_noise_experiment",
    "run_heaviside_experiment",
    "run_experiment_batch",
    "write_report_csv",
    "write_summary_csv",
    "__version__",
]
