"""Monte Carlo laboratory for multiplicative chaos over atomic disk measures.

The package builds log-correlated Gaussian fields on finite atomic measures
supported in the open unit disk, forms the associated normalized exponential
(chaos) masses, and verifies quantitative statements about them empirically:
the rooted change-of-measure identity, negative-moment decay of the Laplace
transform with explicit exponents, and kernel comparison inequalities.
"""

from .errors import (
    DomainError,
    EmptyMeasureError,
    GmcLabError,
    HypothesisViolationError,
    NumericalError,
    ResourceLimitError,
    SingularityError,
    SplitInfeasibleError,
    ValidationError,
)
from .measure import (
    AtomicMeasure,
    SplitResult,
    d_energy,
    generate_cantor_dust,
    generate_julia_boundary,
    generate_uniform_grid,
    load_measure,
    save_measure,
    split_half_plane,
)
from .kernel import (
    CovarianceModel,
    DiskKernel,
    build_covariance,
    green_disk,
    markov_difference_psd,
)
from .field import FieldSample, field_matrix, replica_generator, sample_field
from .gmc import (
    GmcSample,
    Statistic,
    TwoSampleReport,
    atom_value_statistic,
    clipped_mass_statistic,
    gmc_mass,
    rooted_identity_errors,
    total_masses,
    verify_change_of_measure,
)
from .bounds import (
    BoundReport,
    ExponentReport,
    LaplaceReport,
    TailReport,
    estimate_s0,
    exponents,
    fit_loglog_slope,
    laplace_transform,
    small_ball_tail,
    t0_from_ratio,
    verify_bound,
)
from .inequalities import (
    InequalityVerdict,
    fkg_check,
    kahane_check,
    markov_psd_suite,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure", "SplitResult", "d_energy", "generate_cantor_dust",
    "generate_julia_boundary", "generate_uniform_grid", "load_measure",
    "save_measure", "split_half_plane",
    "CovarianceModel", "DiskKernel", "build_covariance", "green_disk",
    "markov_difference_psd",
    "FieldSample", "field_matrix", "replica_generator", "sample_field",
    "GmcSample", "Statistic", "TwoSampleReport", "atom_value_statistic",
    "clipped_mass_statistic", "gmc_mass", "rooted_identity_errors", "total_masses",
    "verify_change_of_measure",
    "BoundReport", "ExponentReport", "LaplaceReport", "TailReport",
    "estimate_s0", "exponents", "fit_loglog_slope", "laplace_transform",
    "small_ball_tail", "t0_from_ratio", "verify_bound",
    "InequalityVerdict", "fkg_check", "kahane_check", "markov_psd_suite",
    "GmcLabError", "ValidationError", "DomainError", "SingularityError",
    "ResourceLimitError", "EmptyMeasureError", "SplitInfeasibleError",
    "HypothesisViolationError", "NumericalError",
    "__version__",
]
