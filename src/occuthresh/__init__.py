"""Random regular r-in-k occupation problems, moment formulas, and SDPI tooling."""

__version__ = "0.1.0"

from .errors import (
    BracketError,
    CapacityError,
    CertificateError,
    ContractViolation,
    EvaluationError,
    OccuthreshError,
    ParameterError,
    ParseError,
    RetryLimitError,
)
from .numerics import (
    Channel,
    LogReal,
    Pmf,
    binary_entropy,
    find_root,
)
from .instances import (
    Configuration,
    Params,
    child_seed,
    count_two_cycles,
    deserialize,
    expected_redundant_exact,
    sample_configuration,
    sample_simple,
    serialize,
)
from .occupancy import (
    OverlapProfile,
    SatProbRow,
    count_solutions,
    estimate_sat_probability,
    has_solution,
    is_solution,
    ones_quota,
    overlap,
)
from .cycles import (
    CycleCensus,
    PoissonFitRow,
    census_samples,
    count_cycles,
    delta_l,
    lambda_l,
    markov_trace_delta,
    mu_l,
    pair_correlation,
    poisson_gof,
)
from .moments import (
    Hessian2,
    OverlapPoint,
    ThresholdReport,
    VarianceExplained,
    first_moment_asymptotic,
    first_moment_exact,
    hessian_phi2,
    joint_moment_exact,
    phi1,
    phi2,
    second_moment_asymptotic,
    second_moment_exact_ratio,
    threshold_dstar,
    threshold_f,
    variance_explained,
    w_star,
)
from .sdpi import (
    K4Certificate,
    OccupationContraction,
    certify_k4_contraction,
    conjectured_contraction,
    contraction_coefficient,
    divergence_ratio,
    k4_logsum_bound,
    k4_min_input_divergence,
    k4_output_divergence,
    k4_quadratic_bound,
    k4_ratio_envelope,
    minimizing_w2,
    occupation_channel,
    occupation_contraction,
)
