"""Rate functionals, domain geometry, and critical-temperature bounds for
Schroedingerist spin models, with Monte Carlo cross-checks."""

__version__ = "0.1.0"

from .errors import (
    DegenerateWeights,
    DualNotCertified,
    HypothesisViolation,
    InvalidParams,
    NoRoot,
    OutOfThetaRange,
    SquimldError,
)
from .gecore import (
    QRoot,
    RateParams,
    h_value,
    solve_Q_detail,
)
from .ratecurves import (
    DualSolution,
    GFunctions,
    RateCurvePoint,
    classify_theorem_two,
    compute_I1,
    compute_I2,
    domain_scan,
    solve_dual,
)
from .wfe import (
    PStarResult,
    RareEventResult,
    WfeParams,
    a_of_x,
    admissibility_bound,
    beta_critical,
    check_hypotheses,
    p_star,
    p_star_inf,
    p_theta,
    rare_event_rate_mc,
    theta_range,
)
from .ensembles import (
    chain_tables,
    classical_ising_1d,
    g_values,
)
from .mc import (
    EnsembleConfig,
    EsmResult,
    McEstimate,
    esm_evaluate,
    infinite_T_msq_exact,
    thermal_averages,
)
from .validate import CheckResult, run_validation
from .report import RunManifest
