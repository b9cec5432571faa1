"""Certified numerics for countable exponential sums, their convex
conjugates, and maximum-entropy fitting under moment constraints."""

from .conjugate import (
    ConjugateValue,
    NumericError,
    Regime,
    box_conjugate,
    conjugate,
    exp_conjugate,
    log_f_conjugate,
    solve_fprime,
    solve_phi,
)
from .entropy import (
    AlternatingAttainment,
    AlternatingWitness,
    FitStatus,
    GibbsFit,
    InfeasibleError,
    PlateauWitness,
    WitnessBudgetError,
    alternating_attainment,
    alternating_witness,
    fit_gibbs,
    gibbs_ratio,
    min_entropy_moment,
    plateau_witness,
)
from .oracle import (
    AlternatingSeriesReport,
    TruncatedSolution,
    TruncationInfeasibleError,
    VerificationReport,
    alternating_gradient_series,
    check_fenchel_young,
    check_gradient_sum,
    check_gradient_sum_2d,
    primal_truncated,
)
from .scenarios import BoxModel, BoxReport, box_report, example1_table, example2_table
from .sequences import (
    Family,
    SequenceIndexError,
    SigmaSequence,
    VarsigmaFamily,
    VarsigmaSequence,
    box,
    custom,
    enumerate_box,
    increment_gap,
    linear,
    logfam,
    loglog,
    parse_sequence,
    parse_varsigma,
    power,
    quadratic,
    sigma,
    sigma_values,
)
from .series import (
    DEFAULT_MAX_TERMS,
    BoundaryClass,
    BudgetExceededError,
    DomainError,
    DomainInfo,
    SeriesEval,
    domain_info,
    eval_series,
    log_f,
    max_terms_budget,
    phi,
    tail_bound_after,
)

__version__ = "1.0.0"
