"""Desk-scale laboratory for forward-trace policy-gradient surrogates.

Small token MDPs are enumerated exhaustively, so every population quantity
(returns, performance differences, windowed surrogates, their variance) is
exact.  On top of that sit the practical clipped/masked objectives, the
improvement-bound formulas with a Monte Carlo coverage check, and the
experiment drivers behind the ``tracelab`` CLI.
"""

from .bounds import (
    BoundReport,
    b_n,
    b_n_increment,
    hoeffding_penalty,
    residual_check,
    s_n,
    theorem_lower_bound,
    truncation_bias_bound,
    verify_coverage,
)
from .errors import (
    ConfigError,
    EnumerationCapError,
    TracelabError,
    TrainingDivergedError,
    UnknownStateError,
    ZeroSupportError,
)
from .lab import (
    DynamicsReport,
    SweepRow,
    TrainRecord,
    alternating_profile,
    bias_variance_sweep,
    dynamics_report,
    smoothing_demo,
    switch_frequency,
    train,
)
from .mdp import (
    DEFAULT_ENUMERATION_CAP,
    TokenMdp,
    enumerate_prefixes,
    enumerate_trajectories,
    match_length,
    reward,
    sample_trajectory,
)
from .objectives import (
    ObjectiveSpec,
    ObjectiveValue,
    PerSampleStat,
    VarianceReport,
    exact_return,
    gradient_norm,
    mpg_objective,
    n_step_surrogate_empirical,
    n_step_surrogate_population,
    nfpo_gradient,
    nfpo_objective,
    objective_gradient,
    objective_value,
    per_sample_statistic,
    performance_difference_direct,
    performance_difference_trace,
    ppo_objective,
    variance_of_statistic,
)
from .policies import (
    TabularSoftmaxPolicy,
    TargetFollowingPolicy,
    d_tv_max,
    ratio_deviation_bound,
    state_kl,
    state_tv,
    token_prob,
    trajectory_log_prob,
)
from .weights import (
    MASK_NONE,
    GroupRollout,
    MaskSpec,
    RatioProfile,
    TraceSet,
    group_advantages,
    population_group,
    ratios,
    sample_from_table,
    sample_group,
    token_mask,
    traces,
)

__version__ = "0.1.0"
