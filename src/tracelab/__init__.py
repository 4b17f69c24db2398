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
    match_length,
    reward,
)
from .objectives import (
    ObjectiveSpec,
    ObjectiveValue,
    VarianceReport,
    exact_return,
    gradient_norm,
    n_step_surrogate_empirical,
    n_step_surrogate_population,
    objective_gradient,
    objective_value,
    performance_difference_direct,
    performance_difference_trace,
    variance_of_statistic,
)
from .policies import (
    PolicyRows,
    TabularSoftmaxPolicy,
    TargetFollowingPolicy,
    d_tv_max,
    policy_rows,
    ratio_deviation_bound,
)
from .weights import (
    MASK_NONE,
    GroupRollout,
    MaskSpec,
    group_advantages,
    sample_from_table,
)

__version__ = "0.1.0"
