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
    switch_frequency,
    train,
)
from .mdp import DEFAULT_ENUMERATION_CAP, TokenMdp
from .objectives import (
    ObjectiveSpec,
    RowGradient,
    exact_return,
    gradient_norm,
    n_step_surrogate_empirical,
    objective_gradient,
    population_moments,
)
from .policies import (
    PolicyRows,
    TabularSoftmaxPolicy,
    TargetFollowingPolicy,
    d_tv_max,
    policy_rows,
)
from .weights import (
    MASK_NONE,
    GroupRollout,
    MaskSpec,
    sample_from_table,
)

__version__ = "0.1.0"
