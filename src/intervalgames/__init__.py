"""Solvers for two-player games on weighted graphs where one player tries
to force the payoff of the play (liminf, limsup, mean-payoff, discounted
sum or total sum) into a finite union of rational intervals."""

from .arena import (
    Edge,
    GameError,
    GameGraph,
    Infinity,
    Interval,
    IntervalUnion,
    MINUS_INF,
    Objective,
    PLUS_INF,
    Payoff,
    Player,
    Regions,
    Verdict,
    complement_intervals,
    contains,
    max_abs_weight,
    normalize,
    parse_game,
    serialize_game,
)
from .parity import ParityGame, attractor_with_strategy, solve_parity
from .liminf import integerize, liminf_to_parity, omega_I, parity_to_liminf, solve_liminf
from .meanpayoff import Cmp, ThresholdQuery, mp_threshold, parity_to_mp, solve_mp_interval
from .discounted import (
    SubsetSumInstance,
    ds_optimal_values,
    ds_value_lasso,
    horizon,
    solve_ds_interval,
    subset_sum_to_ds,
)
from .totalsum import (
    CountdownInstance,
    OneCounterParityGame,
    ThreeValuedRegions,
    countdown_to_total,
    solve_ocpg_bounded,
    solve_total_interval,
    totalsum_to_ocpg,
)

__version__ = "0.1.0"
