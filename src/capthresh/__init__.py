"""Capacity-aware flagging thresholds for nudge-driven service systems.

Subpackages, by role:

* :mod:`capthresh.score_model` -- joint laws of true and predicted scores.
* :mod:`capthresh.fluid`       -- deterministic planning: thresholds, gaps.
* :mod:`capthresh.simulate`    -- the stochastic funnel and exact oracles.
* :mod:`capthresh.metrics`     -- ROC/AUC and the operational metric OpAUC.
* :mod:`capthresh.scenario`    -- scenario documents and deterministic output.
* :mod:`capthresh.cli`         -- scriptable subcommands over scenario files.
"""

from .fluid import (
    BehavioralParams,
    CapacityMatching,
    Fixed,
    GridOracle,
    ScoreOptimal,
    ThresholdPolicy,
    TwoPointOptimal,
    capacity_matching_threshold,
    critical_baseline,
    fluid_efficacy,
    fluid_objective,
    fluid_served,
    gap_curve,
    max_relative_gap_capacity_matching,
    score_optimal_threshold,
    two_point_threshold,
)
from .metrics import (
    AlgorithmCandidate,
    Atoms,
    CapacityDistribution,
    SelectionReport,
    UniformRatio,
    auc_integral,
    auc_rank,
    opauc,
    opauc_uniform_closed_form,
    roc_curve,
    select_algorithm,
)
from .score_model import (
    Analytic,
    BetaMixture,
    EmpiricalJoint,
    EmpiricalLabeled,
    GaussianNoiseClipped,
    JointScoreModel,
    Perfect,
    Population,
    Uniform01,
    conditional_mean_above,
    conditional_mean_above_grid,
    conditional_mean_at,
    mean_true_score,
    predicted_quantile,
    sample_population,
    tpr_at,
    tpr_grid,
)
from .simulate import (
    SimConfig,
    SimEstimate,
    chernoff_demand_bound,
    exact_expected_served,
    exact_objective_random,
    exact_objectives_random,
    exact_service_rates,
    flag_top,
    grid_oracle,
    simulate_policy,
    simulate_taus,
)

__version__ = "0.1.0"
