"""Predictive metrics (ROC, AUC) and the operational metric OpAUC.

AUC weights every threshold equally.  Under a capacity constraint the system
only ever operates at the two-point optimal threshold for its capacity ratio,
so algorithm selection should weight thresholds by the capacity distribution
mu actually faced in deployment:

    OpAUC(A) = integral of rho * (p0 + delta_p * TPR_A(tau*(rho)))
                              / (p0 + delta_p * (1 - tau*(rho)))  d mu(rho)

OpAUC is reported unnormalized (it is not bounded by 1) and is comparable
only across candidates at a fixed (mu, p0, delta_p).  Its ordering matches
the ordering of mu-averaged fluid objectives at each candidate's own optimal
thresholds, which is what makes it the selection criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fluid import (
    BehavioralParams,
    _two_point_thresholds,
    capacity_matching_threshold,
    score_optimal_threshold,
)
from .score_model import JointScoreModel, mean_true_score, tpr_grid

RHO_NODES = 201
TAU_GRID = 2001


@dataclass(frozen=True)
class UniformRatio:
    """Capacity ratio rho = m/n uniform on [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 < self.lo < self.hi < math.inf):
            raise ValueError("need 0 < lo < hi")


@dataclass(frozen=True)
class Atoms:
    """Discrete capacity-ratio law: ((rho, weight), ...)."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        atoms = tuple((float(r), float(w)) for r, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("need at least one atom")
        if not all(math.isfinite(v) for atom in atoms for v in atom):
            raise ValueError("atoms must be finite")
        if any(r <= 0 for r, _ in atoms):
            raise ValueError("capacity ratios must be positive")
        if any(w < 0 for _, w in atoms):
            raise ValueError("weights must be nonnegative")
        if abs(sum(w for _, w in atoms) - 1.0) > 1e-12:
            raise ValueError("atom weights must sum to 1")


CapacityDistribution = UniformRatio | Atoms


@dataclass(frozen=True, eq=False)
class AlgorithmCandidate:
    name: str
    model: JointScoreModel


@dataclass(frozen=True)
class CandidateReport:
    """Per-candidate metrics plus the per-rho integrand table for audit."""

    name: str
    auc: float
    opauc: float
    table: tuple[tuple[float, float, float, float, float], ...]
    # rows: (rho, weight, tau_star, tpr, integrand)


@dataclass(frozen=True)
class SelectionReport:
    candidates: tuple[CandidateReport, ...]
    winner_by_auc: str
    winner_by_opauc: str


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with each tie group sharing its mean rank.

    The sorted positions start..end-1 of a tie group hold ranks start+1..end,
    whose mean 0.5 * (start + end + 1) is a half-integer and so exact: the
    result equals ``scipy.stats.rankdata(x)`` bit for bit, whatever order the
    unstable sort leaves within a group.
    """
    order = np.argsort(x)
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def auc_rank(scores, labels) -> float:
    """Mann-Whitney AUC with half credit for score ties.

    Raises ``ValueError`` for non-finite scores or labels, which have no rank.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if not (np.isfinite(scores).all() and np.isfinite(labels).all()):
        raise ValueError("AUC undefined: scores and labels must be finite")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: need at least one positive and one negative")
    ranks = _average_ranks(scores)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auc_integral(model: JointScoreModel) -> float:
    """AUC from the TPR curve on ``TAU_GRID`` points: (int TPR dtau - E[r]/2) / (1 - E[r])."""
    er = mean_true_score(model)
    if not 0.0 < er < 1.0:
        raise ValueError("AUC undefined: mean true score must be in (0, 1)")
    taus = np.linspace(0.0, 1.0, TAU_GRID)
    return float((np.trapezoid(tpr_grid(model, taus), taus) - er / 2.0) / (1.0 - er))


def roc_curve(model: JointScoreModel) -> list[tuple[float, float]]:
    """(FPR, TPR) at ``TAU_GRID`` thresholds, from tau = 0 (at (1,1)) to tau = 1.

    FPR follows from the confusion-matrix identity: the flagged mass (1 - tau)
    splits into TPR * E[r] true positives and false positives for the rest.
    """
    er = mean_true_score(model)
    if not 0.0 < er < 1.0:
        raise ValueError("ROC undefined: mean true score must be in (0, 1)")
    taus = np.linspace(0.0, 1.0, TAU_GRID)
    tpr = tpr_grid(model, taus)
    fpr = ((1.0 - taus) - tpr * er) / (1.0 - er)
    return list(zip(np.clip(fpr, 0.0, 1.0).tolist(), np.clip(tpr, 0.0, 1.0).tolist()))


def _rows(
    model: JointScoreModel, mu: CapacityDistribution, params: BehavioralParams
) -> list[tuple[float, float, float, float, float]]:
    """(rho, weight, tau_star, tpr, integrand) at each node of mu, in node order.

    One array pass gives every node's two-point threshold, bitwise the scalar
    two_point_threshold, and one tpr_grid call every TPR, bitwise the scalar
    tpr_at.
    """
    nodes = _mu_nodes(mu)
    taus = _two_point_thresholds(np.array([rho for rho, _ in nodes]), model, params.p0, params.delta_p)
    tprs = tpr_grid(model, taus).tolist()
    return [
        (rho, w, tau, tpr, rho * (params.p0 + params.delta_p * tpr) / (params.p0 + params.delta_p * (1.0 - tau)))
        for (rho, w), tau, tpr in zip(nodes, taus.tolist(), tprs)
    ]


def opauc(model: JointScoreModel, mu: CapacityDistribution, params: BehavioralParams) -> float:
    """Capacity-weighted operational metric; each rho uses its optimal tau."""
    if params.delta_p <= 0:
        raise ValueError("nudge has no effect; OpAUC undefined")
    return sum(w * value for _, w, _, _, value in _rows(model, mu, params))


def _mu_nodes(mu: CapacityDistribution) -> list[tuple[float, float]]:
    """Quadrature nodes (rho, weight) with weights summing to 1: the atoms, or
    the ``RHO_NODES``-point trapezoid rule of a uniform law."""
    if isinstance(mu, Atoms):
        return list(mu.atoms)
    rhos = np.linspace(mu.lo, mu.hi, RHO_NODES)
    w = np.full(RHO_NODES, 1.0 / (RHO_NODES - 1))
    w[0] = w[-1] = 0.5 / (RHO_NODES - 1)  # trapezoid weights
    return [(float(r), float(x)) for r, x in zip(rhos, w)]


def opauc_uniform_closed_form(
    model: JointScoreModel, lo: float, hi: float, params: BehavioralParams
) -> float:
    """OpAUC for uniform capacity in the capacity-abundant regime.

    Valid only while the capacity-matching threshold binds over all of
    [lo, hi]; then OpAUC reduces to an integral of the TPR curve between
    tau_c(hi) and tau_c(lo).
    """
    if not (0.0 <= lo < hi):
        raise ValueError("need 0 <= lo < hi")
    if params.delta_p <= 0:
        raise ValueError("nudge has no effect; OpAUC undefined")
    tau_score = score_optimal_threshold(model, params)
    # tau_c decreases in rho, so the regime check binds at rho = lo
    if capacity_matching_threshold(lo, params) > tau_score:
        raise ValueError("score-optimal binds; closed form invalid")
    t_lo = capacity_matching_threshold(hi, params)
    t_hi = capacity_matching_threshold(lo, params)
    taus = np.linspace(t_lo, t_hi, TAU_GRID)
    vals = params.p0 + params.delta_p * tpr_grid(model, taus)
    return float(params.delta_p / (hi - lo) * np.trapezoid(vals, taus))


def select_algorithm(
    candidates, mu: CapacityDistribution, params: BehavioralParams
) -> SelectionReport:
    """Rank candidates by AUC and OpAUC; OpAUC picks the efficacy-optimal one.

    Labeled corpora use the rank AUC, everything else the integral form.
    Ties resolve to the lexicographically smallest name.  A single candidate
    is reported alone and wins both rankings.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("need at least one candidate")
    names = [c.name for c in candidates]
    if len(set(names)) != len(names):
        raise ValueError("candidate names must be unique")
    reports = [candidate_report(c, mu, params) for c in candidates]
    winner_auc = min(reports, key=lambda r: (-r.auc, r.name)).name
    winner_opauc = min(reports, key=lambda r: (-r.opauc, r.name)).name
    return SelectionReport(
        candidates=tuple(reports),
        winner_by_auc=winner_auc,
        winner_by_opauc=winner_opauc,
    )


def candidate_report(
    candidate: AlgorithmCandidate, mu: CapacityDistribution, params: BehavioralParams
) -> CandidateReport:
    from .score_model import EmpiricalLabeled

    model = candidate.model
    if isinstance(model, EmpiricalLabeled):
        auc = auc_rank(model.predicted, model.outcomes)
    else:
        auc = auc_integral(model)
    rows = _rows(model, mu, params)
    total = sum(w * value for _, w, _, _, value in rows)
    return CandidateReport(
        name=candidate.name, auc=auc, opauc=total, table=tuple(rows)
    )
