"""Deterministic (fluid) planning: thresholds, objectives, suboptimality gaps.

The fluid model replaces the stochastic request count with its expectation and
empirical quantiles with population quantiles.  For a flagging threshold tau
with behavioral parameters (p0, delta_p):

* expected served requests  n_served = min(n * (p0 + delta_p * (1 - tau)), m)
* efficacy per served slot  r_slot   = (p0 E[r] + delta_p (1-tau) E[r | top]) / (p0 + delta_p (1-tau))
* objective                 w        = n_served * r_slot

Thresholds implemented here:

* capacity-matching  tau_c   -- flags exactly enough to fill capacity in
  expectation; ignores which requests crowd out which.
* score-optimal      tau_s   -- maximizes efficacy per slot; the unique root
  of a strictly decreasing first-order condition for analytic models, an
  argmax on the fixed ``DEFAULT_GRID``-point tau grid for empirical corpora.
* two-point optimal  tau*    -- min(tau_s, tau_c), the fluid-optimal rule.
* critical baseline  p0_bar  -- the smallest baseline request probability at
  which the score-optimal threshold starts to bind.

Everything is a pure function of immutable inputs.  The objective has one
array form, ``_objective_grid``, with the elementwise arithmetic of the scalar
``fluid_objective``; the grid oracle and every sweep evaluate W through it.
Every root, the analytic score-optimal threshold and the critical baseline
of any model, comes from one bracketing root-finder, ``_chandrupatla``, run
to a bracket two ulp wide.
A sweep is solved as a whole rather than point by point: its two-point
thresholds in one array pass, ``_two_point_thresholds`` (the score-optimal
thresholds of all its p0 values in one lockstep solve), and both objectives of
every point from one grid of tail means and one ``_objective_grid`` call.
OpAUC takes the two-point thresholds of all its capacity nodes the same way.
Each result is bitwise the single-point one, whatever else the sweep holds
and in whatever order.  Every point is checked, and its thresholds found,
before any objective is evaluated, so an invalid point raises before any
other work.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .score_model import (
    JointScoreModel,
    _engine,
    conditional_mean_above,
    conditional_mean_above_grid,
    conditional_mean_top,
    is_empirical,
    mean_true_score,
)

DEFAULT_GRID = 2001


@dataclass(frozen=True)
class BehavioralParams:
    """Baseline request probability p0 and nudge lift delta_p."""

    p0: float
    delta_p: float

    def __post_init__(self):
        if not (math.isfinite(self.p0) and math.isfinite(self.delta_p)):
            raise ValueError("p0 and delta_p must be finite")
        if self.p0 < 0 or self.delta_p < 0:
            raise ValueError("p0 and delta_p must be nonnegative")
        if self.p0 + self.delta_p > 1.0 + 1e-12:
            raise ValueError("p0 + delta_p must not exceed 1")


# --- threshold policies -----------------------------------------------------


class ThresholdPolicy:
    """A flagging-threshold rule; each subclass is one scenario policy kind.

    A subclass is the single home of its kind.  It sets ``kind`` (its
    scenario ``"kind"``), declares its scenario keys as dataclass fields
    (``float`` or ``int``; a default makes a key optional), names the
    offending field first in any ``__post_init__`` error, and implements
    ``threshold(rho, model, params)``, its concrete tau at capacity ratio
    rho, setting ``needs_score_optimal`` if that needs delta_p > 0.  The
    scenario parser finds it by ``kind`` among
    ``ThresholdPolicy.__subclasses__()``.
    """

    kind: ClassVar[str]
    needs_score_optimal: ClassVar[bool] = False

    @property
    def label(self) -> str:
        """Stable short name used in tables and CSV output."""
        return self.kind


@dataclass(frozen=True)
class Fixed(ThresholdPolicy):
    """A threshold that never reacts to operational parameters."""

    kind = "fixed"
    tau: float

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")

    @property
    def label(self) -> str:
        return f"fixed({self.tau:g})"

    def threshold(self, rho, model, params):
        return self.tau


@dataclass(frozen=True)
class CapacityMatching(ThresholdPolicy):
    kind = "capacity_matching"

    def threshold(self, rho, model, params):
        return capacity_matching_threshold(rho, params)


@dataclass(frozen=True)
class ScoreOptimal(ThresholdPolicy):
    kind = "score_optimal"
    needs_score_optimal = True

    def threshold(self, rho, model, params):
        return score_optimal_threshold(model, params)


@dataclass(frozen=True)
class TwoPointOptimal(ThresholdPolicy):
    kind = "two_point"
    needs_score_optimal = True

    def threshold(self, rho, model, params):
        return two_point_threshold(rho, model, params)


@dataclass(frozen=True)
class GridOracle(ThresholdPolicy):
    """Argmax of the fluid objective on an evenly spaced tau grid."""

    kind = "grid_oracle"
    grid_size: int = DEFAULT_GRID

    def __post_init__(self):
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2")

    @property
    def label(self) -> str:
        return f"grid_oracle({self.grid_size})"

    def threshold(self, rho, model, params):
        """Argmax of fluid_objective(tau, model, 1, rho) on the grid, smallest tau on ties.

        Every grid value is bitwise the scalar one.  Grid points below 1 with
        an empty tail are skipped.
        """
        if not rho >= 0:
            raise ValueError("m must be nonnegative")
        taus = np.linspace(0.0, 1.0, self.grid_size)
        cma = conditional_mean_above_grid(model, taus)
        values = _objective_grid(taus, cma, mean_true_score(model), 1.0, rho, params.p0, params.delta_p)
        return _grid_argmax(taus, values)


@dataclass(frozen=True)
class GapPoint:
    """One point of a suboptimality sweep."""

    x: float
    tau_policy: float
    tau_star: float
    objective_policy: float
    objective_star: float
    gap: float
    rel_gap: float


# --- fluid primitives -------------------------------------------------------


def capacity_matching_threshold(rho: float, params: BehavioralParams) -> float:
    """Threshold at which expected requests equal capacity n*rho."""
    if not rho >= 0:
        raise ValueError("rho must be nonnegative")
    if params.delta_p == 0:
        return 1.0 if rho <= params.p0 else 0.0
    return min(1.0, max(0.0, 1.0 - (rho - params.p0) / params.delta_p))


def fluid_demand(tau: float, n: float, params: BehavioralParams) -> float:
    """Expected request count before the capacity cap."""
    return n * (params.p0 + params.delta_p * (1.0 - tau))


def fluid_served(tau: float, n: float, m: float, params: BehavioralParams) -> float:
    """Expected served requests: demand capped at capacity."""
    if not m >= 0:
        raise ValueError("m must be nonnegative")
    if not n >= 1:
        raise ValueError("n must be >= 1")
    return min(fluid_demand(tau, n, params), m)


def fluid_efficacy(tau: float, model: JointScoreModel, params: BehavioralParams) -> float:
    """Mean true score of a served request at threshold tau."""
    w = params.delta_p * (1.0 - tau)
    denom = params.p0 + w
    if denom <= 0.0:
        raise ValueError("no requests")
    er = mean_true_score(model)
    if w == 0.0:
        return er
    return (params.p0 * er + w * conditional_mean_above(model, tau)) / denom


def fluid_objective(
    tau: float, model: JointScoreModel, n: float, m: float, params: BehavioralParams
) -> float:
    """Expected total served value in the fluid model."""
    served = fluid_served(tau, n, m, params)
    if served == 0.0:
        return 0.0
    return served * fluid_efficacy(tau, model, params)


# --- score-optimal threshold ------------------------------------------------


def first_order_condition(model: JointScoreModel, params: BehavioralParams, tau: float) -> float:
    """H(tau); the score-optimal threshold is its root.

    H(tau) = (1-tau) * (E[r | r_hat >= q] - E[r | r_hat = q])
             - (p0/delta_p) * (E[r | r_hat = q] - E[r])

    Strictly decreasing under monotone calibration, positive at 0 and negative
    at 1 whenever p0 > 0.
    """
    if params.delta_p == 0:
        raise ValueError("nudge has no effect; score-optimal undefined")
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    return float(_foc_grid(model, np.array([params.p0 / params.delta_p]), np.array([tau]))[0])


def _foc_grid(model: JointScoreModel, ratio: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """H at each tau of a 1-d array in [0, 1], each with its own p0/delta_p ratio.

    The same arithmetic as first_order_condition, from one call of each
    engine grid method, so every value is bitwise the single-point one.
    """
    eng = _engine(model)
    er = eng.mean()
    out = np.empty(taus.shape)
    top = taus >= 1.0
    if top.any():
        out[top] = -ratio[top] * (eng.cond_mean_top() - er)
    inner = ~top
    if inner.any():
        t = taus[inner]
        cma = eng.cond_mean_above_grid(t)
        if np.isnan(cma).any():
            raise ValueError("empty tail")
        cm_at = eng.cond_mean_at_grid(t)
        out[inner] = (1.0 - t) * (cma - cm_at) - ratio[inner] * (cm_at - er)
    return out


_SCORE_OPT_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
# a corpus's tail means on the DEFAULT_GRID taus, which every p0 reuses
_GRID_TAILS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def score_optimal_threshold(model: JointScoreModel, params: BehavioralParams) -> float:
    """Threshold maximizing efficacy per served slot.

    Analytic models: the root of the first-order condition H to full double
    precision (see ``_chandrupatla``), clamped to 1 when p0 = 0, to 0 when
    H(0) <= 0 and to 1 when H(1) >= 0.  Empirical models: argmax of
    fluid_efficacy on the uniform ``DEFAULT_GRID``-point tau grid, smallest
    tau on ties.  Results are cached per model and (p0, delta_p).

    A p0 sweep solves all its points together (see ``gap_curve``), each
    point on its own iterates, so each result is bitwise this single-point
    solve.
    """
    return _score_optimal_thresholds(model, [params.p0], params.delta_p)[0]


def _score_optimal_thresholds(model: JointScoreModel, p0s, delta_p: float) -> list[float]:
    """score_optimal_threshold at each p0 of a list, at one delta_p.

    The uncached p0 values are solved together: analytic models in one
    lockstep root-finding, corpora on one grid of tail means.
    """
    if delta_p == 0:
        raise ValueError("nudge has no effect; score-optimal undefined")
    per_model = _SCORE_OPT_CACHE.setdefault(model, {})
    todo = [p0 for p0 in dict.fromkeys(p0s) if (p0, delta_p) not in per_model]
    live = [p0 for p0 in todo if p0 != 0]  # p0 = 0 flags no one: tau = 1
    solved = {}
    if live and is_empirical(model):
        solved = dict(zip(live, _empirical_score_optimal(model, live, delta_p)))
    elif live:
        solved = dict(zip(live, _analytic_score_optimal(model, live, delta_p)))
    for p0 in todo:
        per_model[p0, delta_p] = solved.get(p0, 1.0)
    return [per_model[p0, delta_p] for p0 in p0s]


def _analytic_score_optimal(model: JointScoreModel, p0s: list, delta_p: float) -> list[float]:
    """The root of H in [0, 1] for every p0 at once, clamped to 0 where
    H(0) <= 0 and to 1 where H(1) >= 0.  H(0) and H(1) come from one grid
    evaluation of H.
    """
    ratio = np.array(p0s) / delta_p
    ends = np.repeat([0.0, 1.0], ratio.size)
    h0, h1 = _foc_grid(model, np.concatenate([ratio, ratio]), ends).reshape(2, -1)
    tau = np.where(h0 <= 0.0, 0.0, 1.0)
    rest = np.flatnonzero((h0 > 0.0) & (h1 < 0.0))
    if rest.size:
        ratio = ratio[rest]
        lo, hi = np.zeros(rest.size), np.ones(rest.size)
        tau[rest] = _chandrupatla(lambda i, x: _foc_grid(model, ratio[i], x), lo, hi, h0[rest], h1[rest])
    return tau.tolist()


def _chandrupatla(f, x1: np.ndarray, x2: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """A root of f in each bracket [x1, x2], given f1 = f(x1) and f2 = f(x2)
    of opposite signs, by Chandrupatla's method (Adv. Eng. Software 28(3),
    1997): inverse quadratic interpolation through the bracket's ends and the
    point last dropped from it where their values make that safe, else
    bisection.

    ``f(i, x)`` returns f of the elements with indices i at the points x.
    Each element iterates on its own, so its result does not depend on the
    others, and leaves the live set once f is 0 at its new point or its
    bracket is at most two ulp of its larger end wide.  The result is the end
    with the smaller |f|.
    """
    out = np.empty(x1.size)
    live, t, dx = np.arange(x1.size), 0.5, x2 - x1
    while live.size:
        xt = x1 + t * dx
        ft = f(live, xt)
        same = np.sign(ft) == np.sign(f1)  # the root lies between xt and x2
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = xt, ft
        dx = x2 - x1
        with np.errstate(divide="ignore", invalid="ignore"):
            # the least step, one ulp of the larger end, as a fraction of the bracket
            tl = np.spacing(np.maximum(np.abs(x1), np.abs(x2))) / np.abs(dx)
            done = (tl >= 0.5) | (f1 == 0.0)
            if done.any():  # the live set shrinks only on such a step
                out[live[done]] = np.where(np.abs(f1) < np.abs(f2), x1, x2)[done]
                keep = ~done
                live, x1, x2, x3, f1, f2, f3, tl, dx = (v[keep] for v in (live, x1, x2, x3, f1, f2, f3, tl, dx))
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            iqi = (phi * phi < xi) & ((1.0 - phi) * (1.0 - phi) < 1.0 - xi)
            t_iqi = f1 / (f2 - f1) * f3 / (f2 - f3) + (x3 - x1) / dx * f1 / (f3 - f1) * f2 / (f3 - f2)
            t = np.minimum(np.maximum(np.where(iqi, t_iqi, 0.5), tl), 1.0 - tl)
    return out


def _empirical_score_optimal(model: JointScoreModel, p0s: list, delta_p: float) -> list[float]:
    """Grid argmax of fluid_efficacy for every p0, smallest tau on ties.

    All calls on a model share one grid of tail means, computed on the first,
    and every grid value is bitwise the scalar one.  Grid points below 1 with
    an empty tail are skipped; at tau = 1 no one is flagged and the efficacy
    is E[r].
    """
    grid = _GRID_TAILS.get(model)
    if grid is None:
        taus = np.linspace(0.0, 1.0, DEFAULT_GRID)
        grid = _GRID_TAILS[model] = (taus, conditional_mean_above_grid(model, taus))
    taus, cma = grid
    er = mean_true_score(model)
    return [_grid_argmax(taus, _efficacy_grid(taus, cma, er, p0, delta_p)) for p0 in p0s]


def _efficacy_grid(taus: np.ndarray, cma: np.ndarray, er: float, p0, delta_p: float) -> np.ndarray:
    """fluid_efficacy at every tau of a grid with tail means cma, with the same
    elementwise arithmetic; p0 broadcasts against taus.

    NaN below tau = 1 where the tail is empty; E[r] where no one is flagged.
    """
    w = delta_p * (1.0 - taus)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(w == 0.0, er, (p0 * er + w * cma) / (p0 + w))


def _objective_grid(taus, cma, er: float, n: float, m, p0, delta_p: float) -> np.ndarray:
    """fluid_objective at every tau of an array with tail means cma, with the
    same elementwise arithmetic; m and p0 broadcast against taus.

    NaN where the scalar call would need a missing tail mean.
    """
    served = np.minimum(n * (p0 + delta_p * (1.0 - taus)), m)
    return np.where(served == 0.0, 0.0, served * _efficacy_grid(taus, cma, er, p0, delta_p))


def _grid_argmax(taus: np.ndarray, values: np.ndarray) -> float:
    """The smallest tau attaining the maximum; NaN points (empty tails) are skipped."""
    return float(taus[int(np.argmax(np.where(np.isnan(values), -np.inf, values)))])


def two_point_threshold(rho: float, model: JointScoreModel, params: BehavioralParams) -> float:
    """min(score-optimal, capacity-matching): the fluid-optimal threshold."""
    if not rho > 0:
        raise ValueError("rho must be positive")
    return min(
        score_optimal_threshold(model, params),
        capacity_matching_threshold(rho, params),
    )


def _capacity_matching_thresholds(rho, p0, delta_p: float) -> np.ndarray:
    """capacity_matching_threshold at delta_p > 0, with the same elementwise
    arithmetic; rho and p0 broadcast."""
    return np.minimum(1.0, np.maximum(0.0, 1.0 - (rho - p0) / delta_p))


def _two_point_thresholds(rho, model: JointScoreModel, p0, delta_p: float) -> np.ndarray:
    """two_point_threshold at each (rho, p0) of broadcast arrays at one
    delta_p, bitwise the scalar; the score-optimal thresholds of all p0 values
    come from one ``_score_optimal_thresholds`` call."""
    rho, p0 = np.asarray(rho, dtype=float), np.asarray(p0, dtype=float)
    if not (rho > 0).all():
        raise ValueError("rho must be positive")
    tau_s = np.reshape(_score_optimal_thresholds(model, p0.ravel().tolist(), delta_p), p0.shape)
    return np.minimum(tau_s, _capacity_matching_thresholds(rho, p0, delta_p))


def critical_baseline(rho: float, model: JointScoreModel, delta_p: float) -> float:
    """Smallest p0 at which the score-optimal threshold starts to bind.

    The score-optimal threshold binds when tau_score(p0) <= tau_c(p0), and
    ``_chandrupatla`` finds where it starts to over p0 in [0, 1 - delta_p] as
    the root of a g(p0) that is positive exactly when tau_score(p0) > tau_c(p0).
    Analytic models, whose H(.; p0) is strictly decreasing in tau, take the
    continuous g(p0) = H(tau_c(p0); p0), with no score-optimal solve.
    Empirical corpora, whose score-optimal threshold is a grid argmax, take
    g(p0) = tau_score(p0) - tau_c(p0), linear in p0 between argmax switches,
    so a crossing there is found exactly and one at a switch to two ulp.
    Returns 0 if the threshold already binds at p0 = 0 and 1 - delta_p if it
    never binds, as at rho >= 1, where capacity covers everyone who could
    request.
    """
    if not rho > 0.0:
        raise ValueError("rho must be positive")
    if not 0.0 < delta_p <= 1.0:
        raise ValueError("delta_p must be in (0, 1]")
    p_max = 1.0 - delta_p

    def tau_c(p0: np.ndarray) -> np.ndarray:
        return _capacity_matching_thresholds(rho, p0, delta_p)

    # tau_score(0) = 1 binds exactly where tau_c(0) rounds to 1; delta_p = 1 leaves only p0 = 0
    if p_max == 0.0 or 1.0 - rho / delta_p >= 1.0:
        return 0.0
    if is_empirical(model):

        def g(i, p0: np.ndarray) -> np.ndarray:
            return np.array(_score_optimal_thresholds(model, p0.tolist(), delta_p)) - tau_c(p0)

    else:

        def g(i, p0: np.ndarray) -> np.ndarray:
            return _foc_grid(model, p0 / delta_p, tau_c(p0))

    ends = np.array([0.0, p_max])
    g_ends = g(None, ends)
    if g_ends[1] > 0.0:
        return p_max
    if g_ends[0] <= 0.0:
        return 0.0
    return float(_chandrupatla(g, ends[:1], ends[1:], g_ends[:1], g_ends[1:])[0])


def max_relative_gap_capacity_matching(
    model: JointScoreModel, params: BehavioralParams
) -> float:
    """Worst-case relative loss of capacity-matching across operating points.

    Equals (R(tau_score) - E[r]) / R(tau_score); attained when capacity is no
    larger than baseline demand.  At p0 = 0 the score-optimal threshold is 1
    and the right-endpoint limit E[r | r_hat = q(1)] stands in for R(1).
    """
    if params.delta_p == 0:
        raise ValueError("nudge has no effect; score-optimal undefined")
    er = mean_true_score(model)
    if params.p0 == 0:
        r_star = conditional_mean_top(model)
    else:
        r_star = fluid_efficacy(score_optimal_threshold(model, params), model, params)
    return (r_star - er) / r_star


# --- sweeps -----------------------------------------------------------------


def gap_curve(
    policy: ThresholdPolicy,
    *,
    axis: str,
    grid,
    model: JointScoreModel,
    params: BehavioralParams,
    rho: float | None = None,
    n: float = 1.0,
) -> list[GapPoint]:
    """Fluid suboptimality of a policy along a rho or p0 sweep.

    ``axis="rho"`` sweeps the capacity ratio with params fixed; ``axis="p0"``
    sweeps the baseline request probability at fixed rho (required).  The gap
    is W(tau*) - W(tau_policy) >= 0; the relative gap divides by W(tau*) and
    is defined as 0 at degenerate points where W(tau*) = 0.

    The sweep is solved as a whole: its two-point thresholds in one array
    pass (a p0 sweep's score-optimal thresholds in one lockstep solve), then
    every objective from one grid of tail means and one ``_objective_grid``
    call.  Each value is bitwise the one a
    point-by-point evaluation gives.  Every point is checked, and its
    thresholds found, before any objective is evaluated.
    """
    if axis not in ("rho", "p0"):
        raise ValueError("axis must be 'rho' or 'p0'")
    if axis == "p0" and rho is None:
        raise ValueError("p0 sweeps need a fixed rho")
    if not n >= 1:
        raise ValueError("n must be >= 1")
    xs = [float(x) for x in grid]
    if axis == "rho":
        setups = [(x, params) for x in xs]
        rhos, p0s = np.array(xs), params.p0
    else:
        setups = [(rho, BehavioralParams(x, params.delta_p)) for x in xs]
        rhos, p0s = rho, np.array(xs)
    try:  # the two-point column in one array pass, a p0 sweep's in one lockstep solve
        stars = _two_point_thresholds(rhos, model, p0s, params.delta_p) if xs else np.empty(0)
    except ValueError:  # raise what the first point to fail raises point by point
        for r, p in setups:
            two_point_threshold(r, model, p)
            policy.threshold(r, model, p)
        raise
    pols = [policy.threshold(r, model, p) for r, p in setups]
    # both objectives of every point from one grid of tail means
    taus = np.stack([stars, np.array(pols, dtype=float)], axis=1)
    cols = np.array([(r * n, p.p0) for r, p in setups]).reshape(-1, 2)
    cma = conditional_mean_above_grid(model, taus.ravel()).reshape(taus.shape)
    values = _objective_grid(taus, cma, mean_true_score(model), n, cols[:, :1], cols[:, 1:], params.delta_p)
    points = []
    for x, tau_star, tau_pol, (w_star, w_pol) in zip(xs, stars.tolist(), pols, values.tolist()):
        if math.isnan(w_star) or math.isnan(w_pol):  # a threshold in an empty tail
            raise ValueError("empty tail")
        gap = w_star - w_pol
        if gap < -1e-7 * max(1.0, abs(w_star)):
            raise AssertionError(
                f"two-point threshold beaten at {axis}={x}: {w_pol} > {w_star}"
            )
        gap = max(gap, 0.0)
        rel = gap / w_star if w_star > 0.0 else 0.0
        points.append(
            GapPoint(
                x=x,
                tau_policy=tau_pol,
                tau_star=tau_star,
                objective_policy=w_pol,
                objective_star=w_star,
                gap=gap,
                rel_gap=rel,
            )
        )
    return points
