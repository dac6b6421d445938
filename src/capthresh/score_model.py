"""Joint models of true and predicted scores.

Everything downstream (fluid planning, cohort simulation, evaluation metrics)
consumes a small set of distributional primitives defined here: the mean true
score, quantiles of the predicted score, conditional means of the true score
above or at a predicted-score cutoff, the true-positive rate, and cohort
sampling.

Model kinds:

* :class:`Analytic` -- a continuous true-score law (:class:`Uniform01` or a
  :class:`BetaMixture`) observed either perfectly or through clipped Gaussian
  noise.  Quantiles and conditional means come from Gauss-Legendre quadrature
  against the true-score density, so they carry no sampling noise.
* :class:`EmpiricalJoint` / :class:`EmpiricalLabeled` -- finite corpora of
  (predicted, true) or (predicted, outcome) records.  Conditional means are
  tail averages under the order-statistic quantile convention below.
* ``Analytic(EmpiricalScores(...), Perfect())`` behaves like an empirical
  corpus whose predictor reproduces the scores exactly.

Empirical quantile convention: the tau-quantile is the ceil(tau*n)-th
ascending order statistic, so the flagged set is exactly the top
``n - ceil(tau*n)`` records.  Ties in predicted score are broken by a
permutation seeded with the model's ``tie_seed``, which keeps every tail
statistic a deterministic function of tau.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import optimize, stats
from scipy.special import betainc, ndtr, roots_legendre

QUAD_NODES = 2048

# Step for the central finite difference behind conditional_mean_at on noisy
# analytic models.  Quadrature noise is ~1e-13, so truncation dominates and
# the derivative is good to ~1e-8.
_FD_STEP = 1e-4

_LEGGAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _leggauss01(n: int = QUAD_NODES) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights transplanted to [0, 1]."""
    if n not in _LEGGAUSS_CACHE:
        x, w = roots_legendre(n)
        _LEGGAUSS_CACHE[n] = (0.5 * (x + 1.0), 0.5 * w)
    return _LEGGAUSS_CACHE[n]


def flagged_count(n: int, tau: float) -> int:
    """Number of records flagged at quantile threshold tau.

    Equals ``n - ceil(tau * n)`` with a guard against float noise pushing
    ``tau * n`` just above an integer.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    cut = math.ceil(tau * n - 1e-9)
    return n - min(max(cut, 0), n)


# ---------------------------------------------------------------------------
# True-score distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Uniform01:
    """True scores uniform on [0, 1]."""

    def mean(self) -> float:
        return 0.5

    def pdf(self, x):
        return np.ones_like(np.asarray(x, dtype=float))

    def cdf(self, x):
        return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)

    def ppf(self, u: float) -> float:
        return float(u)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.random(n)


@dataclass(frozen=True)
class BetaMixture:
    """Mixture of beta laws, components given as (weight, alpha, beta).

    The cdf sums ``w * betainc(a, b, clip(x, 0, 1))`` per component, which is
    what ``scipy.stats.beta.cdf`` computes, without its per-call overhead.
    """

    components: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        comps = tuple((float(w), float(a), float(b)) for w, a, b in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("mixture needs at least one component")
        if not all(math.isfinite(v) for comp in comps for v in comp):
            raise ValueError("mixture weights and beta shapes must be finite")
        if any(w < 0 for w, _, _ in comps):
            raise ValueError("mixture weights must be nonnegative")
        if abs(sum(w for w, _, _ in comps) - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        if any(a <= 0 or b <= 0 for _, a, b in comps):
            raise ValueError("beta shape parameters must be strictly positive")

    def mean(self) -> float:
        return sum(w * a / (a + b) for w, a, b in self.components)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for w, a, b in self.components:
            out += w * stats.beta.pdf(x, a, b)
        return out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        xc = np.clip(x, 0.0, 1.0)
        for w, a, b in self.components:
            out += w * betainc(a, b, xc)
        return out

    def ppf(self, u: float) -> float:
        if u <= 0.0:
            return 0.0
        if u >= 1.0:
            return 1.0
        return float(optimize.brentq(lambda x: float(self.cdf(x)) - u, 0.0, 1.0, xtol=1e-14))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        weights = np.array([w for w, _, _ in self.components])
        alphas = np.array([a for _, a, _ in self.components])
        betas = np.array([b for _, _, b in self.components])
        comp = rng.choice(len(self.components), size=n, p=weights)
        return rng.beta(alphas[comp], betas[comp])


def _readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class EmpiricalScores:
    """A finite list of observed true scores in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        vals = _readonly(self.values)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("empirical score list must be a nonempty 1-d sequence")
        if vals.min() < 0.0 or vals.max() > 1.0:
            raise ValueError("empirical scores must lie in [0, 1]")

    def mean(self) -> float:
        return float(self.values.mean())

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.choice(self.values, size=n, replace=True)


TrueScoreDistribution = Uniform01 | BetaMixture | EmpiricalScores


# ---------------------------------------------------------------------------
# Predictors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Perfect:
    """Predicted score equals the true score pointwise."""


@dataclass(frozen=True)
class GaussianNoiseClipped:
    """Predicted score is clip(r + eps, 0, 1) with eps ~ Normal(0, sigma^2)."""

    sigma: float

    def __post_init__(self):
        if not math.isfinite(self.sigma):
            raise ValueError("sigma must be finite")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


Predictor = Perfect | GaussianNoiseClipped


def _is_noisy(predictor: Predictor) -> bool:
    return isinstance(predictor, GaussianNoiseClipped) and predictor.sigma > 0.0


# ---------------------------------------------------------------------------
# Joint models
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Analytic:
    """A true-score law observed through a predictor."""

    true_scores: TrueScoreDistribution
    predictor: Predictor = Perfect()

    def __post_init__(self):
        if isinstance(self.true_scores, EmpiricalScores) and _is_noisy(self.predictor):
            raise ValueError(
                "noise predictors need a continuous true-score law; "
                "sample a corpus and add noise there instead"
            )


@dataclass(frozen=True, eq=False)
class EmpiricalJoint:
    """Corpus of (predicted score, true score) records."""

    predicted: np.ndarray
    true: np.ndarray
    tie_seed: int = 0

    def __post_init__(self):
        pred = _readonly(self.predicted)
        true = _readonly(self.true)
        object.__setattr__(self, "predicted", pred)
        object.__setattr__(self, "true", true)
        if pred.ndim != 1 or pred.size == 0 or pred.shape != true.shape:
            raise ValueError("corpus must be nonempty with matching predicted/true lengths")
        for name, arr in (("predicted", pred), ("true", true)):
            if arr.min() < 0.0 or arr.max() > 1.0:
                raise ValueError(f"{name} scores must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class EmpiricalLabeled:
    """Corpus of (predicted score, binary outcome) records.

    The role of the true score is played by the event probability, so the mean
    true score is the positive rate.
    """

    predicted: np.ndarray
    outcomes: np.ndarray
    tie_seed: int = 0

    def __post_init__(self):
        pred = _readonly(self.predicted)
        outc = _readonly(self.outcomes)
        object.__setattr__(self, "predicted", pred)
        object.__setattr__(self, "outcomes", outc)
        if pred.ndim != 1 or pred.size == 0 or pred.shape != outc.shape:
            raise ValueError("corpus must be nonempty with matching predicted/outcome lengths")
        if pred.min() < 0.0 or pred.max() > 1.0:
            raise ValueError("predicted scores must lie in [0, 1]")
        if not np.isin(outc, (0.0, 1.0)).all():
            raise ValueError("outcomes must be 0 or 1")


JointScoreModel = Analytic | EmpiricalJoint | EmpiricalLabeled


@dataclass(frozen=True, eq=False)
class Population:
    """A sampled cohort of individuals.

    ``y`` is present iff the cohort was drawn in binary-outcome mode.
    """

    r: np.ndarray
    r_hat: np.ndarray
    y: np.ndarray | None = None

    def __post_init__(self):
        r = _readonly(self.r)
        r_hat = _readonly(self.r_hat)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "r_hat", r_hat)
        if r.ndim != 1 or r.size == 0 or r.shape != r_hat.shape:
            raise ValueError("population must be nonempty with matching r/r_hat lengths")
        if self.y is not None:
            y = _readonly(self.y)
            object.__setattr__(self, "y", y)
            if y.shape != r.shape:
                raise ValueError("y must match population length")

    @property
    def n(self) -> int:
        return self.r.size


# ---------------------------------------------------------------------------
# Analytic engines
# ---------------------------------------------------------------------------


class _PerfectEngine:
    """Quantiles and conditional means when r_hat = r with a continuous law.

    Both maps are pure in tau, so results are memoized per engine; sweeps
    revisit the same tau grids constantly.
    """

    def __init__(self, dist: TrueScoreDistribution):
        self.dist = dist
        self._q_cache: dict[float, float] = {}
        self._cma_cache: dict[float, float] = {}

    def quantile(self, tau: float) -> float:
        q = self._q_cache.get(tau)
        if q is None:
            q = self._q_cache[tau] = self.dist.ppf(tau)
        return q

    def cond_mean_above(self, tau: float) -> float:
        out = self._cma_cache.get(tau)
        if out is not None:
            return out
        if tau == 0.0:
            out = self.dist.mean()
        else:
            q = self.quantile(tau)
            x, w = _leggauss01()
            # integral of x f(x) over [q, 1], nodes mapped onto the tail
            nodes = q + (1.0 - q) * x
            integral = (1.0 - q) * float(np.sum(w * nodes * self.dist.pdf(nodes)))
            out = integral / (1.0 - tau)
        self._cma_cache[tau] = out
        return out

    def cond_mean_at(self, tau: float) -> float:
        return self.quantile(tau)

    def cond_mean_top(self) -> float:
        return self.dist.ppf(1.0)


class _NoisyEngine:
    """Quantiles and conditional means for r_hat = clip(r + eps, 0, 1).

    All quantities are Gauss-Legendre integrals of closed-form normal tails
    against the true-score density; clipping shows up as atoms at 0 and 1
    that are split fractionally, matching the top-(1-tau) flagging rule.
    """

    def __init__(self, dist: TrueScoreDistribution, sigma: float):
        self.dist = dist
        self.sigma = sigma
        x, w = _leggauss01()
        self._nodes = x
        self._mass = w * dist.pdf(x)
        self._node_values = self._mass * x
        self._q_cache: dict[float, float] = {}
        self._cma_cache: dict[float, float] = {}

    def _cdf_hat(self, s: float) -> float:
        # P(r + eps <= s); the r_hat law has atom P(. <= 0) at zero.
        return float(np.sum(self._mass * ndtr((s - self._nodes) / self.sigma)))

    @cached_property
    def _atom_low(self) -> float:
        return self._cdf_hat(0.0)

    @cached_property
    def _atom_high(self) -> float:
        return 1.0 - self._cdf_hat(1.0)

    def quantile(self, tau: float) -> float:
        q = self._q_cache.get(tau)
        if q is not None:
            return q
        if tau <= self._atom_low:
            q = 0.0
        elif tau >= 1.0 - self._atom_high:
            q = 1.0
        else:
            q = float(
                optimize.brentq(lambda s: self._cdf_hat(s) - tau, 0.0, 1.0, xtol=1e-13)
            )
        self._q_cache[tau] = q
        return q

    def cond_mean_above(self, tau: float) -> float:
        out = self._cma_cache.get(tau)
        if out is not None:
            return out
        self._cma_cache[tau] = out = self._cond_mean_above_uncached(tau)
        return out

    def _cond_mean_above_uncached(self, tau: float) -> float:
        q = self.quantile(tau)
        if q >= 1.0:
            return self.cond_mean_top()
        if q <= 0.0:
            # Tail spans all of r_hat > 0 plus a fractional slice of the atom
            # at zero (atom members are exchangeable).
            above = float(np.sum(self._node_values * ndtr(self._nodes / self.sigma)))
            at_zero = float(np.sum(self._node_values * ndtr(-self._nodes / self.sigma)))
            a0 = self._atom_low
            slice_frac = (a0 - tau) / a0 if a0 > 0 else 0.0
            return (above + slice_frac * at_zero) / (1.0 - tau)
        tail = float(np.sum(self._node_values * (1.0 - ndtr((q - self._nodes) / self.sigma))))
        return tail / (1.0 - tau)

    def cond_mean_at(self, tau: float) -> float:
        # derivative identity: E[r | r_hat = q(tau)] = -d/dtau [(1-tau) E[r | r_hat >= q(tau)]]
        h = _FD_STEP
        lo = max(tau - h, 0.0)
        hi = min(tau + h, 1.0 - 1e-9)
        g_lo = (1.0 - lo) * self.cond_mean_above(lo)
        g_hi = (1.0 - hi) * self.cond_mean_above(hi)
        return -(g_hi - g_lo) / (hi - lo)

    def cond_mean_top(self) -> float:
        top = float(np.sum(self._node_values * (1.0 - ndtr((1.0 - self._nodes) / self.sigma))))
        return top / self._atom_high


class _EmpiricalEngine:
    """Order-statistic quantiles and tail means over a finite corpus."""

    def __init__(self, predicted: np.ndarray, values: np.ndarray, tie_seed: int):
        self.predicted = predicted
        self.values = values
        self.n = predicted.size
        tie = np.random.default_rng(tie_seed).permutation(self.n)
        # descending by predicted score, ties resolved by the permutation
        self.desc_order = np.lexsort((tie, -predicted))
        self._values_desc_cum = np.cumsum(values[self.desc_order])
        self._pred_asc = predicted[self.desc_order][::-1]
        self._mean = float(values.mean())

    def quantile(self, tau: float) -> float:
        k = max(1, math.ceil(tau * self.n - 1e-9))
        return float(self._pred_asc[min(k, self.n) - 1])

    def cond_mean_above(self, tau: float) -> float:
        k = flagged_count(self.n, tau)
        if k == 0:
            raise ValueError("empty tail")
        return float(self._values_desc_cum[k - 1]) / k

    def cond_mean_above_grid(self, taus: np.ndarray) -> np.ndarray:
        """cond_mean_above at every tau of an array; NaN where the tail is empty."""
        cut = np.clip(np.ceil(taus * self.n - 1e-9), 0, self.n).astype(np.int64)
        k = self.n - cut
        out = np.full(taus.shape, np.nan)
        filled = k > 0
        out[filled] = self._values_desc_cum[k[filled] - 1] / k[filled]
        return out

    def cond_mean_at(self, tau: float, bandwidth: float) -> float:
        lo = max(tau - bandwidth / 2.0, 0.0)
        hi = min(tau + bandwidth / 2.0, 1.0)
        i_lo = max(1, math.ceil(lo * self.n - 1e-9))
        i_hi = max(1, math.ceil(hi * self.n - 1e-9))
        count = i_hi - i_lo + 1
        if count < 2.0 / bandwidth:
            raise ValueError("insufficient resolution")
        asc_values = self.values[self.desc_order][::-1]
        return float(asc_values[i_lo - 1 : i_hi].mean())

    def cond_mean_top(self) -> float:
        return float(self.values[self.desc_order[0]])

    def mean(self) -> float:
        return self._mean


_ENGINES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _engine(model: JointScoreModel):
    eng = _ENGINES.get(model)
    if eng is not None:
        return eng
    if isinstance(model, Analytic):
        dist = model.true_scores
        if isinstance(dist, EmpiricalScores):
            eng = _EmpiricalEngine(dist.values, dist.values, tie_seed=0)
        elif _is_noisy(model.predictor):
            eng = _NoisyEngine(dist, model.predictor.sigma)
        else:
            eng = _PerfectEngine(dist)
    elif isinstance(model, EmpiricalJoint):
        eng = _EmpiricalEngine(model.predicted, model.true, model.tie_seed)
    elif isinstance(model, EmpiricalLabeled):
        eng = _EmpiricalEngine(model.predicted, model.outcomes.astype(float), model.tie_seed)
    else:
        raise TypeError(f"not a JointScoreModel: {model!r}")
    _ENGINES[model] = eng
    return eng


def is_empirical(model: JointScoreModel) -> bool:
    """True when quantiles come from a finite corpus rather than a density."""
    return isinstance(model, (EmpiricalJoint, EmpiricalLabeled)) or (
        isinstance(model, Analytic) and isinstance(model.true_scores, EmpiricalScores)
    )


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def mean_true_score(model: JointScoreModel) -> float:
    """E[r]: analytic moment, corpus average, or positive rate."""
    if isinstance(model, Analytic) and not isinstance(model.true_scores, EmpiricalScores):
        return model.true_scores.mean()
    return _engine(model).mean()


def predicted_quantile(model: JointScoreModel, tau: float) -> float:
    """The tau-quantile of the predicted-score law."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    return _engine(model).quantile(tau)


def conditional_mean_above(model: JointScoreModel, tau: float) -> float:
    """E[r | r_hat >= q(tau)], the mean true score of the flagged tail."""
    if not 0.0 <= tau < 1.0:
        raise ValueError(f"tau must be in [0, 1), got {tau}")
    return _engine(model).cond_mean_above(tau)


def conditional_mean_above_grid(model: JointScoreModel, taus: np.ndarray) -> np.ndarray:
    """conditional_mean_above at every tau of an array in [0, 1]; corpora only.

    Bitwise equal to the scalar call wherever the tail holds a record; NaN
    where it holds none (always at tau = 1).
    """
    eng = _engine(model)
    if not isinstance(eng, _EmpiricalEngine):
        raise TypeError("tail means on a grid need an empirical corpus")
    taus = np.asarray(taus, dtype=float)
    if not ((taus >= 0.0) & (taus <= 1.0)).all():
        raise ValueError("taus must lie in [0, 1]")
    return eng.cond_mean_above_grid(taus)


def conditional_mean_at(
    model: JointScoreModel, tau: float, bandwidth: float | None = None
) -> float:
    """E[r | r_hat = q(tau)], the density-point conditional mean.

    Analytic models are exact (perfect predictors) or use the derivative of
    the tail mass ``(1-tau) * conditional_mean_above(tau)``.  Empirical models
    average a quantile bin of width ``bandwidth`` (default 0.05); this path is
    diagnostic only and never feeds threshold optimization.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    eng = _engine(model)
    if isinstance(eng, _EmpiricalEngine):
        return eng.cond_mean_at(tau, 0.05 if bandwidth is None else bandwidth)
    return eng.cond_mean_at(tau)


def conditional_mean_top(model: JointScoreModel) -> float:
    """The tau -> 1 limit of conditional_mean_at: E[r | r_hat = q(1)]."""
    return _engine(model).cond_mean_top()


def _cond_mean_at_boundary(model: JointScoreModel, tau: float) -> float:
    """conditional_mean_at extended to tau in {0, 1} for analytic models."""
    eng = _engine(model)
    if tau >= 1.0:
        return eng.cond_mean_top()
    if tau <= 0.0:
        if isinstance(eng, _PerfectEngine):
            return eng.cond_mean_at(0.0)
        if isinstance(eng, _NoisyEngine):
            h = _FD_STEP
            g0 = eng.cond_mean_above(0.0)
            gh = (1.0 - h) * eng.cond_mean_above(h)
            return -(gh - g0) / h
        raise ValueError("boundary conditional mean undefined for empirical models")
    return conditional_mean_at(model, tau)


def tpr_at(model: JointScoreModel, tau: float) -> float:
    """True-positive rate of flagging at tau, reading r as P(Y=1).

    Defined through the tail-mass identity
    ``TPR(tau) * E[r] = (1 - tau) * conditional_mean_above(tau)``, which holds
    exactly by construction; empirical corpora can exceed 1 by at most one
    order-statistic step of quantization.
    """
    if not 0.0 <= tau < 1.0:
        raise ValueError(f"tau must be in [0, 1), got {tau}")
    er = mean_true_score(model)
    if er == 0.0:
        raise ValueError("no positives")
    return (1.0 - tau) * conditional_mean_above(model, tau) / er


def sample_population(
    model: JointScoreModel,
    n: int,
    binary_mode: bool = False,
    seed: int | np.random.SeedSequence | np.random.Generator = 0,
    *,
    with_replacement: bool = True,
) -> Population:
    """Draw an i.i.d. cohort of n individuals; deterministic given the seed.

    Draw order per cohort: true scores, then predictor noise, then (binary
    mode) outcomes -- each as one vectorized pass in individual-index order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    if isinstance(model, Analytic) and not isinstance(model.true_scores, EmpiricalScores):
        r = model.true_scores.sample(rng, n)
        if _is_noisy(model.predictor):
            r_hat = np.clip(r + model.predictor.sigma * rng.standard_normal(n), 0.0, 1.0)
        else:
            r_hat = r.copy()
        y = (rng.random(n) < r).astype(float) if binary_mode else None
        return Population(r=r, r_hat=r_hat, y=y)

    if isinstance(model, Analytic):
        values = model.true_scores.values
        idx = rng.choice(values.size, size=n, replace=with_replacement)
        r = values[idx]
        y = (rng.random(n) < r).astype(float) if binary_mode else None
        return Population(r=r, r_hat=r.copy(), y=y)

    if isinstance(model, EmpiricalJoint):
        idx = rng.choice(model.predicted.size, size=n, replace=with_replacement)
        r = model.true[idx]
        r_hat = model.predicted[idx]
        y = (rng.random(n) < r).astype(float) if binary_mode else None
        return Population(r=r, r_hat=r_hat, y=y)

    if isinstance(model, EmpiricalLabeled):
        idx = rng.choice(model.predicted.size, size=n, replace=with_replacement)
        y = model.outcomes[idx]
        return Population(r=y.astype(float), r_hat=model.predicted[idx], y=y if binary_mode else None)

    raise TypeError(f"not a JointScoreModel: {model!r}")
