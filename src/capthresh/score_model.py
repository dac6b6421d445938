"""Joint models of true and predicted scores.

Everything downstream (fluid planning, cohort simulation, evaluation metrics)
consumes a small set of distributional primitives defined here: the mean true
score, quantiles of the predicted score, conditional means of the true score
above or at a predicted-score cutoff, the true-positive rate, and cohort
sampling.

Model kinds:

* :class:`Analytic` -- a continuous true-score law (:class:`Uniform01` or a
  :class:`BetaMixture`) observed either perfectly or through clipped Gaussian
  noise.  Perfect predictors use the law's closed-form cdf and partial first
  moment; noisy ones sum normal tails, or the normal kernel for a point mean,
  over a Gauss rule built for each beta component.  Either way there is no
  sampling noise, and quantiles are safeguarded Newton solves.
* :class:`EmpiricalJoint` / :class:`EmpiricalLabeled` -- finite corpora of
  (predicted, true) or (predicted, outcome) records.  Conditional means are
  tail averages under the order-statistic quantile convention below.

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
from scipy.special import betainc, betaincc, betaln, ndtr, xlog1py, xlogy

# Quantile solves start from interpolation in a cdf table on evenly spaced
# points of [0, 1].  A closed-form cdf makes a fine table cheap, and most
# solves then take one Newton step; a quadrature cdf gets a coarse one.
_FINE_TABLE_POINTS = 4097
_COARSE_TABLE_POINTS = 129
_NEWTON_MAX_ITER = 100
# Noisy-model quadrature: a Gauss rule of ceil(3 / sigma) nodes, clamped to
# [_MIN_NODES, _MAX_NODES], per beta component, over blocks of cutoffs whose
# (cutoffs x nodes) temporaries hold at most _QUAD_CELLS entries (128 KiB), so
# peak memory stays where it was with one cutoff at a time.
_MIN_NODES, _MAX_NODES, _QUAD_CELLS = 64, 1024, 8 * 2048


def _beta_gauss(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss rule of the beta(a, b) law: nodes, and weights summing to 1.

    Golub and Welsch (Math. Comp. 23, 1969): the eigenvalues t and the squared
    first eigenvector components of the Jacobi matrix of the weight
    (1 - t)^(b-1) (1 + t)^(a-1) on [-1, 1], with nodes (t + 1) / 2.  Unlike
    ``scipy.special.roots_jacobi``, this stays finite for shapes of 1e4 and up.
    """
    from scipy.linalg import eigh_tridiagonal  # deferred: only noisy engines need it

    s, k = a + b, np.arange(float(n))
    c = 2.0 * k + s - 2.0
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 can only occur at k = 0 or 1
        diag = (a - b) * (s - 2.0) / (c * (c + 2.0))
        off2 = 4.0 * k * (k + a - 1.0) * (k + b - 1.0) * (k + s - 2.0) / (c * c * (c + 1.0) * (c - 1.0))
    diag[0] = (a - b) / s
    off2[1] = 4.0 * a * b / (s * s * (s + 1.0))  # the k = 1 term with its factor s - 1 cancelled
    t, v = eigh_tridiagonal(diag, np.sqrt(off2[1:]))
    return 0.5 * (t + 1.0), v[0] ** 2


def flagged_counts(n: int, taus):
    """Number of records flagged at each quantile threshold of a float array
    in [0, 1] (or at one float): ``n - ceil(tau * n)``, with a guard against
    float noise pushing ``tau * n`` just above an integer.
    """
    return n - np.ceil(taus * n - 1e-9).astype(np.int64)


def flagged_count(n: int, tau: float) -> int:
    """flagged_counts at one tau, which must lie in [0, 1]."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    return int(flagged_counts(n, tau))


def _cdf_table(cdf_and_density, points: int) -> tuple[np.ndarray, np.ndarray]:
    """A cdf on evenly spaced points of [0, 1], cut into cells for _invert_cdf.

    Returns the cdf at the inner points, which delimit the cells, and one
    column per cell: its ends lo and hi, the cdf at lo, the cdf increment dF,
    and the two cubic Hermite slope terms dF / density - (hi - lo) at lo and
    at hi (infinite where a density is 0).
    """
    x = np.linspace(0.0, 1.0, points)
    f, d = cdf_and_density(x)
    width, df = np.diff(x), np.diff(f)
    with np.errstate(divide="ignore", invalid="ignore"):
        cells = np.array([x[:-1], x[1:], f[:-1], df, df / d[:-1] - width, df / d[1:] - width])
    return f[1:-1], cells


def _invert_cdf(cdf_and_density, u: np.ndarray, table, xtol: float) -> np.ndarray:
    """Solve cdf(x) = u for each u, with x in [0, 1] and cdf nondecreasing.

    Newton steps start from cubic Hermite interpolation of the inverse cdf in
    ``table`` (linear where that leaves the cell) and stay inside a bracket
    [lo, hi] with cdf(lo) <= u <= cdf(hi); a step that would leave it bisects
    instead.  Every element stops on its own, once a step is at most
    ``xtol``, so its value never depends on which other elements share the
    call.
    """
    edges, cells = table
    lo, hi, f0, df, bend0, bend1 = cells[:, edges.searchsorted(u, side="right")]
    out = idx = None  # once some elements are done: the result, and where the rest go
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.fmin((u - f0) / df, 1.0)
        s = 1.0 - t
        linear = lo + t * (hi - lo)
        x = linear + t * s * (s * bend0 - t * bend1)
        x = np.where((x >= lo) & (x <= hi), x, linear)
        for _ in range(_NEWTON_MAX_ITER):
            f, d = cdf_and_density(x)
            f = f - u
            below = f < 0.0
            lo = np.where(below, x, lo)
            hi = np.where(below, hi, x)
            new = x - f / d
            new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
            done = abs(new - x) <= xtol
            n_done = np.count_nonzero(done)
            if n_done == done.size:
                x = new
                break
            if n_done:
                if idx is None:
                    out, idx = np.empty_like(u), np.arange(u.size)
                out[idx[done]] = new[done]
                keep = ~done
                idx, new, u, lo, hi = idx[keep], new[keep], u[keep], lo[keep], hi[keep]
            x = new
    if idx is None:
        return x
    out[idx] = x
    return out


def _as_output(x: np.ndarray):
    """A 0-d result as a Python float, anything else as the array."""
    return float(x) if x.ndim == 0 else x


# ---------------------------------------------------------------------------
# True-score distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Uniform01:
    """True scores uniform on [0, 1]."""

    components = ((1.0, 1.0, 1.0),)  # as a mixture: the one law beta(1, 1)

    def mean(self) -> float:
        return 0.5

    def cdf(self, x):
        return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)

    def ppf(self, u):
        return _as_output(np.array(u, dtype=float))

    def upper_moment(self, q):
        """Partial first moment: the integral of x f(x) over [q, 1]."""
        q = np.asarray(q, dtype=float)
        return 0.5 * (1.0 - q) * (1.0 + q)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.random(n)


@dataclass(frozen=True)
class BetaMixture:
    """Mixture of beta laws, components given as (weight, alpha, beta).

    The cdf sums ``w * betainc(a, b, clip(x, 0, 1))`` per component, which is
    what ``scipy.stats.beta.cdf`` computes, without its per-call overhead.
    The partial first moment is closed form too: a beta(a, b) variable times
    its density is (a / (a + b)) times the beta(a + 1, b) density.
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
        """The mixture density, 0 outside [0, 1]."""
        x = np.asarray(x, dtype=float)
        return np.where((x < 0.0) | (x > 1.0), 0.0, self._density(x))  # the closed form is NaN outside

    def cdf(self, x):
        xc = np.minimum(np.maximum(np.asarray(x, dtype=float), 0.0), 1.0)
        out = 0.0
        for w, a, b in self.components:
            out = out + w * betainc(a, b, xc)
        return out

    @cached_property
    def _log_norms(self) -> tuple[float, ...]:
        return tuple(math.log(w) - betaln(a, b) if w > 0 else -math.inf for w, a, b in self.components)

    def _density(self, x: np.ndarray) -> np.ndarray:
        """The density in closed form on [0, 1]."""
        density = 0.0
        for (_, a, b), c in zip(self.components, self._log_norms):
            density = density + np.exp(xlogy(a - 1.0, x) + xlog1py(b - 1.0, -x) + c)
        return density

    def _cdf_and_density(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # for the Newton steps of ppf
        return self.cdf(x), self._density(x)

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        return _cdf_table(self._cdf_and_density, _FINE_TABLE_POINTS)

    def ppf(self, u):
        """Quantile function, elementwise: 0 for u <= 0, 1 for u >= 1."""
        u = np.asarray(u, dtype=float)
        flat = u.reshape(-1)
        x = np.minimum(np.maximum(flat, 0.0), 1.0)
        inner = (flat > 0.0) & (flat < 1.0)
        if np.count_nonzero(inner):
            x[inner] = _invert_cdf(self._cdf_and_density, flat[inner], self._table, xtol=1e-14)
        return _as_output(x.reshape(u.shape))

    def upper_moment(self, q):
        """Partial first moment: the integral of x f(x) over [q, 1]."""
        q = np.minimum(np.maximum(np.asarray(q, dtype=float), 0.0), 1.0)
        out = 0.0
        for w, a, b in self.components:
            out = out + w * a / (a + b) * betaincc(a + 1.0, b, q)
        return out

    @cached_property
    def _sampler(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # the cumulative weights normalised as Generator.choice(p=weights) does, and the shapes
        weights, alphas, betas = np.array(self.components).T
        cdf = weights.cumsum()
        return cdf / cdf[-1], alphas, betas

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        cdf, alphas, betas = self._sampler
        # the components rng.choice(len(components), size=n, p=weights) picks, bit for bit
        comp = cdf.searchsorted(rng.random(n), side="right")
        return rng.beta(alphas[comp], betas[comp])


def _readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


TrueScoreDistribution = Uniform01 | BetaMixture


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


# ---------------------------------------------------------------------------
# Joint models
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Analytic:
    """A true-score law observed through a predictor."""

    true_scores: TrueScoreDistribution
    predictor: Predictor = Perfect()


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
            if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails too
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
        if not (pred.min() >= 0.0 and pred.max() <= 1.0):  # NaN fails too
            raise ValueError("predicted scores must lie in [0, 1]")
        if not np.isin(outc, (0.0, 1.0)).all():
            raise ValueError("outcomes must be 0 or 1")


JointScoreModel = Analytic | EmpiricalJoint | EmpiricalLabeled


@dataclass(frozen=True, eq=False)
class Population:
    """A cohort at the public API: read-only, finite true scores ``r`` and
    predicted scores ``r_hat``.  The Monte Carlo kernel keeps its per-trial
    cohorts as plain arrays instead."""

    r: np.ndarray
    r_hat: np.ndarray

    def __post_init__(self):
        r = _readonly(self.r)
        r_hat = _readonly(self.r_hat)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "r_hat", r_hat)
        if r.ndim != 1 or r.size == 0 or r.shape != r_hat.shape:
            raise ValueError("population must be nonempty with matching r/r_hat lengths")
        for name, values in (("r", r), ("r_hat", r_hat)):
            if not np.isfinite(values).all():
                raise ValueError(f"population {name} must be finite")

    @property
    def n(self) -> int:
        return self.r.size


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


class _Engine:
    """The primitives of one model kind; ``_engine`` picks the kind.

    Each engine implements ``quantile_grid`` and ``cond_mean_above_grid`` on
    1-d arrays of tau (NaN where the tail is empty, always at tau = 1),
    ``cond_mean_at_grid`` on 1-d arrays of tau in [0, 1), ``mean``,
    ``cond_mean_top`` and ``sample`` (a cohort's r and r_hat arrays).  The
    scalar methods call the grid ones with a one-element array, so a grid
    value is bitwise the scalar one.
    """

    empirical = False

    def quantile(self, tau: float) -> float:
        return float(self.quantile_grid(np.array([tau]))[0])

    def cond_mean_above(self, tau: float) -> float:
        out = float(self.cond_mean_above_grid(np.array([tau]))[0])
        if math.isnan(out):
            raise ValueError("empty tail")
        return out

    def cond_mean_at(self, tau: float) -> float:
        return float(self.cond_mean_at_grid(np.array([tau]))[0])


def _memoized(cache: dict, solve, taus: np.ndarray) -> np.ndarray:
    """solve(taus) elementwise, reusing values cached per tau and caching new
    ones; a tau repeated in ``taus`` is solved once."""
    keys = taus.tolist()
    miss = list(dict.fromkeys(t for t in keys if t not in cache))
    if miss:
        cache.update(zip(miss, solve(np.array(miss)).tolist()))
    return np.array([cache[t] for t in keys], dtype=float)


class _AnalyticEngine(_Engine):
    """A continuous true-score law observed through a predictor.

    Quantiles and tail means are pure in tau, so each is memoized per engine
    and per tau; sweeps revisit the same tau grids constantly.  Subclasses
    solve ``_quantiles`` and ``_cond_mean_above`` and observe a draw of true
    scores in ``_observe``.
    """

    def __init__(self, dist: TrueScoreDistribution):
        self.dist = dist
        self._q_cache: dict[float, float] = {}
        self._cma_cache: dict[float, float] = {}

    def quantile_grid(self, taus: np.ndarray) -> np.ndarray:
        return _memoized(self._q_cache, self._quantiles, taus)

    def cond_mean_above_grid(self, taus: np.ndarray) -> np.ndarray:
        return _memoized(self._cma_cache, self._cond_mean_above, taus)

    def mean(self) -> float:
        return self.dist.mean()

    def sample(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        r = self.dist.sample(rng, n)
        return r, self._observe(rng, r)


class _PerfectEngine(_AnalyticEngine):
    """r_hat = r: the tail mean is the law's closed-form partial first moment
    above the quantile, divided by 1 - tau."""

    def _quantiles(self, taus: np.ndarray) -> np.ndarray:
        return self.dist.ppf(taus)

    def _cond_mean_above(self, taus: np.ndarray) -> np.ndarray:
        moment = self.dist.upper_moment(self.quantile_grid(taus))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = moment / (1.0 - taus)
        out[taus >= 1.0] = np.nan  # no one is flagged
        return out

    def cond_mean_at_grid(self, taus: np.ndarray) -> np.ndarray:
        return self.quantile_grid(taus)

    def cond_mean_top(self) -> float:
        return self.dist.ppf(1.0)

    def _observe(self, rng: np.random.Generator, r: np.ndarray) -> np.ndarray:
        return r


def _upper_normal(z: np.ndarray) -> np.ndarray:
    return 1.0 - ndtr(z)


def _normal_kernel(z: np.ndarray) -> np.ndarray:
    # below sigma ~ 1e-154, z * z overflows to inf, and exp(-inf) is the right 0.0
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * z * z)


class _NoisyEngine(_AnalyticEngine):
    """r_hat = clip(r + eps, 0, 1) with eps ~ Normal(0, sigma^2).

    All quantities are sums over the Gauss rule of each beta component,
    scaled by its weight, of closed-form normal tails (or, for the
    density-point mean, the normal kernel), so no density is evaluated and
    shapes below 1 lose no mass; clipping shows up as atoms at 0 and 1 split
    fractionally, matching the top-(1-tau) flagging rule.  ceil(3 / sigma)
    nodes resolve the kernel down to sigma ~ 0.003, where the cap _MAX_NODES
    binds.  Below that the kernel is narrower than the node spacing and the
    rule degrades: at sigma = 1e-4 a cdf is off by up to 1.8e-4, and at
    sigma = 1e-7 the demo mixture's score-optimal threshold comes out as 1.0.
    The rule is built on first use, not by sampling.
    """

    def __init__(self, dist: TrueScoreDistribution, sigma: float):
        super().__init__(dist)
        self.sigma = sigma

    @cached_property
    def _rule(self) -> tuple[np.ndarray, np.ndarray]:
        n = max(math.ceil(min(3.0 / self.sigma, _MAX_NODES)), _MIN_NODES)  # 3 / sigma may be inf
        rules = [(w, *_beta_gauss(a, b, n)) for w, a, b in self.dist.components if w > 0.0]
        return np.concatenate([x for _, x, _ in rules]), np.concatenate([w * p for w, _, p in rules])

    @cached_property
    def _nodes(self) -> np.ndarray:
        return self._rule[0]

    @cached_property
    def _mass(self) -> np.ndarray:
        return self._rule[1]

    @cached_property
    def _node_values(self) -> np.ndarray:
        return self._mass * self._nodes

    def _quad(self, s: np.ndarray, *terms) -> list[np.ndarray]:
        """sum_j weights_j * f((s_i - x_j) / sigma) at every cutoff s_i, for
        each (weights, f) of terms, over blocks of cutoffs."""
        outs = [np.empty(s.size) for _ in terms]
        block = max(_QUAD_CELLS // self._nodes.size, 1)
        for i in range(0, s.size, block):
            z = (s[i : i + block, None] - self._nodes) / self.sigma
            for out, (weights, f) in zip(outs, terms):
                out[i : i + block] = np.sum(weights * f(z), axis=1)
        return outs

    def _cdf_hat(self, s: np.ndarray) -> np.ndarray:
        # P(r + eps <= s); the r_hat law has atom P(. <= 0) at zero.
        return self._quad(s, (self._mass, ndtr))[0]

    def _cdf_and_density(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cdf, kernel = self._quad(s, (self._mass, ndtr), (self._mass, _normal_kernel))
        return cdf, kernel / (self.sigma * math.sqrt(2.0 * math.pi))

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        return _cdf_table(self._cdf_and_density, _COARSE_TABLE_POINTS)

    @cached_property
    def _atom_low(self) -> float:
        return float(self._cdf_hat(np.zeros(1))[0])

    @cached_property
    def _atom_high(self) -> float:
        return 1.0 - float(self._cdf_hat(np.ones(1))[0])

    @cached_property
    def _low_tail(self) -> tuple[float, float]:
        # tail mass at q = 0: all of r_hat > 0, and the atom at zero
        above = float(np.sum(self._node_values * ndtr(self._nodes / self.sigma)))
        at_zero = float(np.sum(self._node_values * ndtr(-self._nodes / self.sigma)))
        return above, at_zero

    def _quantiles(self, taus: np.ndarray) -> np.ndarray:
        q = np.where(taus <= self._atom_low, 0.0, 1.0)
        inner = (taus > self._atom_low) & (taus < 1.0 - self._atom_high)
        if inner.any():
            q[inner] = _invert_cdf(self._cdf_and_density, taus[inner], self._table, xtol=1e-13)
        return q

    def _cond_mean_above(self, taus: np.ndarray) -> np.ndarray:
        q = self.quantile_grid(taus)
        out = np.full(taus.shape, np.nan)
        top = (q >= 1.0) & (taus < 1.0)
        if top.any():
            out[top] = self.cond_mean_top()
        low = q <= 0.0
        if low.any():
            # The tail spans all of r_hat > 0 plus a fractional slice of the
            # atom at zero (atom members are exchangeable).
            above, at_zero = self._low_tail
            a0 = self._atom_low
            slice_frac = (a0 - taus[low]) / a0 if a0 > 0 else 0.0
            out[low] = (above + slice_frac * at_zero) / (1.0 - taus[low])
        mid = (q > 0.0) & (q < 1.0)
        if mid.any():
            tail = self._quad(q[mid], (self._node_values, _upper_normal))[0]
            out[mid] = tail / (1.0 - taus[mid])
        return out

    def cond_mean_at_grid(self, taus: np.ndarray) -> np.ndarray:
        # -d/dtau of the tail mass on this rule: an atom's mean, else the kernel-weighted node mean
        q = self.quantile_grid(taus)
        out = q.copy()  # the perfect predictor's value, where both kernel sums underflow
        low, top = (q <= 0.0) & (self._atom_low > 0.0), (q >= 1.0) & (self._atom_high > 0.0)
        if low.any():
            out[low] = self._low_tail[1] / self._atom_low
        if top.any():
            out[top] = self.cond_mean_top()
        mid = np.flatnonzero(~(low | top))
        num, den = self._quad(q[mid], (self._node_values, _normal_kernel), (self._mass, _normal_kernel))
        out[mid[den > 0.0]] = num[den > 0.0] / den[den > 0.0]
        return out

    def cond_mean_top(self) -> float:
        top = float(np.sum(self._node_values * (1.0 - ndtr((1.0 - self._nodes) / self.sigma))))
        return top / self._atom_high

    def _observe(self, rng: np.random.Generator, r: np.ndarray) -> np.ndarray:
        return np.clip(r + self.sigma * rng.standard_normal(r.size), 0.0, 1.0)


class _EmpiricalEngine(_Engine):
    """Order-statistic quantiles and tail means over a finite corpus.

    ``values`` are the true scores, or for a labeled corpus the 0/1 outcomes.
    """

    empirical = True

    def __init__(self, predicted: np.ndarray, values: np.ndarray, tie_seed: int):
        self.predicted = predicted
        self.values = values
        self.n = predicted.size
        tie = np.random.default_rng(tie_seed).permutation(self.n)
        # descending by predicted score, ties resolved by the permutation: a
        # stable sort of the records laid out in tie order, which equals
        # lexsort((tie, -predicted)) at about half its cost
        by_tie = np.empty(self.n, dtype=np.intp)
        by_tie[tie] = np.arange(self.n)
        self.desc_order = by_tie[np.argsort(-predicted[by_tie], kind="stable")]
        # sums of the top k values for k = 0..n
        self._top_sums = np.zeros(self.n + 1)
        np.cumsum(values[self.desc_order], out=self._top_sums[1:])
        self._pred_asc = predicted[self.desc_order][::-1]
        self._mean = float(values.mean())

    def quantile_grid(self, taus: np.ndarray) -> np.ndarray:
        return self._pred_asc[np.maximum(self.n - flagged_counts(self.n, taus), 1) - 1]

    def cond_mean_above_grid(self, taus: np.ndarray) -> np.ndarray:
        k = flagged_counts(self.n, taus)
        with np.errstate(invalid="ignore"):
            return self._top_sums[k] / k  # 0 / 0 = NaN where the tail is empty

    def cond_mean_at_grid(self, taus: np.ndarray) -> np.ndarray:
        raise ValueError("conditional_mean_at is undefined for empirical models")

    def cond_mean_top(self) -> float:
        return float(self.values[self.desc_order[0]])

    def mean(self) -> float:
        return self._mean

    def sample(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        idx = rng.integers(0, self.n, size=n)  # the rows rng.choice(self.n, n) picks, bit for bit
        return self.values[idx], self.predicted[idx]


# Engines live here rather than on the frozen models, so a model pickled to a
# worker process never carries an engine's caches along.
_ENGINES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _engine(model: JointScoreModel) -> _Engine:
    """The model's engine, built on first use; the one place that reads a model's kind."""
    eng = _ENGINES.get(model)
    if eng is not None:
        return eng
    if isinstance(model, Analytic):
        pred = model.predictor
        if isinstance(pred, GaussianNoiseClipped) and pred.sigma > 0.0:
            eng = _NoisyEngine(model.true_scores, pred.sigma)
        else:
            eng = _PerfectEngine(model.true_scores)
    elif isinstance(model, EmpiricalJoint):
        eng = _EmpiricalEngine(model.predicted, model.true, model.tie_seed)
    elif isinstance(model, EmpiricalLabeled):
        eng = _EmpiricalEngine(model.predicted, model.outcomes, model.tie_seed)
    else:
        raise TypeError(f"not a JointScoreModel: {model!r}")
    _ENGINES[model] = eng
    return eng


def is_empirical(model: JointScoreModel) -> bool:
    """True when quantiles come from a finite corpus rather than a density."""
    return _engine(model).empirical


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def mean_true_score(model: JointScoreModel) -> float:
    """E[r]: analytic moment, corpus average, or positive rate."""
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
    """conditional_mean_above at every tau of a 1-d array in [0, 1].

    Bitwise equal to the scalar call wherever the tail is nonempty; NaN where
    it is empty (always at tau = 1).
    """
    taus = _tau_grid(taus)
    return _engine(model).cond_mean_above_grid(taus)


def _tau_grid(taus) -> np.ndarray:
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1:
        raise ValueError("taus must be a 1-d array")
    if not ((taus >= 0.0) & (taus <= 1.0)).all():
        raise ValueError("taus must lie in [0, 1]")
    return taus


def conditional_mean_at(model: JointScoreModel, tau: float) -> float:
    """E[r | r_hat = q(tau)], the density-point conditional mean.

    Perfect predictors give q(tau) itself; noisy ones the kernel-weighted
    mean on the engine's Gauss rule, the exact tau-derivative of its tail
    mass ``(1-tau) * conditional_mean_above(tau)``.  Empirical models have no
    density point and raise ``ValueError``; no threshold solver needs one.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    return _engine(model).cond_mean_at(tau)


def conditional_mean_top(model: JointScoreModel) -> float:
    """The tau -> 1 limit of conditional_mean_at: E[r | r_hat = q(1)]."""
    return _engine(model).cond_mean_top()


def tpr_at(model: JointScoreModel, tau: float) -> float:
    """True-positive rate of flagging at tau, reading r as P(Y=1).

    Defined through the tail-mass identity
    ``TPR(tau) * E[r] = (1 - tau) * conditional_mean_above(tau)``, which holds
    exactly by construction; empirical corpora can exceed 1 by at most one
    order-statistic step of quantization.  0 where no one is flagged: at
    tau = 1, and on a corpus wherever the flagged count is 0.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    return float(tpr_grid(model, np.array([tau]))[0])


def tpr_grid(model: JointScoreModel, taus: np.ndarray) -> np.ndarray:
    """tpr_at at every tau of a 1-d array in [0, 1]; tpr_at is its one-element call.

    0 where the tail is empty, as the tail mean is NaN exactly there.
    """
    taus = _tau_grid(taus)
    er = mean_true_score(model)
    if er == 0.0:
        raise ValueError("no positives")
    tpr = (1.0 - taus) * _engine(model).cond_mean_above_grid(taus) / er
    tpr[np.isnan(tpr)] = 0.0
    return tpr


def sample_population(
    model: JointScoreModel,
    n: int,
    seed: int | np.random.SeedSequence | np.random.Generator = 0,
) -> Population:
    """Draw an i.i.d. cohort of n individuals; deterministic given the seed.

    Draw order per cohort: true scores (a mixture's component uniforms, then
    its beta draws; or corpus rows, with replacement), then predictor noise
    -- each as one vectorized pass in individual-index order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return Population(*_engine(model).sample(np.random.default_rng(seed), n))
