"""Stochastic funnel simulation and exact small-instance oracles.

One trial of the funnel: sample a cohort (or reuse a frozen one), flag the top
(1 - tau) fraction by predicted score, draw Bernoulli requests at
``p0 + delta_p * flagged``, then allocate ``m`` service slots.  Allocation is
a two-stage mixture: ``floor(beta1 * m)`` slots go to the highest-scoring
requesters, the remaining ``m - floor(beta1 * m)`` slots are a uniform lottery
over requesters not yet served (beta1 = 0 is pure random allocation, beta1 = 1
pure prioritization; capacity is conserved).

Flags and both allocation stages select, per cohort, the k smallest keys
among those eligible, ties to a second key -- -r_hat and the tie-break
permutation for flags, -r_hat of requesters and the tie key for priority, the
lottery keys of the unserved and the tie key for the lottery.  Flags and
priority are one selection (``_smallest``).  So is the lottery, except where
a trial is evaluated at many flag counts: its lottery keys are then ranked
once (``_lottery_ranks``) and each flag count selects on those small
integers, which serves the same set.

RNG contract: trial ``i`` draws from its own substream, the generator of
``SeedSequence(seed).spawn(trials)[i]``.  The substreams' PCG64 states are
computed in bulk (:func:`_spawn_states`), equal word for word to what
``spawn`` and ``generate_state`` give, so no ``SeedSequence`` is built per
trial.  Within a trial, draws are consumed in a fixed order -- cohort draws
(``sample_population``'s, as plain arrays), flag tie-break permutation (drawn
even when no one is flagged), request uniforms (individual-index order), then
one prioritization tie key and one lottery key per individual.  A frozen
cohort skips the first two: its flags use one permutation drawn from the
master seed.  Each trial is drawn once and
evaluated at every requested tau, so all grid points of a tau search share the
same cohort, request and allocation draws (common random numbers).  Trials
are evaluated in blocks, every flag count of a block at once, but each trial
still consumes only its own substream.  Results are bitwise independent of the
worker count, of the blocking and of which other taus are evaluated alongside.

A trial's served value is summed in individual-index order, as
``(served * values).sum()`` over the whole cohort (values are finite and
nonnegative, so unserved terms are exactly 0.0), so it depends only on the
served set and not on the order in which allocation found it.

The exact oracles replace Monte Carlo for small instances: the expected served
count is an exact binomial convolution, and the random-allocation objective
for a frozen cohort follows from serving each requester with probability
``E[min(m / (1 + S_other), 1)]``, where S_other is the convolution of the
other n-1 request indicators.  :func:`exact_objectives_random` evaluates many
sampled cohorts, each drawn from its own substream like a trial's cohort, and
flags and sums them block by block as the trial kernel does; each value is
bitwise :func:`exact_objective_random` of that cohort.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .fluid import BehavioralParams, ThresholdPolicy, fluid_demand
from .score_model import JointScoreModel, Population, _engine, _tau_grid, flagged_count, flagged_counts

EXACT_BUDGET = 5000


@dataclass(frozen=True)
class SimConfig:
    """Operating point and Monte Carlo budget for the simulators.

    A trial's served value sums the true scores r of the served individuals
    (their expected outcomes), never sampled binary outcomes.
    """

    n: int
    m: int
    params: BehavioralParams
    beta1: float = 0.0
    trials: int = 8000
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.m < 0:
            raise ValueError("m must be nonnegative")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 <= self.beta1 <= 1.0:
            raise ValueError("beta1 must be in [0, 1]")


@dataclass(frozen=True)
class SimEstimate:
    """Monte Carlo mean of the served value with its standard error.

    ``std_error`` is the sample standard deviation (ddof=1) over trials
    divided by sqrt(trials).  The decomposition fields are per-trial means.
    """

    mean: float
    std_error: float
    trials: int
    served_flagged_mean: float
    served_unflagged_mean: float
    requests_mean: float
    utilization_mean: float


# The trial kernel works on (trial x flag count x individual) arrays.  A block
# of trials and flag counts holds at most this many cells (one trial and a
# slice of its flag counts when a trial alone exceeds it), so a call's memory
# does not grow with the number of flag counts or trials it evaluates.
_BLOCK_CELLS = 1 << 15

# Ranked lottery (_lottery_ranks): a block that evaluates at least
# _RANK_MIN_KS flag counts, with a lottery stage to run, ranks each trial's
# lottery keys once and every row selects on those small integers, in blocks
# of up to _RANKED_BLOCK_CELLS cells (at n = 1000 and 21 flag counts, six
# trials).  Kernel time per trial, n = 1000, m = 200, beta1 = 0, medians of 15
# interleaved runs on a shared 2-core box, float keys -> ranks in such blocks:
# 2 flag counts 104 -> 115 us, 4: 113 -> 116, 6: 126 -> 117, 8: 142 -> 126,
# 11: 165 -> 141, 21: 249 -> 187 (ranks in _BLOCK_CELLS blocks: 234; blocks
# of 2**16 cells: 201, of 2**18: 183).  The oracle workload needs both parts:
# pass_ref 37.3 -> 34.0 with ranks alone, 40.5 with the larger blocks alone,
# 29.8 with both (BENCH_lottery_ranks.json).
_RANK_MIN_KS = 8
_RANKED_BLOCK_CELLS = 1 << 17


# numpy's SeedSequence constants (O'Neill's seed_seq hash, pool of four words)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _uint32_words(entropy) -> list[int]:
    """The little-endian uint32 words ``SeedSequence`` reads from an int or a tuple of them."""
    if isinstance(entropy, (tuple, list)):
        return [w for part in entropy for w in _uint32_words(part)]
    value, words = operator.index(entropy), []
    while True:
        words.append(value & _MASK32)
        value >>= 32
        if not value:
            return words


def _spawn_states(entropy, lo: int, hi: int) -> np.ndarray:
    """PCG64 seed words of the children ``lo..hi-1`` of ``SeedSequence(entropy)``.

    Row ``i - lo`` equals ``SeedSequence(entropy).spawn(hi)[i].generate_state(4,
    np.uint64)``: numpy's entropy mixing replayed on uint32 arrays, one element
    per child, so no ``SeedSequence`` is built per child.  A child index at or
    above 2**32 would need a two-word spawn key and is rejected.
    """
    np.random.SeedSequence(entropy)  # rejects what numpy rejects: negative or non-integer entropy
    if not 0 <= lo <= hi <= 1 << 32:
        raise ValueError("spawn indices must lie in [0, 2**32)")
    run = _uint32_words(entropy)
    # a spawn key follows the run entropy zero-padded to the pool size
    words = [*run, *[0] * (4 - len(run)), np.arange(lo, hi, dtype=np.uint32)]
    h = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal h
        value = np.uint32(value) ^ np.uint32(h)
        h = h * mult & _MASK32
        value = value * np.uint32(h)
        return value ^ value >> np.uint32(16)

    def mix(x, y):
        out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return out ^ out >> np.uint32(16)

    with np.errstate(over="ignore"):  # uint32 arithmetic wraps on purpose
        pool = [hashmix(w) for w in words[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for w in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(w))
        h = _INIT_B  # generate_state(4, np.uint64): eight words cycled from the pool
        state = np.stack([hashmix(pool[i % 4], _MULT_B) for i in range(8)], axis=-1).astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)


class _PresetSeed(np.random.bit_generator.ISeedSequence):
    """Hands a bit generator seed words computed ahead (see :func:`_spawn_states`)."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def spawned_generators(entropy, lo: int, hi: int):
    """Lazily, ``default_rng(SeedSequence(entropy).spawn(hi)[i])`` for ``i`` in ``lo..hi-1``.

    The draws are the same as those generators'; the states are computed in
    bulk by :func:`_spawn_states`.
    """
    for words in _spawn_states(entropy, lo, hi):
        yield np.random.Generator(np.random.PCG64(_PresetSeed(words)))


def _smallest(keys: np.ndarray, ks, second: np.ndarray, members: np.ndarray | None = None) -> np.ndarray:
    """Per row along the last axis and per ``k`` in ``ks``, the ``k`` smallest ``keys``.

    Only ``members`` (default: everyone) are chosen, and a row with at most
    ``k`` members keeps them all; a non-member's key must be at least every
    member's key in its row.  Ties at the cut go to the smaller ``second``.
    ``second`` and ``members`` broadcast against ``keys``; the result gains an
    axis of ``len(ks)`` rows before the last.  One cut comes from a partition,
    several from one sort.
    """
    ks = np.asarray(ks)
    n = keys.shape[-1]
    if n == 0:
        return np.zeros(keys.shape[:-1] + ks.shape + (0,), dtype=bool)
    kth = np.minimum(ks, n) - 1  # k >= n cuts at the largest key; k = 0 is cleared below
    over = None
    if kth.size == 1:  # a scalar kth partitions faster than a one-element array
        cuts = np.partition(keys, kth[0], axis=-1)[..., kth[0], None]
    else:
        ordered = np.sort(keys, axis=-1)
        cuts = ordered[..., kth]
        if members is None:  # more than k keys are <= the cut iff the next key ties it
            over = (ordered[..., np.minimum(ks, n - 1)] == cuts) & (ks > 0) & (ks < n)
    chosen = keys[..., None, :] <= cuts[..., None]
    if not ks.all():
        chosen[..., ks <= 0, :] = False
    if members is not None:
        chosen &= members[..., None, :]
    if over is None:  # int32 counts faster than the default int64
        over = chosen.sum(axis=-1, dtype=np.int32) > ks
    # a row with more than k chosen has too many tied at the cut: drop the tied
    # ones with the largest ``second``
    for row in zip(*over.nonzero()):
        cohort, k, picked = row[:-1], ks[row[-1]], chosen[row]
        tied = np.flatnonzero(picked & (keys[cohort] == cuts[row]))
        keep = k - (np.count_nonzero(picked) - tied.size)
        order = np.argpartition(np.broadcast_to(second, keys.shape)[cohort][tied], keep - 1)
        picked[tied[order[keep:]]] = False
    return chosen


@functools.lru_cache(maxsize=8)
def _flag_permutation(seed: int, n: int) -> np.ndarray:
    """The tie-break permutation of a frozen cohort's flags (read-only, shared)."""
    perm = np.random.default_rng(seed).permutation(n)
    perm.flags.writeable = False
    return perm


def flag_top(population: Population, tau: float, seed=0) -> np.ndarray:
    """Boolean flags for the top (1 - tau) fraction by predicted score.

    Exactly ``n - ceil(tau * n)`` individuals are flagged; ties in predicted
    score are broken by a permutation drawn from the integer ``seed`` (drawn
    even when no one is flagged).
    """
    n = population.n
    perm = _flag_permutation(operator.index(seed), n)
    return _smallest(-population.r_hat, [flagged_count(n, tau)], perm)[0]


def _lottery_ranks(lottery: np.ndarray, tie: np.ndarray) -> np.ndarray:
    """Each row's lottery order along the last axis, as ranks: 0 for the smallest key.

    Ties go to the smaller ``tie`` key, as :func:`_smallest` breaks them.  The
    ranks are int16 where ``2 * n < 2**15``, so that ``rank + n`` fits, and
    int32 otherwise.
    """
    n = lottery.shape[-1]
    keys, second = lottery.reshape(-1, n), tie.reshape(-1, n)
    # each row's argsort as flat indices: one gather and one scatter for all rows
    order = np.argsort(keys, axis=-1)
    order += np.arange(0, keys.size, n)[:, None]
    ordered = keys.ravel()[order]
    for row in np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=-1)):
        order[row] = np.lexsort((second[row], keys[row])) + row * n
    ranks = np.empty(lottery.shape, dtype=np.int16 if 2 * n < 1 << 15 else np.int32)
    ranks.reshape(-1)[order] = np.arange(n, dtype=ranks.dtype)
    return ranks


def _lottery(members: np.ndarray, k: int, tie, lottery, ranks) -> np.ndarray:
    """Per row of ``members``, the ``k`` members with the smallest ``lottery`` keys.

    Ties go to the smaller ``tie`` key.  With ``ranks`` (:func:`_lottery_ranks`
    of ``lottery`` and ``tie``) the rows select on those distinct small
    integers, lifted by ``n`` for non-members, instead of on the float keys.
    """
    if ranks is None:
        # lottery keys lie in [0, 1): adding 1 lifts non-members above every member
        return _smallest(lottery + ~members, [k], tie, members)[..., 0, :]
    n = ranks.shape[-1]
    kth = min(k, n) - 1
    if kth < 0:
        return np.zeros(members.shape, dtype=bool)
    keys = np.multiply(~members, n, dtype=ranks.dtype)
    keys += ranks
    cut = np.partition(keys, kth, axis=-1)[..., kth, None]
    # a cut at or above n lies among non-members: every member is then served
    return keys <= np.minimum(cut, n - 1)


def _priority_slots(m: int, beta1: float) -> int:
    """``floor(beta1 * m)``: the slots allocation gives by predicted score."""
    return min(int(math.floor(beta1 * m + 1e-9)), m)


def _serve(
    requests: np.ndarray,
    r_hat: np.ndarray,
    tie: np.ndarray,
    lottery: np.ndarray,
    m: int,
    beta1: float,
    ranks: np.ndarray | None = None,
) -> np.ndarray:
    """Two-stage mixture allocation of each row of the request mask ``requests``.

    The ``floor(beta1 * m)`` requesters ranked highest by predicted score
    (ties to the smaller ``tie`` key) are served first, then the requesters
    with the smallest ``lottery`` keys (ties again to the smaller ``tie``
    key) fill the remaining slots.  The score, key and ``ranks`` arrays
    broadcast against ``requests``.  With ``ranks``, :func:`_lottery_ranks` of
    ``lottery`` and ``tie``, the lottery stage selects on them and serves the
    same set.  A double tie (equal lottery and equal tie keys) is not defined
    on either path.  Returns the served mask; each row serves
    ``min(m, requests in the row)``.
    """
    k1 = _priority_slots(m, beta1)
    if k1 == 0:
        return _lottery(requests, m, tie, lottery, ranks)
    # 1 - r_hat for non-requesters: at or above every requester's -r_hat
    served = _smallest(~requests - r_hat, [k1], tie, requests)[..., 0, :]
    if m > k1:
        served |= _lottery(requests & ~served, m - k1, tie, lottery, ranks)
    return served


def _pool_size(workers: int, trials: int) -> int:
    """Worker processes to start: never more than CPUs or trials."""
    return max(1, min(workers, os.cpu_count() or 1, trials))


def _run_trials(model, config, ks, population, lo, hi) -> np.ndarray:
    """Trials ``lo..hi-1``, each drawn once and evaluated at every flag count.

    Returns shape ``(len(ks), hi - lo, 5)``: per flag count and trial, the
    served value, served count, served flagged, served unflagged and request
    count.  Trials are drawn one after another, trial ``i`` from the generator
    of ``SeedSequence(config.seed).spawn(...)[i]``, and evaluated together in
    blocks of at most ``_BLOCK_CELLS`` cells.  With at least ``_RANK_MIN_KS``
    flag counts and a lottery stage, blocks hold up to ``_RANKED_BLOCK_CELLS``
    cells and each ranks its trials' lottery keys once for all its flag
    counts.
    ``population`` is a cohort fixed across trials, flagged with the
    permutation :func:`flag_top` draws from ``config.seed``, or None to sample
    a cohort per trial.
    """
    p, n = config.params, config.n
    ks = np.asarray(ks)
    ranked = ks.size >= _RANK_MIN_KS and config.m > _priority_slots(config.m, config.beta1)
    cells = _RANKED_BLOCK_CELLS if ranked else _BLOCK_CELLS
    k_step = max(1, cells // n)
    t_step = max(1, cells // (n * ks.size))
    out = np.empty((ks.size, hi - lo, 5))
    rngs = spawned_generators(config.seed, lo, hi)
    if population is not None:  # one (1, n) row that broadcasts over the trials
        perm = _flag_permutation(config.seed, n)
        r_hat, values = population.r_hat[None], population.r[None]
    else:
        ramp = np.arange(n)
    for t0 in range(lo, hi, t_step):
        t1 = min(t0 + t_step, hi)
        # per-trial draws, shaped (trial, 1, individual) to broadcast over flag counts
        u, tie, lottery = np.empty((3, t1 - t0, 1, n))
        if population is None:
            r_hat, values = np.empty((2, t1 - t0, n))
            perm = np.empty((t1 - t0, n), dtype=np.intp)
        for t in range(t1 - t0):
            rng = next(rngs)
            if population is None:
                values[t], r_hat[t] = _engine(model).sample(rng, n)
                perm[t] = ramp  # shuffled in place: what rng.permutation(n) does, without its copy
                rng.shuffle(perm[t])
            for draw in (u, tie, lottery):
                rng.random(out=draw[t, 0])
        requests_unflagged = u < p.p0
        requests_flagged = u < p.p0 + p.delta_p  # a superset: delta_p >= 0
        ranks = _lottery_ranks(lottery, tie) if ranked else None  # shared by every k-slice
        for s in range(0, ks.size, k_step):
            flags = _smallest(-r_hat, ks[s:s + k_step], perm)
            requests = (flags & requests_flagged) | requests_unflagged
            served = _serve(requests, r_hat[:, None], tie, lottery, config.m, config.beta1, ranks)
            rows = out[s:s + k_step, t0 - lo:t1 - lo]
            rows[..., 0] = (served * values[:, None]).sum(axis=-1).T
            rows[..., 4] = requests.sum(axis=-1, dtype=np.int32).T
            rows[..., 1] = np.minimum(rows[..., 4], config.m)  # _serve serves min(m, requests)
            rows[..., 2] = (served & flags).sum(axis=-1, dtype=np.int32).T
            rows[..., 3] = rows[..., 1] - rows[..., 2]
    return out


def _estimate(rows: np.ndarray, config: SimConfig) -> SimEstimate:
    values = rows[:, 0]
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(config.trials)) if config.trials > 1 else 0.0
    return SimEstimate(
        mean=mean,
        std_error=se,
        trials=config.trials,
        served_flagged_mean=float(rows[:, 2].mean()),
        served_unflagged_mean=float(rows[:, 3].mean()),
        requests_mean=float(rows[:, 4].mean()),
        utilization_mean=float(rows[:, 1].mean() / config.m) if config.m > 0 else 0.0,
    )


def simulate_taus(
    config: SimConfig,
    taus,
    model: JointScoreModel,
    *,
    population: Population | None = None,
    workers: int = 1,
) -> list[SimEstimate]:
    """Monte Carlo estimates of the served value at each threshold in ``taus``.

    Every trial is drawn once and evaluated at all thresholds (common random
    numbers), so the estimate at one tau equals a run at that tau alone.
    With ``population`` given, the cohort (and its flag sets) is frozen
    across trials and only requests/allocation are random; otherwise each
    trial resamples a cohort from the model.  Deterministic given
    ``config.seed`` and independent of ``workers``.
    """
    ks = flagged_counts(config.n, _tau_grid(taus)).tolist()
    uniq = sorted(set(ks))
    if population is not None and population.n != config.n:
        raise ValueError("frozen population size must match config.n")
    if not uniq:
        return []
    procs = _pool_size(workers, config.trials)
    if procs <= 1 or config.trials < 4:
        rows = _run_trials(model, config, uniq, population, 0, config.trials)
    else:
        bounds = np.linspace(0, config.trials, procs + 1).astype(int)
        with ProcessPoolExecutor(max_workers=procs) as pool:
            futs = [
                pool.submit(_run_trials, model, config, uniq, population, lo, hi)
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
            rows = np.concatenate([f.result() for f in futs], axis=1)
    by_k = {k: _estimate(rows[j], config) for j, k in enumerate(uniq)}
    return [by_k[k] for k in ks]


def simulate_policy(
    config: SimConfig,
    policy: ThresholdPolicy,
    model: JointScoreModel,
    *,
    population: Population | None = None,
    workers: int = 1,
) -> SimEstimate:
    """Monte Carlo estimate of the served value under a threshold policy.

    The policy's tau at ``config.m / config.n``, run through
    :func:`simulate_taus`.
    """
    tau = policy.threshold(config.m / config.n, model, config.params)
    return simulate_taus(config, [tau], model, population=population, workers=workers)[0]


def grid_oracle(
    config: SimConfig,
    model: JointScoreModel,
    grid_size: int,
    *,
    population: Population | None = None,
    workers: int = 1,
) -> tuple[float, SimEstimate]:
    """Exhaustive tau-grid search of the simulated objective.

    Every grid point is evaluated from the same per-trial draws (common random
    numbers), so differences between grid points are low-variance.  Ties pick
    the smallest tau.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    taus = np.linspace(0.0, 1.0, grid_size)
    ests = simulate_taus(config, taus, model, population=population, workers=workers)
    best = int(np.argmax([e.mean for e in ests]))
    return float(taus[best]), ests[best]


# ---------------------------------------------------------------------------
# Exact oracles
# ---------------------------------------------------------------------------


def _binom_pmf(k: int, p: float) -> np.ndarray:
    # scipy.stats.binom.pmf's own ufunc, bitwise equal to it for 0 <= p <= 1,
    # without the 1 s import of scipy.stats; imported here, as corpus models
    # need no scipy
    from scipy.special._ufuncs import _binom_pmf

    if k == 0:
        return np.ones(1)
    return _binom_pmf(np.arange(k + 1), k, p)


def _request_count_pmf(k_flagged: int, k_unflagged: int, params: BehavioralParams) -> np.ndarray:
    return np.convolve(
        _binom_pmf(k_flagged, params.p0 + params.delta_p),
        _binom_pmf(k_unflagged, params.p0),
    )


def _check_cohort(n: int, m: int) -> None:
    """Raise SimConfig's error for a cohort size or capacity no oracle can take."""
    if not n >= 1:
        raise ValueError("n must be >= 1")
    if not m >= 0:
        raise ValueError("m must be nonnegative")


def _check_exact(n: int, m: int) -> None:
    _check_cohort(n, m)
    if n > EXACT_BUDGET:
        raise ValueError("population too large for the exact oracle; use Monte Carlo")


def exact_expected_served(tau: float, n: int, m: int, params: BehavioralParams) -> float:
    """Exact E[min(requests, m)] by binomial convolution (n <= 5000)."""
    _check_exact(n, m)
    k = flagged_count(n, tau)
    pmf = _request_count_pmf(k, n - k, params)
    s = np.arange(pmf.size)
    return float(np.sum(np.minimum(s, m) * pmf))


def exact_service_rates(tau: float, n: int, m: int, params: BehavioralParams) -> tuple[float, float]:
    """Exact P(served | requested) for flagged and unflagged individuals.

    Under pure random allocation a requester is served with probability
    E[min(m / (1 + S_other), 1)], where S_other is the two-binomial
    convolution of the other n-1 request indicators; the convolution differs
    by one Bernoulli term depending on the requester's own flag group.
    """
    _check_exact(n, m)
    if m == 0:
        return 0.0, 0.0
    return _service_rates(flagged_count(n, tau), n, m, params)


@functools.lru_cache(maxsize=64)
def _service_rates(k: int, n: int, m: int, params: BehavioralParams) -> tuple[float, float]:
    # Memoised: the rates depend on tau only through k and not on the cohort,
    # so a validate run needs them once per cohort size, not once per cohort.
    def served_prob(pmf: np.ndarray) -> float:
        s = np.arange(pmf.size)
        return float(np.sum(np.minimum(m / (1.0 + s), 1.0) * pmf))

    alpha_flagged = (
        served_prob(_request_count_pmf(k - 1, n - k, params)) if k > 0 else 0.0
    )
    alpha_unflagged = (
        served_prob(_request_count_pmf(k, n - k - 1, params)) if k < n else 0.0
    )
    return alpha_flagged, alpha_unflagged


def exact_objective_random(
    population: Population,
    tau: float,
    m: int,
    params: BehavioralParams,
    *,
    flag_seed: int = 0,
) -> float:
    """Exact served value for a frozen cohort under pure random allocation.

    Sums r_i * p_i * E[min(m / (1 + S_other), 1)] over individuals via the
    per-group service rates of :func:`exact_service_rates`.  beta1 = 0 only.
    """
    _check_exact(population.n, m)
    return float(_exact_values(population.r[None], population.r_hat[None], tau, m, params, flag_seed)[0])


def exact_objectives_random(
    model: JointScoreModel,
    n: int,
    tau: float,
    m: int,
    params: BehavioralParams,
    *,
    seed,
    populations: int,
    flag_seed: int = 0,
) -> np.ndarray:
    """:func:`exact_objective_random` of ``populations`` cohorts drawn from ``model``.

    Cohort ``i`` is ``sample_population(model, n, seed=g)`` for the ``i``-th
    generator ``g`` of ``spawned_generators(seed, 0, populations)``, and its
    value is bitwise ``exact_objective_random`` of that cohort.  Cohorts are
    drawn as plain arrays and flagged in blocks of at most ``_BLOCK_CELLS``
    cells, as in the trial kernel.
    """
    if not 1 <= n <= EXACT_BUDGET:
        raise ValueError(f"n must be in [1, {EXACT_BUDGET}] for the exact oracle; use Monte Carlo above")
    _check_cohort(n, m)
    if populations < 1:
        raise ValueError("populations must be >= 1")
    out = np.empty(populations)
    step = max(1, _BLOCK_CELLS // n)
    rngs = spawned_generators(seed, 0, populations)
    for c0 in range(0, populations, step):
        c1 = min(c0 + step, populations)
        r, r_hat = np.empty((2, c1 - c0, n))
        for i in range(c1 - c0):
            r[i], r_hat[i] = _engine(model).sample(next(rngs), n)
        out[c0:c1] = _exact_values(r, r_hat, tau, m, params, flag_seed)
    return out


def _exact_values(r, r_hat, tau, m, params, flag_seed) -> np.ndarray:
    """The exact served value of each row of the cohorts ``(r, r_hat)``, shaped (cohort, individual)."""
    rows, n = r.shape
    if m == 0:
        return np.zeros(rows)
    k = flagged_count(n, tau)
    flags = _smallest(-r_hat, [k], _flag_permutation(operator.index(flag_seed), n))[:, 0]
    alpha_flagged, alpha_unflagged = _service_rates(k, n, m, params)
    # every row has exactly k flags, so each row's sum adds the values of a
    # 1-d r[flags].sum() in the same order: bitwise that pairwise sum
    flagged = r[flags].reshape(rows, k).sum(axis=1)
    unflagged = r[~flags].reshape(rows, n - k).sum(axis=1)
    p1 = params.p0 + params.delta_p
    return p1 * alpha_flagged * flagged + params.p0 * alpha_unflagged * unflagged


def chernoff_demand_bound(tau: float, n: int, m: int, params: BehavioralParams) -> float:
    """Chernoff bound on |fluid_served - exact_expected_served| at tau.

    Oversubscribed side (demand above capacity): m * exp(-delta^2 mu / 2);
    undersubscribed side: n * exp(-delta^2 / (2 + delta) mu), with mu the
    expected request count and delta the relative distance to capacity.
    """
    _check_cohort(n, m)
    mu = fluid_demand(tau, n, params)
    if mu <= 0:
        return 0.0
    if m < mu:
        delta = (mu - m) / mu
        return m * math.exp(-(delta**2) * mu / 2.0)
    if m > mu:
        delta = (m - mu) / mu
        return n * math.exp(-(delta**2) / (2.0 + delta) * mu)
    return float(m)
