import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy import integrate, special, stats
from scipy.special import betaln

from capthresh import score_model as sm

MIX = sm.BetaMixture(((0.7, 2.0, 10.0), (0.3, 8.0, 2.0)))
MIX_MEAN = 0.7 * 2.0 / 12.0 + 0.3 * 8.0 / 10.0  # beta mean identity a/(a+b)


# --- construction invariants -------------------------------------------------


def test_mixture_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        sm.BetaMixture(((0.5, 2, 10), (0.4, 8, 2)))


def test_mixture_shapes_positive():
    with pytest.raises(ValueError):
        sm.BetaMixture(((1.0, 0.0, 2.0),))



def test_mixture_rejects_non_finite():
    for comps in (((1.0, math.inf, 2.0),), ((1.0, 2.0, math.nan),), ((math.nan, 2.0, 2.0),)):
        with pytest.raises(ValueError, match="finite"):
            sm.BetaMixture(comps)


def test_noise_sigma_must_be_finite():
    for sigma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            sm.GaussianNoiseClipped(sigma)
    # regression: at sigma = 1e300 every threshold planned the same efficacy,
    # and score_optimal_threshold returned 0.5000000037252903 without an error
    assert sm.GaussianNoiseClipped(1000.0).sigma == 1000.0
    for sigma in (1000.0000000001, 1e300):
        with pytest.raises(ValueError, match="sigma must be <= 1000.0"):
            sm.GaussianNoiseClipped(sigma)

def test_labeled_outcomes_binary():
    with pytest.raises(ValueError):
        sm.EmpiricalLabeled(np.array([0.5, 0.6]), np.array([0.0, 2.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
def test_corpus_scores_outside_unit_interval_rejected(bad):
    # NaN once passed the range check, since every comparison with it is false
    good, broken = np.array([0.2, 0.5, 0.9]), np.array([0.2, bad, 0.9])
    with pytest.raises(ValueError, match=r"predicted scores must lie in \[0, 1\]"):
        sm.EmpiricalJoint(broken, good)
    with pytest.raises(ValueError, match=r"true scores must lie in \[0, 1\]"):
        sm.EmpiricalJoint(good, broken)
    with pytest.raises(ValueError, match=r"predicted scores must lie in \[0, 1\]"):
        sm.EmpiricalLabeled(broken, np.array([0.0, 1.0, 1.0]))


def test_mixture_cdf_bitwise_equals_scipy_stats():
    x = np.concatenate([np.linspace(-0.5, 1.5, 4001), [0.0, 1.0, np.nan]])
    small_shapes = sm.BetaMixture(((0.4, 0.5, 0.7), (0.6, 3.0, 0.3)))
    for mix in (MIX, small_shapes):
        ref = np.zeros_like(x)
        for w, a, b in mix.components:
            ref += w * stats.beta.cdf(x, a, b)
        assert np.array_equal(mix.cdf(x), ref, equal_nan=True)
        for xi in (0.0, 0.37, 1.0, np.nan):  # scalar inputs take the same path
            assert np.array_equal(
                mix.cdf(xi), sum(w * stats.beta.cdf(xi, a, b) for w, a, b in mix.components),
                equal_nan=True,
            )


# --- mean_true_score ----------------------------------------------------------


def test_mean_uniform(uniform_perfect):
    assert sm.mean_true_score(uniform_perfect) == 0.5


def test_mean_mixture_identity(mixture_perfect):
    assert sm.mean_true_score(mixture_perfect) == pytest.approx(MIX_MEAN, abs=1e-5)


def test_mean_mixture_mc_crosscheck(mixture_perfect):
    draws = MIX.sample(np.random.default_rng(11), 10**7)
    se = draws.std() / math.sqrt(draws.size)
    assert abs(sm.mean_true_score(mixture_perfect) - draws.mean()) < 3 * se


def test_mean_labeled_positive_rate():
    model = sm.EmpiricalLabeled(np.array([0.2, 0.5, 0.9]), np.array([1.0, 0.0, 1.0]))
    assert sm.mean_true_score(model) == pytest.approx(2 / 3)


# --- predicted_quantile -------------------------------------------------------


def test_quantile_identity_predictor(uniform_perfect):
    assert sm.predicted_quantile(uniform_perfect, 0.8) == pytest.approx(0.8)


def test_quantile_empirical_order_statistic():
    values = np.array([0.1, 0.2, 0.3, 0.4])
    model = sm.EmpiricalJoint(values, values)
    assert sm.predicted_quantile(model, 0.5) == pytest.approx(0.2)


def test_quantile_noisy_vs_mc(uniform_noisy):
    rng = np.random.default_rng(123)
    r = rng.random(10**6)
    r_hat = np.clip(r + 0.1 * rng.standard_normal(r.size), 0.0, 1.0)
    mc = float(np.quantile(r_hat, 0.5))
    assert abs(sm.predicted_quantile(uniform_noisy, 0.5) - mc) < 1e-3


# --- conditional_mean_above ---------------------------------------------------


def test_cma_uniform_top_quintile(uniform_perfect):
    assert sm.conditional_mean_above(uniform_perfect, 0.8) == pytest.approx(0.9, abs=1e-12)


def test_cma_tau_zero_is_mean(uniform_perfect, mixture_perfect, uniform_noisy):
    for model in (uniform_perfect, mixture_perfect, uniform_noisy):
        assert sm.conditional_mean_above(model, 0.0) == pytest.approx(
            sm.mean_true_score(model), abs=1e-12
        )


def test_cma_mixture_vs_mc(mixture_perfect):
    draws = MIX.sample(np.random.default_rng(7), 10**7)
    q = np.quantile(draws, 0.8)
    tail = draws[draws >= q]
    se = tail.std() / math.sqrt(tail.size)
    assert abs(sm.conditional_mean_above(mixture_perfect, 0.8) - tail.mean()) < 3 * se


def test_cma_empty_tail_error():
    model = sm.EmpiricalJoint(np.array([0.2, 0.8]), np.array([0.2, 0.8]))
    with pytest.raises(ValueError, match="empty tail"):
        sm.conditional_mean_above(model, 0.75)


def test_cma_grid_matches_scalar_calls():
    rng = np.random.default_rng(5)
    pred = np.round(rng.random(37), 1)  # ties at every score
    corpus = sm.EmpiricalJoint(pred, rng.random(37))
    taus = np.linspace(0.0, 1.0, 201)
    got = sm.conditional_mean_above_grid(corpus, taus)
    for t, g in zip(taus, got):
        if sm.flagged_count(37, float(t)) == 0:
            assert math.isnan(g)
        else:
            assert g == sm.conditional_mean_above(corpus, float(t))
    with pytest.raises(ValueError, match="in \\[0, 1\\]"):
        sm.conditional_mean_above_grid(corpus, np.array([0.5, 1.5]))


def _ties_in_any_order(rng):
    """An ``np.argsort`` that leaves each run of equal keys in a random order,
    as any unstable sort kernel may."""
    lexsort = np.lexsort

    def argsort(a, *args, **kwargs):
        return lexsort((rng.permutation(a.size), a))

    return argsort


def _block_split_tail_sums(pred, values):
    """Top-k sums for k = 0..n, the block of equal scores that k cuts entering
    pro rata: the expectation over uniformly random tie-breaks."""
    sums, whole = [0.0], 0.0
    for score in sorted(set(pred.tolist()), reverse=True):  # -0.0 and 0.0 are one score
        rows = pred == score
        block, size = values[rows].sum(), int(rows.sum())
        sums += [whole + j / size * block for j in range(1, size + 1)]
        whole += block
    return np.array(sums)


def _tied_corpora(rng):
    signed_zeros = np.where(rng.random(60) < 0.5, -0.0, 0.0)
    signed_zeros[::7] = 0.5
    return (
        np.round(rng.random(300), 1),  # about thirty records per score
        np.round(rng.random(500), 2),
        np.full(40, 0.25),
        np.array([0.3]),
        signed_zeros,
        np.clip(np.round(rng.random(400) * 1.6 - 0.3, 2), 0.0, 1.0),  # atoms at 0 and 1
    )


def _every_count(n):
    """Taus flagging k = 0..n records, in that order."""
    taus = np.arange(n, -1, -1) / n
    assert sm.flagged_counts(n, taus).tolist() == list(range(n + 1))
    return taus


@pytest.mark.parametrize("labeled", [False, True])
def test_corpus_tail_means_split_the_cut_block_pro_rata(labeled):
    rng = np.random.default_rng(11)
    for pred in _tied_corpora(rng):
        n = pred.size
        values = (rng.random(n) < 0.4).astype(float) if labeled else rng.random(n)
        values[0] = 1.0  # some mass in every corpus
        corpus = sm.EmpiricalLabeled(pred, values) if labeled else sm.EmpiricalJoint(pred, values)
        got = sm.conditional_mean_above_grid(corpus, _every_count(n))
        k = np.arange(n + 1)
        assert math.isnan(got[0])
        np.testing.assert_allclose(got[1:], _block_split_tail_sums(pred, values)[1:] / k[1:], rtol=1e-13, atol=1e-15)
        top = values[pred == pred.max()].mean()
        assert sm._engine(corpus).cond_mean_top() == pytest.approx(top, rel=1e-14)


def test_untied_corpus_tail_means_are_the_plain_top_k_sums():
    rng = np.random.default_rng(12)
    for n in (1, 2, 37, 2000):
        pred = rng.permutation(n) / max(n - 1, 1)
        for values in (rng.random(n), (rng.random(n) < 0.3).astype(float)):
            corpus = sm.EmpiricalJoint(pred, values)
            order = np.argsort(-pred)
            want = np.cumsum(values[order]) / np.arange(1, n + 1)
            got = sm.conditional_mean_above_grid(corpus, _every_count(n))[1:]
            assert got.tobytes() == want.tobytes()
            assert sm._engine(corpus).cond_mean_top() == values[order[0]]


def test_corpus_tail_means_ignore_the_row_order_within_blocks(monkeypatch):
    rng = np.random.default_rng(13)
    taus = np.linspace(0.0, 1.0, 2001)
    for pred in _tied_corpora(rng):
        values = rng.random(pred.size)
        base = sm._EmpiricalEngine(pred, values)
        want = base.cond_mean_above_grid(taus)
        # whatever order the sort kernel leaves within a block: bit for bit
        with monkeypatch.context() as m:
            m.setattr(np, "argsort", _ties_in_any_order(rng))
            engine = sm._EmpiricalEngine(pred, values)
        assert engine.cond_mean_above_grid(taus).tobytes() == want.tobytes()
        assert engine.cond_mean_top() == base.cond_mean_top()
        assert engine.quantile_grid(taus).tobytes() == base.quantile_grid(taus).tobytes()
        # the rows themselves permuted, within blocks too: rounding only
        for _ in range(3):
            perm = rng.permutation(pred.size)
            engine = sm._EmpiricalEngine(pred[perm], values[perm])
            np.testing.assert_allclose(engine.cond_mean_above_grid(taus), want, rtol=1e-13, atol=0.0)
            assert engine.cond_mean_top() == pytest.approx(base.cond_mean_top(), rel=1e-14)
            assert engine.quantile_grid(taus).tobytes() == base.quantile_grid(taus).tobytes()


# --- closed forms and the one grid path ---------------------------------------------

SMALL_SHAPES = sm.BetaMixture(((0.4, 0.5, 0.7), (0.6, 3.0, 0.3)))


def _upper_moment_quad(dist, q):
    """Adaptive quadrature of x f(x) over [q, 1]; beta components use the
    algebraic weight (1 - x)^(b - 1), which carries the endpoint singularity."""
    if isinstance(dist, sm.Uniform01):
        return integrate.quad(lambda x: x, q, 1.0, epsabs=1e-14, epsrel=1e-13)[0]
    total = 0.0
    for w, a, b in dist.components:
        norm = math.exp(-betaln(a, b))
        if q == 0.0:
            val = integrate.quad(lambda x: norm, 0.0, 1.0, weight="alg", wvar=(a, b - 1.0))[0]
        else:
            val = integrate.quad(
                lambda x: norm * x**a, q, 1.0, weight="alg", wvar=(0.0, b - 1.0),
                epsabs=1e-14, epsrel=1e-13, limit=200,
            )[0]
        total += w * val
    return total


@pytest.mark.parametrize("dist", [sm.Uniform01(), MIX, SMALL_SHAPES], ids=["uniform", "demo", "small"])
def test_upper_moment_matches_adaptive_quadrature(dist):
    for q in (0.0, 1e-3, 0.05, 0.3, 0.5, 0.77, 0.95, 0.999, 1.0):
        assert abs(float(dist.upper_moment(q)) - _upper_moment_quad(dist, q)) < 1e-12
    assert float(dist.upper_moment(0.0)) == dist.mean()


@pytest.mark.parametrize(
    "dist",
    [MIX, SMALL_SHAPES, sm.BetaMixture(((1.0, 4000.0, 4000.0),)), sm.BetaMixture(((1.0, 1.0, 1.0),))],
    ids=["demo", "small", "narrow", "flat"],
)
def test_mixture_ppf_inverts_cdf(dist):
    u = np.concatenate([np.linspace(0.0, 1.0, 1001), [1e-12, 1 - 1e-12, -0.5, 1.5]])
    x = dist.ppf(u)
    inner = (u > 0.0) & (u < 1.0)
    assert np.all(x[u <= 0.0] == 0.0) and np.all(x[u >= 1.0] == 1.0)
    assert np.all(np.diff(x[:1001]) >= 0.0)
    # within the 1e-14 solver tolerance of the root, in cdf units
    resid = np.abs(dist.cdf(x[inner]) - u[inner])
    assert np.all(resid <= 1e-15 + 1e-14 * dist.pdf(x[inner]))
    for ui, xi in zip(u[::50], x[::50]):  # scalar calls: same values, as floats
        got = dist.ppf(float(ui))
        assert isinstance(got, float) and got == xi


@pytest.mark.parametrize(
    "dist, rtol",
    [(MIX, 1e-14), (SMALL_SHAPES, 1e-14), (sm.BetaMixture(((0.5, 1.0, 1.0), (0.5, 1.0, 3.0))), 1e-14),
     (sm.BetaMixture(((1.0, 4000.0, 4000.0),)), 1e-10)],
    ids=["demo", "small", "unit_shapes", "narrow"],
)
def test_mixture_pdf_matches_scipy(dist, rtol):
    x = np.concatenate([np.linspace(0.0, 1.0, 10001), [-1.0, -1e-300, 1.5, math.inf, -math.inf, math.nan]])
    got = dist.pdf(x)
    ref = sum(w * stats.beta.pdf(x, a, b) for w, a, b in dist.components)
    # the same zeros, infinities and NaNs, and the finite values to rtol
    for kind in (lambda v: v == 0.0, np.isinf, np.isnan):
        assert np.array_equal(kind(got), kind(ref))
    finite = np.isfinite(ref) & (ref != 0.0)
    np.testing.assert_allclose(got[finite], ref[finite], rtol=rtol, atol=0.0)
    assert float(dist.pdf(0.5)) == float(got[5000])


def _noisy_reference(dist, sigma, s, moment):
    """P(r + eps <= s) for moment 0, E[r; r + eps > s] for moment 1, by
    adaptive quadrature per component: the algebraic weight carries the
    endpoint singularities, and breakpoints around s the kernel's width."""
    total = 0.0
    for w, a, b in dist.components:
        edges = sorted({0.0, 1.0, *(p for p in (s - 5 * sigma, s, s + 5 * sigma) if 0.0 < p < 1.0)})
        for lo, hi in zip(edges[:-1], edges[1:]):
            # the weight takes the factors at the ends this piece touches
            pa = 0.0 if lo == 0.0 else a - 1.0
            pb = 0.0 if hi == 1.0 else b - 1.0

            def inner(x, pa=pa, pb=pb):
                kernel = x * special.ndtr((x - s) / sigma) if moment else special.ndtr((s - x) / sigma)
                return x**pa * (1.0 - x) ** pb * kernel

            wvar = (a - 1.0 - pa, b - 1.0 - pb)
            total += w * math.exp(-betaln(a, b)) * integrate.quad(
                inner, lo, hi, weight="alg", wvar=wvar, epsabs=1e-15, epsrel=1e-13, limit=500
            )[0]
    return total


@pytest.mark.parametrize("sigma", [0.4, 0.1, 0.03, 0.01])
@pytest.mark.parametrize("dist, tol", [(SMALL_SHAPES, 1e-10), (MIX, 1e-12)], ids=["small", "demo"])
def test_noisy_quadrature_matches_adaptive_reference(dist, tol, sigma):
    # shapes below 1 put singularities at the ends of [0, 1], which a fixed
    # Gauss-Legendre rule times the density missed: its node mass was 1 - 6.1e-3
    model = sm.Analytic(dist, sm.GaussianNoiseClipped(sigma))
    eng = sm._engine(model)
    assert abs(eng._mass.sum() - 1.0) < 1e-13
    assert abs(eng._node_values.sum() - dist.mean()) < 1e-12
    cutoffs = np.array([0.02, 0.3, 0.55, 0.9])
    cdf = eng._cdf_hat(cutoffs)
    for s, got in zip(cutoffs, cdf):
        assert abs(got - _noisy_reference(dist, sigma, s, 0)) < tol
    for tau in (0.3, 0.5, 0.7, 0.95):
        q = sm.predicted_quantile(model, tau)
        if 0.0 < q < 1.0:  # not on an atom of r_hat's law, which is split fractionally
            tail = _noisy_reference(dist, sigma, q, 1) / (1.0 - tau)
            assert abs(sm.conditional_mean_above(model, tau) - tail) < tol


@pytest.mark.parametrize("sigma", [0.1, 0.01])
@pytest.mark.parametrize(
    "dist",
    [sm.BetaMixture(((1.0, 4000.0, 4000.0),)), sm.BetaMixture(((0.5, 1e5, 3.0), (0.5, 2.0, 2.0)))],
    ids=["narrow", "lopsided"],
)
def test_noisy_rule_survives_large_shapes(dist, sigma):
    # scipy.special.roots_jacobi returns NaN nodes for shapes like these
    model = sm.Analytic(dist, sm.GaussianNoiseClipped(sigma))
    eng = sm._engine(model)
    assert np.isfinite(eng._nodes).all() and np.isfinite(eng._mass).all()
    assert abs(eng._mass.sum() - 1.0) < 1e-12
    q = eng.quantile_grid(np.linspace(0.0, 1.0, 257))
    assert np.all(np.diff(q) >= 0.0)
    assert abs(sm.conditional_mean_above(model, 0.0) - dist.mean()) < 1e-12


def _noisy_atoms(model):
    eng = sm._engine(model)
    return eng._atom_low, 1.0 - eng._atom_high


def _grid_models():
    """Factories, so that the grid and the scalar side get separate caches."""
    rng = np.random.default_rng(9)
    pred = np.round(rng.random(300), 2)  # ties
    true = rng.random(300)
    return {
        "uniform_perfect": lambda: sm.Analytic(sm.Uniform01()),
        "mixture_perfect": lambda: sm.Analytic(MIX),
        "small_shapes_perfect": lambda: sm.Analytic(SMALL_SHAPES),
        "mixture_noisy": lambda: sm.Analytic(MIX, sm.GaussianNoiseClipped(0.1)),
        "uniform_noisy_wide": lambda: sm.Analytic(sm.Uniform01(), sm.GaussianNoiseClipped(0.4)),
        "joint": lambda: sm.EmpiricalJoint(pred, true),
        "labeled": lambda: sm.EmpiricalLabeled(pred, (true < pred).astype(float)),
        "scores": lambda: sm.EmpiricalJoint(true, true),
    }


@pytest.mark.parametrize("name", sorted(_grid_models()))
def test_grid_equals_scalar_bitwise(name):
    make = _grid_models()[name]
    grid_model, scalar_model = make(), make()
    taus = np.linspace(0.0, 1.0, 257)
    if isinstance(sm._engine(scalar_model), sm._NoisyEngine):
        low, high = _noisy_atoms(scalar_model)
        extra = [0.5 * low, low, np.nextafter(low, 1.0), np.nextafter(high, 0.0), high, 0.5 * (1 + high)]
        taus = np.concatenate([taus, extra])
        assert 0.0 < low and high < 1.0
    quantiles = sm._engine(grid_model).quantile_grid(taus)
    tails = sm.conditional_mean_above_grid(grid_model, taus)
    n = 300 if sm.is_empirical(grid_model) else None
    defined = np.array([n is None or sm.flagged_count(n, float(t)) > 0 for t in taus]) & (taus < 1.0)
    tpr = sm.tpr_grid(grid_model, taus)
    for t, q in zip(taus, quantiles):
        assert q == sm.predicted_quantile(scalar_model, float(t))
    for t, c in zip(taus[defined], tails[defined]):
        assert c == sm.conditional_mean_above(scalar_model, float(t))
    for t, v in zip(taus, tpr):
        assert v == sm.tpr_at(scalar_model, float(t))
    assert np.isnan(tails[~defined]).all()
    assert (tpr[~defined] == 0.0).all()  # no one is flagged
    # a value does not depend on which other taus share the call
    order = np.random.default_rng(1).permutation(taus.size)
    assert np.array_equal(sm.conditional_mean_above_grid(make(), taus[order]), tails[order], equal_nan=True)


def _memoized_reference(cache, solve, taus):
    """The memo as a dict loop: solve the new distinct taus once, then read
    every value back from the dict."""
    keys = taus.tolist()
    miss = list(dict.fromkeys(t for t in keys if t not in cache))
    if miss:
        cache.update(zip(miss, solve(np.array(miss)).tolist()))
    return np.array([cache[t] for t in keys], dtype=float)


def _signed_solve(calls):
    def solve(taus):
        calls.append([t.hex() for t in taus.tolist()])
        return np.copysign(np.sqrt(np.abs(taus)) + 1.0 / 3.0, taus)  # -0.0 and 0.0 give different bits

    return solve


@pytest.mark.parametrize(
    "cached, taus, new",
    [
        ([], [0.3, 0.1, 0.7], [0.3, 0.1, 0.7]),  # all new
        ([0.1, 0.9], [0.1, 0.2, 0.3, 0.9], [0.2, 0.3]),  # partly cached
        ([], [0.2, 0.5, 0.2, 0.5], [0.2, 0.5]),  # repeated
        ([0.5], [0.5, 0.5], []),  # all cached
        ([], [0.0, -0.0, 0.4], [0.0, 0.4]),  # 0.0 and -0.0 are one tau
        ([], [-0.0, 0.0], [-0.0]),
        ([], [-0.0], [-0.0]),
        ([0.0], [-0.0, 0.6], [0.6]),
        ([], [], []),
    ],
)
def test_memoized_is_bitwise_the_dict_loop(cached, taus, new):
    cache, ref_cache, calls, ref_calls = {}, {}, [], []
    for c in (cache, ref_cache):
        c.update(zip(cached, _signed_solve([])(np.array(cached, dtype=float)).tolist()))
    taus = np.array(taus, dtype=float)
    got = sm._memoized(cache, _signed_solve(calls), taus)
    ref = _memoized_reference(ref_cache, _signed_solve(ref_calls), taus)
    assert got.dtype == ref.dtype == np.float64
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in ref.tolist()]
    assert [(k.hex(), v.hex()) for k, v in cache.items()] == [(k.hex(), v.hex()) for k, v in ref_cache.items()]
    # the solver runs once, on exactly the new taus, or not at all
    assert calls == ref_calls == ([[t.hex() for t in new]] if new else [])


def test_memoized_returns_the_solvers_array_when_every_tau_is_new():
    out = np.array([1.0, 2.0])
    got = sm._memoized({}, lambda taus: out, np.array([0.25, 0.5]))
    assert got is out
    cache = {0.25: 7.0}
    assert sm._memoized(cache, lambda taus: np.array([3.0]), np.array([0.25, 0.5])).tolist() == [7.0, 3.0]


def test_tpr_grid_empty_tail_error():
    # an empty tail has no mean, but its TPR is 0
    model = sm.EmpiricalJoint(np.array([0.2, 0.8]), np.array([0.2, 0.8]))
    assert sm.tpr_grid(model, np.array([0.0, 0.5, 0.75, 1.0])).tolist() == [1.0, 0.8, 0.0, 0.0]
    assert sm.tpr_at(model, 0.75) == sm.tpr_at(model, 1.0) == 0.0
    with pytest.raises(ValueError, match="empty tail"):
        sm.conditional_mean_above(model, 0.75)
    with pytest.raises(ValueError, match="1-d"):
        sm.conditional_mean_above_grid(model, np.zeros((2, 2)))


@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_auc_integral_work_count(monkeypatch, sigma):
    from scipy import optimize

    from capthresh import metrics as mt

    calls = {"brentq": 0, "pdf": 0}
    brentq, pdf = optimize.brentq, sm.BetaMixture.pdf

    def counting_brentq(*args, **kwargs):
        calls["brentq"] += 1
        return brentq(*args, **kwargs)

    def counting_pdf(self, x):
        calls["pdf"] += 1
        return pdf(self, x)

    monkeypatch.setattr(optimize, "brentq", counting_brentq)
    monkeypatch.setattr(sm.BetaMixture, "pdf", counting_pdf)
    predictor = sm.Perfect() if sigma == 0.0 else sm.GaussianNoiseClipped(sigma)
    mt.auc_integral(sm.Analytic(sm.BetaMixture(((0.7, 2.0, 10.0), (0.3, 8.0, 2.0))), predictor))
    assert calls["brentq"] == 0
    assert calls["pdf"] < 100


# --- conditional_mean_at -------------------------------------------------------


@pytest.mark.parametrize("tau", [0.7, 0.25])
def test_cm_at_uniform_is_quantile(uniform_perfect, tau):
    assert sm.conditional_mean_at(uniform_perfect, tau) == pytest.approx(tau, abs=1e-12)


def test_cm_at_noisy_matches_mc_finite_difference(uniform_noisy):
    # oracle: central difference of the MC tail-mass curve, step 1e-3
    rng = np.random.default_rng(99)
    r = rng.random(4 * 10**6)
    r_hat = np.clip(r + 0.1 * rng.standard_normal(r.size), 0.0, 1.0)
    h = 1e-3

    def tail_mass(tau):
        q = np.quantile(r_hat, tau)
        sel = r_hat >= q
        return (1.0 - tau) * r[sel].mean()

    oracle = -(tail_mass(0.5 + h) - tail_mass(0.5 - h)) / (2 * h)
    assert abs(sm.conditional_mean_at(uniform_noisy, 0.5) - oracle) < 1e-2


def _cm_at_mpmath(dist, sigma, q):
    """E[r | r + sigma Z = q] to 20 digits: the integrals of x f(x) phi((q - x) / sigma)
    and of f(x) phi((q - x) / sigma) over [0, 1], split where the kernel bends."""
    with mp.workdps(20):
        def density(x):
            return sum(w * x ** (a - 1) * (1 - x) ** (b - 1) / mp.beta(a, b) for w, a, b in dist.components)

        def kernel(x):
            return mp.exp(-((q - x) / sigma) ** 2 / 2)

        edges = sorted({0.0, 1.0, *(min(max(p, 0.0), 1.0) for p in (q - 6 * sigma, q, q + 6 * sigma))})
        num = mp.quad(lambda x: x * density(x) * kernel(x), edges)
        den = mp.quad(lambda x: density(x) * kernel(x), edges)
        return float(num / den)


@pytest.mark.parametrize("sigma", [10.0, 0.4, 0.1, 0.01])
def test_cm_at_noisy_matches_mpmath(sigma):
    model = sm.Analytic(MIX, sm.GaussianNoiseClipped(sigma))
    low, high = _noisy_atoms(model)
    for frac in (0.25, 0.5, 0.75):
        tau = low + frac * (high - low)
        q = sm.predicted_quantile(model, tau)
        assert abs(sm.conditional_mean_at(model, tau) - _cm_at_mpmath(MIX, sigma, q)) <= 1e-14, (sigma, tau)


def test_cm_at_empirical_raises():
    values = np.linspace(0.0, 1.0, 10_000)
    with pytest.raises(ValueError, match="undefined for empirical models"):
        sm.conditional_mean_at(sm.EmpiricalJoint(values, values), 0.5)


# --- tpr_at ---------------------------------------------------------------------


def test_tpr_uniform_closed_form(uniform_perfect):
    # perfect ranking of uniform scores: TPR(tau) = 1 - tau^2
    assert sm.tpr_at(uniform_perfect, 0.8) == pytest.approx(0.36, abs=1e-12)
    assert sm.tpr_at(uniform_perfect, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_tpr_labeled_enumeration():
    model = sm.EmpiricalLabeled(np.array([0.9, 0.8, 0.1]), np.array([1.0, 0.0, 1.0]))
    assert sm.tpr_at(model, 2 / 3) == pytest.approx(0.5)


def test_tpr_no_positives_error():
    model = sm.EmpiricalLabeled(np.array([0.9, 0.8]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError, match="no positives"):
        sm.tpr_at(model, 0.5)


def test_tpr_identity(uniform_perfect, mixture_perfect, uniform_noisy):
    for model in (uniform_perfect, mixture_perfect, uniform_noisy):
        er = sm.mean_true_score(model)
        for tau in np.linspace(0.0, 0.95, 20):
            tau = float(tau)
            lhs = sm.tpr_at(model, tau) * er
            rhs = (1.0 - tau) * sm.conditional_mean_above(model, tau)
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_tpr_identity_empirical_exact():
    rng = np.random.default_rng(5)
    model = sm.EmpiricalLabeled(rng.random(500), (rng.random(500) < 0.3).astype(float))
    er = sm.mean_true_score(model)
    for tau in (0.1, 0.33, 0.5, 0.77):
        assert sm.tpr_at(model, tau) * er == (1.0 - tau) * sm.conditional_mean_above(model, tau)


# --- sample_population -----------------------------------------------------------


def test_sample_perfect_predictor_matches(uniform_perfect):
    pop = sm.sample_population(uniform_perfect, 5, seed=1)
    assert np.array_equal(pop.r, pop.r_hat)


def test_sample_mean_clt(uniform_perfect):
    pop = sm.sample_population(uniform_perfect, 10**6, seed=7)
    assert abs(pop.r.mean() - 0.5) < 0.002  # 3 sigma/sqrt(n) headroom


def test_sample_binary_mode_outcomes(mixture_perfect):
    # outcomes are Bernoulli(r) draws a caller makes next from the cohort's generator
    rng = np.random.default_rng(2)
    pop = sm.sample_population(mixture_perfect, 200_000, seed=rng)
    y = rng.random(pop.n) < pop.r
    assert y.mean() == pytest.approx(pop.r.mean(), abs=0.005)


def _many_components(k, seed):
    """k beta components with random weights, two of them 0, and random shapes."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(k))
    weights[[1, k // 2]] = 0.0
    shapes = rng.uniform(0.5, 10.0, size=(k, 2))
    return tuple((float(w), float(a), float(b)) for w, (a, b) in zip(weights / weights.sum(), shapes))


@pytest.mark.parametrize(
    "components",
    [
        ((1.0, 2.0, 3.0),),
        ((0.7, 2.0, 10.0), (0.3, 8.0, 2.0)),
        ((0.5, 2.0, 3.0), (0.0, 1.0, 1.0), (0.5, 0.5, 4.0)),  # a component of weight 0
        _many_components(33, seed=3),  # picked by comparisons at 20,000 draws
        _many_components(sm._COMPARE_COMPONENTS + 8, seed=4),  # picked by binary search
    ],
)
@pytest.mark.parametrize("n", [1, 1000, 20000])
def test_mixture_sample_matches_generator_choice(components, n):
    # the reference: components picked by Generator.choice, then the beta draws
    weights, alphas, betas = np.array(components).T
    mix = sm.BetaMixture(components)
    for seed in (0, 1, 5, 2026):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        comp = ref.choice(len(components), size=n, p=weights)
        assert np.array_equal(mix.sample(ours, n), ref.beta(alphas[comp], betas[comp]))
        assert ours.random() == ref.random()  # the same draws consumed


class _EchoRng:
    """Hands ``BetaMixture.sample`` the given uniforms, and returns each draw's
    alpha as its beta draw, so the draw reads back the component picked."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()

    def beta(self, a, b):
        return a


@pytest.mark.parametrize(
    "weights",
    [
        (1.0,),
        (0.3, 0.7),
        (0.2, 0.3, 0.5),
        (0.0, 0.4, 0.6),  # weight-0 components first, between and last
        (0.5, 0.0, 0.5),
        (0.5, 0.5, 0.0),
        tuple(w for w, _, _ in _many_components(sm._COMPARE_COMPONENTS, seed=1)),
        tuple(w for w, _, _ in _many_components(sm._COMPARE_COMPONENTS + 1, seed=2)),
    ],
)
def test_mixture_component_pick_is_the_binary_search(weights):
    # uniforms exactly on each cut and one ulp either side: the pick must be
    # cdf.searchsorted(u, side="right"), what Generator.choice does, both for
    # few draws and for enough draws per cut to pick by comparisons
    mix = sm.BetaMixture(tuple((w, k + 1.0, 1.0) for k, w in enumerate(weights)))
    cdf = mix._sampler[0]
    u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0), [0.0]])
    u = u[u < 1.0]
    for n in (u.size, max(u.size, sm._COMPARE_DRAWS_PER_CUT * (cdf.size - 1))):
        draws = np.resize(u, n)
        picked = mix.sample(_EchoRng(draws), n) - 1.0
        assert picked.tolist() == cdf.searchsorted(draws, side="right").tolist()


@pytest.mark.parametrize("n", [1, 5, 1000, 20000])
def test_corpus_sample_matches_generator_choice(n):
    # the reference: corpus rows picked by Generator.choice with replacement
    rng = np.random.default_rng(11)
    pred, true = rng.random(20_000), rng.random(20_000)
    model = sm.EmpiricalJoint(pred, true)
    for seed in range(5):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        pop = sm.sample_population(model, n, seed=ours)
        idx = ref.choice(pred.size, size=n, replace=True)
        assert np.array_equal(pop.r, true[idx])
        assert np.array_equal(pop.r_hat, pred[idx])
        assert ours.random() == ref.random()  # the same draws consumed


def test_sample_determinism(mixture_noisy):
    rngs = np.random.default_rng(42), np.random.default_rng(42)
    a, b = (sm.sample_population(mixture_noisy, 1000, seed=rng) for rng in rngs)
    assert np.array_equal(a.r, b.r)
    assert np.array_equal(a.r_hat, b.r_hat)
    assert np.array_equal(rngs[0].random(1000), rngs[1].random(1000))


def test_noisy_sampling_and_mean_leave_scipy_stats_unloaded(cli_env):
    # the noisy engine integrates on per-component Gauss rules and never
    # evaluates a density, so no noisy primitive needs scipy.stats
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from capthresh import metrics, score_model as sm
        mix = sm.BetaMixture(((0.7, 2.0, 10.0), (0.3, 8.0, 2.0)))
        model = sm.Analytic(mix, sm.GaussianNoiseClipped(0.1))
        sm.sample_population(model, 100, seed=1)
        sm.mean_true_score(model)
        sm.predicted_quantile(model, 0.8)
        sm.conditional_mean_above(model, 0.8)
        sm.tpr_grid(model, np.linspace(0.0, 1.0, 11))
        metrics.auc_integral(model)
        print("scipy.stats loaded:", "scipy.stats" in sys.modules)
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=cli_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "scipy.stats loaded: False"


# --- one engine per model kind ----------------------------------------------------

_RNG = np.random.default_rng(12)
_PRED = np.round(_RNG.random(400), 2)  # ties
_TRUE = np.clip(_PRED + 0.1 * _RNG.standard_normal(400), 0.0, 1.0)
MODEL_KINDS = {
    "perfect": (lambda: sm.Analytic(MIX), sm._PerfectEngine),
    "noisy": (lambda: sm.Analytic(MIX, sm.GaussianNoiseClipped(0.1)), sm._NoisyEngine),
    "joint": (lambda: sm.EmpiricalJoint(_PRED, _TRUE), sm._EmpiricalEngine),
    "labeled": (lambda: sm.EmpiricalLabeled(_PRED, (_TRUE > 0.5).astype(float)), sm._EmpiricalEngine),
}


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_model_kind_answers_every_primitive(kind):
    make, engine_cls = MODEL_KINDS[kind]
    model = make()
    home = f"model kind '{kind}' is answered by {engine_cls.__name__} in capthresh/score_model.py"
    assert type(sm._engine(model)) is engine_cls, f"{home}: _engine built {sm._engine(model)!r}"
    empirical = kind in ("joint", "labeled")
    assert sm.is_empirical(model) == empirical, home
    er = sm.mean_true_score(model)
    assert 0.0 < er < 1.0, home
    q = [sm.predicted_quantile(model, t) for t in (0.0, 0.5, 1.0)]
    assert 0.0 <= q[0] <= q[1] <= q[2] <= 1.0, home
    taus = np.array([0.0, 0.5, 0.9, 1.0])
    cma = sm.conditional_mean_above_grid(model, taus)
    assert cma[0] == pytest.approx(er, abs=1e-12) and math.isnan(cma[3]), home
    assert [sm.conditional_mean_above(model, t) for t in (0.0, 0.5, 0.9)] == cma[:3].tolist(), home
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        sm.conditional_mean_above(model, 1.0)
    tpr = sm.tpr_grid(model, taus)
    assert tpr[0] == pytest.approx(1.0, abs=1e-12) and tpr[3] == 0.0, home
    assert [sm.tpr_at(model, float(t)) for t in taus] == tpr.tolist(), home
    assert 0.0 <= sm.conditional_mean_top(model) <= 1.0, home
    if empirical:
        with pytest.raises(ValueError, match="undefined for empirical models"):
            sm.conditional_mean_at(model, 0.5)
    else:
        assert 0.0 < sm.conditional_mean_at(model, 0.5) < 1.0, home
    pop = sm.sample_population(model, 50, seed=3)
    again = sm.sample_population(model, 50, seed=3)
    assert pop.n == 50 and np.array_equal(pop.r, again.r) and np.array_equal(pop.r_hat, again.r_hat), home
    if kind == "labeled":
        assert set(np.unique(pop.r)) <= {0.0, 1.0}, home  # the outcomes are the data


def test_unknown_model_kind_raises_type_error():
    with pytest.raises(TypeError, match="not a JointScoreModel"):
        sm.mean_true_score(sm.Uniform01())


# --- distributional invariants ----------------------------------------------------


@pytest.mark.parametrize("model_name", ["uniform_perfect", "uniform_noisy", "mixture_perfect"])
def test_quantile_tail_consistency(model_name, request):
    model = request.getfixturevalue(model_name)
    pop = sm.sample_population(model, 10**6, seed=17)
    for tau in np.arange(0.1, 0.95, 0.1):
        q = sm.predicted_quantile(model, float(tau))
        frac = float((pop.r_hat >= q).mean())
        assert abs(frac - (1.0 - tau)) < 0.005


@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_monotone_calibration_cma_nondecreasing(sigma):
    predictor = sm.Perfect() if sigma == 0.0 else sm.GaussianNoiseClipped(sigma)
    model = sm.Analytic(sm.Uniform01(), predictor)
    taus = np.linspace(0.0, 0.99, 101)
    values = [sm.conditional_mean_above(model, float(t)) for t in taus]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_unbiasedness_small_sigma():
    model = sm.Analytic(sm.Uniform01(), sm.GaussianNoiseClipped(0.01))
    pop = sm.sample_population(model, 10**6, seed=4)
    assert abs(pop.r_hat.mean() - pop.r.mean()) <= 0.01


# --- flagged_count convention ------------------------------------------------------


@given(n=st.integers(1, 400), tau=st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_flagged_count_convention(n, tau):
    k = sm.flagged_count(n, tau)
    assert 0 <= k <= n
    assert k == n - math.ceil(tau * n - 1e-9)


def test_flagged_counts_match_the_scalar_rule():
    taus = np.concatenate([np.linspace(0.0, 1.0, 1001), [2 / 3, 0.7, 0.29, 1 - 1e-12, 1e-12]])
    for n in (1, 3, 7, 100, 1000, 20_000, 10**6):
        want = [n - min(max(math.ceil(t * n - 1e-9), 0), n) for t in taus.tolist()]
        assert sm.flagged_counts(n, taus).tolist() == want
        assert [sm.flagged_count(n, t) for t in taus[::97].tolist()] == want[::97]
    for bad in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match=f"tau must be in \\[0, 1\\], got {bad}"):
            sm.flagged_count(10, bad)


def test_flagged_count_edges():
    assert sm.flagged_count(100, 0.0) == 100
    assert sm.flagged_count(100, 1.0) == 0
    assert sm.flagged_count(100, 0.8) == 20
    assert sm.flagged_count(3, 2 / 3) == 1
