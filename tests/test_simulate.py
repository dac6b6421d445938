import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capthresh import fluid as fl
from capthresh import score_model as sm
from capthresh import simulate as sim

P = fl.BehavioralParams(0.1, 0.5)


def _uniform_pop(n, seed=0):
    return sm.sample_population(sm.Analytic(sm.Uniform01(), sm.Perfect()), n, seed=seed)


# --- non-finite cohorts ---------------------------------------------------------


@pytest.mark.parametrize("field", ["r", "r_hat"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_population_rejects_non_finite(field, bad):
    arrays = {"r": np.linspace(0.1, 0.9, 10), "r_hat": np.linspace(0.1, 0.9, 10)}
    arrays[field][3] = bad
    with pytest.raises(ValueError, match=f"population {field} must be finite"):
        sm.Population(**arrays)


def _nan_score_cohort():
    r = np.linspace(0.1, 0.9, 10)
    r_hat = r.copy()
    r_hat[4] = math.nan
    return sm.Population(r=r, r_hat=r_hat)


def test_simulate_taus_rejects_a_non_finite_cohort():
    # this cohort once gave a mean of 1.787 at tau = 0.5: the NaN individual
    # sorted last and was never flagged
    model = sm.Analytic(sm.Uniform01())
    cfg = sim.SimConfig(n=10, m=3, params=P, trials=200, seed=1)
    with pytest.raises(ValueError, match="population r_hat must be finite"):
        sim.simulate_taus(cfg, [0.5, 0.8], model, population=_nan_score_cohort())


def test_exact_objective_random_rejects_a_non_finite_cohort():
    # this cohort once gave 1.807
    with pytest.raises(ValueError, match="population r_hat must be finite"):
        sim.exact_objective_random(_nan_score_cohort(), 0.5, 3, P)


# --- flag_top -----------------------------------------------------------------


def test_flag_top_counts():
    pop = _uniform_pop(100)
    assert sim.flag_top(pop, 0.8, seed=1).sum() == 20
    assert sim.flag_top(pop, 1.0, seed=1).sum() == 0
    assert sim.flag_top(pop, 0.0, seed=1).sum() == 100


def test_flag_top_selects_highest_scores():
    pop = _uniform_pop(50, seed=2)
    flags = sim.flag_top(pop, 0.7, seed=0)
    k = flags.sum()
    cutoff = np.sort(pop.r_hat)[-k]
    assert pop.r_hat[flags].min() >= cutoff


def test_flag_top_tie_break_is_seeded():
    pop = sm.Population(r=np.linspace(0, 1, 40), r_hat=np.full(40, 0.5))
    a = sim.flag_top(pop, 0.5, seed=1)
    b = sim.flag_top(pop, 0.5, seed=2)
    assert a.sum() == b.sum() == 40 - math.ceil(0.5 * 40)
    assert not np.array_equal(a, b)  # different seeds pick different tied sets
    assert np.array_equal(a, sim.flag_top(pop, 0.5, seed=1))


def test_top_k_flags_match_lexsort_prefix():
    rng = np.random.default_rng(0)
    for n in (1, 7, 60, 301):
        r_hat = np.round(rng.random(n), 1)  # heavy ties
        perm = rng.permutation(n)
        ks = list(range(n + 1))
        order = np.lexsort((perm, -r_hat))
        for k, flags in zip(ks, sim._smallest(-r_hat, ks, perm)):
            expect = np.zeros(n, dtype=bool)
            expect[order[:k]] = True
            assert np.array_equal(flags, expect)


def _smallest_reference(keys, k, second, members):
    """One row's selection: the first ``k`` members in ``lexsort((second, keys))`` order."""
    idx = np.flatnonzero(members)
    chosen = np.zeros(keys.size, dtype=bool)
    chosen[idx[np.lexsort((second[idx], keys[idx]))][:k]] = True
    return chosen


@given(
    rows=st.integers(0, 4),
    n=st.integers(0, 12),
    ks=st.lists(st.integers(0, 15), min_size=1, max_size=4),
    share=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=200, deadline=None)
def test_smallest_matches_lexsort_reference(rows, n, ks, share, seed):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 3, (rows, n)).astype(float)  # ties within and across rows
    second = np.array([rng.permutation(n) for _ in range(rows)]).reshape(rows, n)
    members = rng.random((rows, n)) < share
    # a non-member's key must be at least every member's: lift it by 2, as the callers do
    lifted = keys + 2.0 * ~members
    with_members = sim._smallest(lifted, ks, second, members)
    everyone = sim._smallest(keys, ks, second)
    for got, mask in ((with_members, members), (everyone, np.ones((rows, n), dtype=bool))):
        assert got.shape == (rows, len(ks), n)
        for r in range(rows):
            for j, k in enumerate(ks):
                assert np.array_equal(got[r, j], _smallest_reference(keys[r], k, second[r], mask[r]))


def test_smallest_edge_cases():
    keys = np.array([[0.3, 0.1, 0.2], [0.5, 0.5, 0.5]])
    second = np.array([[2, 0, 1], [1, 2, 0]])
    # k >= n keeps every member
    assert sim._smallest(keys, [3, 7], second).all()
    members = np.array([[True, False, True], [False, False, False]])
    got = sim._smallest(keys + ~members, [1, 3, 7], second, members)
    assert np.array_equal(got[0], [[False, False, True], [True, False, True], [True, False, True]])
    assert not got[1].any()  # a row with no members chooses no one
    # rows of n = 0: an empty selection per row and k
    empty = np.empty((2, 0))
    assert sim._smallest(empty, [0, 1, 5], empty, empty.astype(bool)).shape == (2, 3, 0)
    # ties across several rows: each row breaks its own tie by its own ``second``
    tied = np.full((3, 4), 0.5)
    order = np.array([[3, 1, 0, 2], [0, 1, 2, 3], [2, 3, 1, 0]])
    got = sim._smallest(tied, [2], order)[:, 0]
    assert np.array_equal(got, order < 2)


def test_smallest_sort_path_equals_partition_path():
    # several cuts come from one sort, one cut from a partition
    rng = np.random.default_rng(6)
    for n in (1, 2, 5, 40):
        keys = np.round(rng.random((3, n)), 1)  # heavy ties
        second = np.array([rng.permutation(n) for _ in range(3)])
        ks = [0, 1, n // 2, n - 1, n, n + 3]
        together = sim._smallest(keys, ks, second)
        for j, k in enumerate(ks):
            assert np.array_equal(together[:, j], sim._smallest(keys, [k], second)[:, 0]), (n, k)


# --- _serve (allocation) ------------------------------------------------------


def _allocate(requesters, scores, m, beta1, rng, bystanders=0):
    # the trial kernel's draws: one tie key, then one lottery key per individual;
    # ``bystanders`` individuals after the requesters do not request
    n = requesters.size + bystanders
    scores = np.concatenate([scores, rng.random(bystanders)])
    tie = rng.random(n)
    lottery = rng.random(n)
    requests = np.zeros((1, n), dtype=bool)
    requests[0, requesters] = True
    return np.flatnonzero(sim._serve(requests, scores, tie, lottery, m, beta1)[0])


def test_allocate_random_uniform_rates():
    # 30 requesters, 20 slots, beta1=0: each served with probability 2/3
    requesters = np.arange(30)
    scores = np.linspace(0, 1, 30)
    counts = np.zeros(30)
    reps = 3000
    for i in range(reps):
        served = _allocate(requesters, scores, 20, 0.0, np.random.default_rng(i))
        assert served.size == 20
        counts[served] += 1
    rates = counts / reps
    se = math.sqrt((2 / 3) * (1 / 3) / reps)
    assert np.all(np.abs(rates - 2 / 3) < 5 * se)


def test_allocate_full_prioritization_slack_capacity():
    requesters = np.arange(7)
    scores = np.linspace(0, 1, 7)
    served = _allocate(requesters, scores, 10, 1.0, np.random.default_rng(0), bystanders=5)
    assert sorted(served) == list(range(7))


def test_allocate_mixture_split():
    # floor(0.5 * 5) = 2 prioritized, 3 random from the remaining 8
    requesters = np.arange(10)
    scores = np.arange(10) / 10.0
    for seed in range(50):
        served = _allocate(requesters, scores, 5, 0.5, np.random.default_rng(seed))
        assert served.size == 5
        assert {8, 9} <= set(served)  # two highest-scored always in


@given(
    n_req=st.integers(0, 60),
    bystanders=st.integers(0, 20),
    m=st.integers(0, 40),
    beta1=st.floats(0.0, 1.0, allow_nan=False),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=150, deadline=None)
def test_allocate_conserves_capacity(n_req, bystanders, m, beta1, seed):
    rng = np.random.default_rng(seed)
    requesters = np.arange(n_req)
    scores = np.round(rng.random(n_req), 1)  # ties in the priority stage
    served = _allocate(requesters, scores, m, beta1, rng, bystanders)
    assert served.size == min(n_req, m)
    assert np.unique(served).size == served.size
    assert set(served) <= set(requesters)


# --- simulate_policy -------------------------------------------------------------


def test_simulate_enumeration_anchor():
    pop = sm.Population(r=np.array([1.0, 0.0]), r_hat=np.array([1.0, 0.0]))
    cfg = sim.SimConfig(
        n=2, m=1, params=fl.BehavioralParams(0.5, 0.0), trials=100_000, seed=9
    )
    est = sim.simulate_policy(cfg, fl.Fixed(1.0), sm.Analytic(sm.Uniform01()), population=pop)
    # enumeration over request patterns: 1.0 * 0.5 * (0.5 * 1 + 0.5 * 0.5)
    assert abs(est.mean - 0.375) <= 3 * est.std_error


def test_simulate_deterministic_funnel():
    pop = _uniform_pop(40, seed=5)
    cfg = sim.SimConfig(
        n=40, m=40, params=fl.BehavioralParams(0.0, 1.0), trials=50, seed=1
    )
    est = sim.simulate_policy(cfg, fl.Fixed(0.0), sm.Analytic(sm.Uniform01()), population=pop)
    assert est.mean == pytest.approx(pop.r.sum())
    assert est.std_error < 1e-12
    assert est.requests_mean == 40.0
    assert est.utilization_mean == 1.0


def test_simulate_upper_bounded_by_fluid(uniform_perfect):
    cfg = sim.SimConfig(n=200, m=20, params=P, trials=4000, seed=3)
    est = sim.simulate_policy(cfg, fl.TwoPointOptimal(), uniform_perfect)
    tau = fl.two_point_threshold(0.1, uniform_perfect, P)
    fluid_w = fl.fluid_objective(tau, uniform_perfect, 200, 20, P)
    assert est.mean <= fluid_w + 3 * est.std_error
    assert est.mean >= fluid_w * 0.98 - 3 * est.std_error


def test_simulate_seed_determinism_and_worker_independence(mixture_perfect):
    cfg = sim.SimConfig(n=150, m=30, params=P, beta1=0.5, trials=400, seed=77)
    a = sim.simulate_policy(cfg, fl.TwoPointOptimal(), mixture_perfect)
    b = sim.simulate_policy(cfg, fl.TwoPointOptimal(), mixture_perfect)
    c = sim.simulate_policy(cfg, fl.TwoPointOptimal(), mixture_perfect, workers=3)
    assert a == b == c


def test_trial_outcome_conservation():
    pop = _uniform_pop(60, seed=8)
    cfg = sim.SimConfig(n=60, m=12, params=P, beta1=0.25, trials=40, seed=3)
    k = sm.flagged_count(60, 0.7)
    rows = sim._run_trials(sm.Analytic(sm.Uniform01()), cfg, [k], pop, 0, 40)[0]
    for _, served, served_flagged, served_unflagged, requests in rows:
        assert served == min(requests, 12)
        assert served_flagged + served_unflagged == served


@pytest.mark.parametrize(
    "entropy", [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**130 + 12345, (2026, 400), (7, 2**40)]
)
def test_spawn_states_equal_spawn_and_generate_state(entropy):
    children = np.random.SeedSequence(entropy).spawn(40)
    for lo, hi in ((0, 40), (13, 29), (40, 40)):
        expect = [c.generate_state(4, np.uint64) for c in children[lo:hi]]
        got = sim._spawn_states(entropy, lo, hi)
        assert got.dtype == np.uint64 and got.shape == (hi - lo, 4)
        assert np.array_equal(got, np.array(expect, dtype=np.uint64).reshape(-1, 4))
    for rng, child in zip(sim.spawned_generators(entropy, 5, 12), children[5:12], strict=True):
        ref = np.random.default_rng(child)
        assert np.array_equal(rng.random(7), ref.random(7))
        assert np.array_equal(rng.permutation(9), ref.permutation(9))


def test_spawn_states_reject_two_word_spawn_keys():
    # 2**32 - 1 is the last index whose spawn key is one uint32 word
    last = np.random.SeedSequence(5, spawn_key=(2**32 - 1,)).generate_state(4, np.uint64)
    assert np.array_equal(sim._spawn_states(5, 2**32 - 1, 2**32), [last])
    with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
        sim._spawn_states(5, 2**32, 2**32 + 1)
    with pytest.raises(ValueError):
        sim._spawn_states(-1, 0, 3)


def test_simulate_taus_worker_independent_on_an_uneven_split(monkeypatch, mixture_perfect):
    # 101 trials split 50/51 over two workers and 33/34/34 over three
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 3)
    cfg = sim.SimConfig(n=80, m=16, params=P, beta1=0.5, trials=101, seed=2**40 + 3)
    taus = [0.0, 0.55, 0.8, 1.0]
    for pop in (None, sm.sample_population(mixture_perfect, 80, seed=1)):
        runs = [sim.simulate_taus(cfg, taus, mixture_perfect, population=pop, workers=w) for w in (1, 2, 3)]
        assert runs[0] == runs[1] == runs[2]


def test_beta1_monotonicity_perfect_predictor(uniform_perfect):
    means, ses = [], []
    for b1 in (0.0, 0.25, 0.5, 0.75, 1.0):
        cfg = sim.SimConfig(n=400, m=80, params=P, beta1=b1, trials=1500, seed=21)
        est = sim.simulate_policy(cfg, fl.Fixed(0.7), uniform_perfect)
        means.append(est.mean)
        ses.append(est.std_error)
    for i in range(len(means) - 1):
        pooled = math.hypot(ses[i], ses[i + 1])
        assert means[i + 1] >= means[i] - 3 * pooled


# --- exact_expected_served --------------------------------------------------------


def test_exact_served_enumeration():
    got = sim.exact_expected_served(1.0, 2, 1, fl.BehavioralParams(0.5, 0.0))
    assert got == pytest.approx(0.75, abs=1e-12)


def test_exact_served_slack_capacity_is_mean_demand():
    k = sm.flagged_count(10, 0.8)
    expect = k * 0.6 + (10 - k) * 0.1
    assert sim.exact_expected_served(0.8, 10, 100, P) == pytest.approx(expect, abs=1e-9)


def test_exact_served_vs_fluid_with_chernoff():
    exact = sim.exact_expected_served(0.8, 1000, 200, P)
    fluid_n = fl.fluid_served(0.8, 1000, 200, P)
    assert exact <= fluid_n + 1e-9  # Jensen
    assert fluid_n - exact <= sim.chernoff_demand_bound(0.8, 1000, 200, P)


def test_binom_pmf_bitwise_equals_scipy_stats():
    from scipy import stats

    for k in (1, 5, 100, 1600, 5000):
        for p in (0.0, 1e-9, 0.1, 0.6, 0.999, 1.0):
            expect = stats.binom.pmf(np.arange(k + 1), k, p)
            assert sim._binom_pmf(k, p).tobytes() == expect.tobytes(), (k, p)


def test_exact_served_budget():
    with pytest.raises(ValueError, match="Monte Carlo"):
        sim.exact_expected_served(0.5, 6000, 100, P)


def test_chernoff_diagnostic_both_sides():
    for tau in (0.5, 0.95):  # strictly below / above the capacity-matching point
        exact = sim.exact_expected_served(tau, 1000, 200, P)
        fluid_n = fl.fluid_served(tau, 1000, 200, P)
        assert abs(fluid_n - exact) <= sim.chernoff_demand_bound(tau, 1000, 200, P)


# --- exact_objective_random --------------------------------------------------------


def test_exact_objective_single_individual():
    pop = sm.Population(r=np.array([0.7]), r_hat=np.array([0.7]))
    got = sim.exact_objective_random(pop, 1.0, 1, fl.BehavioralParams(0.3, 0.0))
    assert got == pytest.approx(0.21, abs=1e-12)


def test_exact_objective_two_individuals():
    pop = sm.Population(r=np.array([1.0, 0.0]), r_hat=np.array([1.0, 0.0]))
    got = sim.exact_objective_random(pop, 1.0, 1, fl.BehavioralParams(0.5, 0.0))
    assert got == pytest.approx(0.375, abs=1e-12)


def test_exact_objective_matches_mc():
    pop = _uniform_pop(300, seed=12)
    exact = sim.exact_objective_random(pop, 0.65, 60, P, flag_seed=4)
    cfg = sim.SimConfig(n=300, m=60, params=P, trials=100_000, seed=4)
    est = sim.simulate_policy(cfg, fl.Fixed(0.65), sm.Analytic(sm.Uniform01()), population=pop)
    assert abs(est.mean - exact) <= 4 * est.std_error


def test_exact_objective_zero_capacity():
    pop = _uniform_pop(10)
    assert sim.exact_objective_random(pop, 0.5, 0, P) == 0.0


# --- exact_objectives_random -------------------------------------------------------


_MIX = sm.BetaMixture(((0.7, 2.0, 10.0), (0.3, 8.0, 2.0)))


def _tied_corpus():
    # five distinct predicted scores over 60 records: sampled cohorts tie at every cut
    rng = np.random.default_rng(21)
    return sm.EmpiricalJoint(rng.integers(0, 5, 60) / 4.0, rng.random(60), tie_seed=3)


_COHORT_MODELS = {
    "mixture_perfect": lambda: sm.Analytic(_MIX),
    # clipping puts atoms at r_hat = 0 and 1, which tie at the k = 1 and k = n - 1 cuts
    "mixture_noisy_0.1": lambda: sm.Analytic(_MIX, sm.GaussianNoiseClipped(0.1)),
    "tied_corpus": _tied_corpus,
}


def _exact_objective_reference(pop, tau, m, flag_seed):
    """exact_objective_random as one cohort's 1-d sums, before cohorts were batched."""
    if m <= 0:
        return 0.0
    flags = sim.flag_top(pop, tau, seed=flag_seed)
    alpha_flagged, alpha_unflagged = sim.exact_service_rates(tau, pop.n, m, P)
    total = (P.p0 + P.delta_p) * alpha_flagged * float(pop.r[flags].sum())
    total += P.p0 * alpha_unflagged * float(pop.r[~flags].sum())
    return total


def _exact_per_cohort(model, n, tau, m, seed, populations, flag_seed):
    """The reference: one sampled Population per cohort, as validate drew them,
    checking exact_objective_random on each against the 1-d sums."""
    out = []
    for g in sim.spawned_generators(seed, 0, populations):
        pop = sm.sample_population(model, n, seed=g)
        out.append(_exact_objective_reference(pop, tau, m, flag_seed))
        assert sim.exact_objective_random(pop, tau, m, P, flag_seed=flag_seed).hex() == out[-1].hex()
    return out


@pytest.mark.parametrize("name", sorted(_COHORT_MODELS))
@pytest.mark.parametrize("n", [1, 2, 7, 100, 1600, 5000])
def test_exact_objectives_bitwise_one_cohort_at_a_time(name, n, monkeypatch):
    model = _COHORT_MODELS[name]()
    m = max(1, n // 5)
    step = max(1, sim._BLOCK_CELLS // n)
    for k in sorted({0, 1, n - 1, n}):
        tau = (n - k) / n
        assert sm.flagged_count(n, tau) == k
        for block_cells, populations in ((None, min(step + 3, 40)), (3 * n, 8)):
            if block_cells is not None:  # blocks of 3 cohorts
                monkeypatch.setattr(sim, "_BLOCK_CELLS", block_cells)
            got = sim.exact_objectives_random(
                model, n, tau, m, P, seed=(9, n), populations=populations, flag_seed=4,
            )
            ref = _exact_per_cohort(model, n, tau, m, (9, n), populations, 4)
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in ref], (k, block_cells)
            monkeypatch.undo()


def test_exact_objectives_spans_several_blocks():
    # 327 cohorts of 100 fill a block: 700 take three, the last one partial
    model = _COHORT_MODELS["mixture_noisy_0.1"]()
    got = sim.exact_objectives_random(model, 100, 0.73, 20, P, seed=5, populations=700, flag_seed=2)
    ref = _exact_per_cohort(model, 100, 0.73, 20, 5, 700, 2)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in ref]


def test_exact_objectives_checks_like_the_one_cohort_oracle():
    model = sm.Analytic(_MIX)
    assert sim.exact_objectives_random(model, 10, 0.5, 0, P, seed=1, populations=3).tolist() == [0.0] * 3
    for n in (0, sim.EXACT_BUDGET + 1):
        with pytest.raises(ValueError, match="exact oracle"):
            sim.exact_objectives_random(model, n, 0.5, 2, P, seed=1, populations=3)
    with pytest.raises(ValueError, match="tau must be in"):
        sim.exact_objectives_random(model, 10, 1.5, 2, P, seed=1, populations=3)
    for populations in (0, -1):
        with pytest.raises(ValueError, match="populations must be >= 1"):
            sim.exact_objectives_random(model, 10, 0.5, 2, P, seed=1, populations=populations)


# --- fluid upper bound -------------------------------------------------------------
#
# The bound is exact only in the large-system limit; at finite n several cells sit
# at near-equality (margin ~ 1e-3 or tighter), far below any achievable
# estimator noise, so a +1e-9 slack on a small population average is
# seed-fragile.  The module-level check therefore averages tens of thousands
# of cohorts and allows the estimator's own noise; the literal 50-population
# form lives in the acceptance suite.


def test_fluid_upper_bound_population_averaged(mixture_perfect):
    from tests.conftest import averaged_exact_objective

    taus = [float(t) for t in np.linspace(0.0, 1.0, 21)]
    for n in (100, 1000):
        m = int(0.2 * n)
        avg, se = averaged_exact_objective(mixture_perfect, n, m, P, taus, 20_000, seed=50)
        for tau in taus:
            fluid_w = fl.fluid_objective(tau, mixture_perfect, n, m, P)
            assert avg[tau] <= fluid_w + max(3.0 * se[tau], 1e-9)


def test_mc_estimate_upper_bound_three_se(mixture_perfect):
    for n in (100, 1000):
        m = int(0.2 * n)
        for tau in (0.3, 0.7, 0.9):
            cfg = sim.SimConfig(n=n, m=m, params=P, trials=4000, seed=13)
            est = sim.simulate_policy(cfg, fl.Fixed(tau), mixture_perfect)
            fluid_w = fl.fluid_objective(tau, mixture_perfect, n, m, P)
            assert est.mean <= fluid_w + 3 * est.std_error


def test_fluid_convergence_in_n(mixture_perfect):
    rel_errors = []
    for n, pops in ((100, 400), (400, 400), (1600, 300)):
        m = int(0.2 * n)
        tau = fl.two_point_threshold(m / n, mixture_perfect, P)
        fluid_w = fl.fluid_objective(tau, mixture_perfect, n, m, P)
        seeds = np.random.SeedSequence((2026, n)).spawn(pops)
        vals = [
            sim.exact_objective_random(
                sm.sample_population(mixture_perfect, n, seed=s), tau, m, P
            )
            for s in seeds
        ]
        rel_errors.append(abs(fluid_w - float(np.mean(vals))) / fluid_w)
    assert rel_errors[0] > rel_errors[1] > rel_errors[2]
    assert rel_errors[2] < 0.01
    # beyond the convolution budget: MC estimate, allowing its noise
    n, m = 6400, 1280
    tau = fl.two_point_threshold(0.2, mixture_perfect, P)
    cfg = sim.SimConfig(n=n, m=m, params=P, trials=12_000, seed=6)
    est = sim.simulate_policy(cfg, fl.Fixed(tau), mixture_perfect, workers=2)
    fluid_w = fl.fluid_objective(tau, mixture_perfect, n, m, P)
    rel_mc = abs(fluid_w - est.mean) / fluid_w
    assert rel_mc <= rel_errors[2] + 3 * est.std_error / fluid_w


# --- grid oracle ----------------------------------------------------------------------


def test_grid_oracle_matches_two_point(uniform_perfect):
    cfg = sim.SimConfig(n=1000, m=200, params=P, beta1=0.0, trials=600, seed=15)
    tau_best, est = sim.grid_oracle(cfg, uniform_perfect, 21)
    assert abs(tau_best - fl.two_point_threshold(0.2, uniform_perfect, P)) <= 0.05
    assert est.trials == 600


def test_grid_oracle_prioritization_flags_more_broadly(uniform_perfect):
    base = sim.SimConfig(n=500, m=200, params=P, beta1=0.0, trials=500, seed=16)
    tau_random, _ = sim.grid_oracle(base, uniform_perfect, 21)
    prioritized = sim.SimConfig(n=500, m=200, params=P, beta1=1.0, trials=500, seed=16)
    tau_prio, _ = sim.grid_oracle(prioritized, uniform_perfect, 21)
    assert tau_prio <= tau_random - 0.1


def test_grid_oracle_zero_capacity(uniform_perfect):
    cfg = sim.SimConfig(n=50, m=0, params=P, trials=20, seed=2)
    tau_best, est = sim.grid_oracle(cfg, uniform_perfect, 11)
    assert tau_best == 0.0
    assert est.mean == 0.0


# --- shared-draw kernel -----------------------------------------------------------


def _tie_corpus():
    rng = np.random.default_rng(31)
    true = rng.random(2000)
    predicted = np.round(np.clip(true + 0.2 * rng.standard_normal(2000), 0.0, 1.0), 1)
    return sm.EmpiricalJoint(predicted, true)


@pytest.mark.parametrize("beta1", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("kind", ["perfect", "noisy_ties", "corpus", "frozen"])
def test_shared_draws_equal_single_tau_runs(kind, beta1, mixture_perfect):
    models = {
        "perfect": mixture_perfect,
        "noisy_ties": sm.Analytic(
            sm.BetaMixture(((0.7, 2.0, 10.0), (0.3, 8.0, 2.0))), sm.GaussianNoiseClipped(0.4)
        ),
        "corpus": _tie_corpus(),
        "frozen": mixture_perfect,
    }
    model = models[kind]
    population = None
    if kind == "frozen":
        population = sm.sample_population(_tie_corpus(), 200, seed=3)
    cfg = sim.SimConfig(n=200, m=40, params=P, beta1=beta1, trials=30, seed=12)
    taus = [float(t) for t in np.linspace(0.0, 1.0, 21)]
    shared = sim.simulate_taus(cfg, taus, model, population=population)
    for tau, est in zip(taus, shared):
        single = sim.simulate_policy(cfg, fl.Fixed(tau), model, population=population)
        assert est == single


def _reference_rows(model, config, ks, population, children):
    """The trial kernel one trial and one flag count at a time.

    Flags are a ``lexsort`` prefix, allocation a ``lexsort`` priority stage
    and a lottery by sorted key, and the served value the index-order sum
    the kernel defines.
    """
    p, n = config.params, config.n
    out = np.empty((len(ks), len(children), 5))
    if population is not None:
        frozen_perm = np.random.default_rng(config.seed).permutation(n)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        if population is None:
            pop = sm.sample_population(model, n, seed=rng)
            order = np.lexsort((rng.permutation(n), -pop.r_hat))
        else:
            pop = population
            order = np.lexsort((frozen_perm, -pop.r_hat))
        u, tie, lottery = rng.random(n), rng.random(n), rng.random(n)
        for j, k in enumerate(ks):
            flags = np.zeros(n, dtype=bool)
            flags[order[:k]] = True
            requesters = np.flatnonzero(np.where(flags, u < p.p0 + p.delta_p, u < p.p0))
            k1 = min(math.floor(config.beta1 * config.m + 1e-9), config.m)
            by_priority = requesters[np.lexsort((tie[requesters], -pop.r_hat[requesters]))]
            top, rest = by_priority[:k1], by_priority[k1:]
            served = np.zeros(n, dtype=bool)
            served[top] = True
            served[rest[np.argsort(lottery[rest])[: config.m - top.size]]] = True
            out[j, i] = (
                np.where(served, pop.r, 0.0).sum(),
                served.sum(),
                (served & flags).sum(),
                (served & ~flags).sum(),
                requesters.size,
            )
    return out


@pytest.mark.parametrize("beta1", [0.0, 0.5, 1.0])
@pytest.mark.parametrize(
    "kind", ["perfect", "noisy", "corpus", "corpus_3_trial_blocks", "corpus_1_row_blocks"]
)
def test_run_trials_bitwise_equal_reference(kind, beta1, mixture_perfect, monkeypatch):
    model = {
        "perfect": mixture_perfect,
        "noisy": sm.Analytic(
            sm.BetaMixture(((0.7, 2.0, 10.0), (0.3, 8.0, 2.0))), sm.GaussianNoiseClipped(0.4)
        ),
    }.get(kind, _tie_corpus())
    n, trials = 60, 8
    ks = sorted({sm.flagged_count(n, float(t)) for t in np.linspace(0.0, 1.0, 21)})
    assert ks[0] == 0 and ks[-1] == n
    # all 8 trials share a block unless split: 3 + 3 + 2 trials, or one (trial, k) row each
    cells = {"corpus_3_trial_blocks": 3 * len(ks) * n, "corpus_1_row_blocks": 1}
    monkeypatch.setattr(sim, "_BLOCK_CELLS", cells.get(kind, sim._BLOCK_CELLS))
    population = sm.sample_population(model, n, seed=8)
    for m in (0, 12, n, 90):
        cfg = sim.SimConfig(n=n, m=m, params=P, beta1=beta1, trials=trials, seed=7)
        children = np.random.SeedSequence(cfg.seed).spawn(trials)
        for pop in (None, population):
            got = sim._run_trials(model, cfg, ks, pop, 0, trials)
            expect = _reference_rows(model, cfg, ks, pop, children)
            assert np.array_equal(got, expect), (m, pop is None)


def test_empty_flag_set_keeps_request_draws(monkeypatch, uniform_perfect):
    # At tau=1 no one is flagged; the tie-break permutation is still drawn,
    # so the request uniforms line up with a run at tau < 1.
    seen = {}
    smallest, serve = sim._smallest, sim._serve

    def record_flags(keys, ks, second, members=None):
        chosen = smallest(keys, ks, second, members)
        if members is None:  # the flags, not an allocation stage
            seen["flags"] = chosen[0, 0]  # the one trial, the one flag count
        return chosen

    def record_requests(requests, *rest):
        seen["requested"] = requests[0, 0]
        return serve(requests, *rest)

    monkeypatch.setattr(sim, "_smallest", record_flags)
    monkeypatch.setattr(sim, "_serve", record_requests)
    cfg = sim.SimConfig(n=50, m=10, params=P, trials=1, seed=4)
    runs = {}
    for tau in (0.98, 1.0):
        sim.simulate_policy(cfg, fl.Fixed(tau), uniform_perfect)
        runs[tau] = (seen["flags"], seen["requested"])
    (flags_98, req_98), (flags_1, req_1) = runs[0.98], runs[1.0]
    assert flags_98.sum() == 1 and not flags_1.any()
    assert np.array_equal(req_98[~flags_98], req_1[~flags_98])


def test_empty_tau_list_draws_nothing(monkeypatch, uniform_perfect):
    # regression: an empty tau list divided by zero while sizing the trial blocks
    def no_trials(*args):
        raise AssertionError("no trial may run")

    monkeypatch.setattr(sim, "_run_trials", no_trials)
    cfg = sim.SimConfig(n=50, m=10, params=P, trials=5, seed=4)
    assert sim.simulate_taus(cfg, [], uniform_perfect) == []
    assert sim.simulate_taus(cfg, [], uniform_perfect, population=_uniform_pop(50), workers=2) == []
    with pytest.raises(ValueError, match="must match config.n"):
        sim.simulate_taus(cfg, [], uniform_perfect, population=_uniform_pop(40))


def test_tau_outside_the_unit_interval_draws_nothing(monkeypatch, uniform_perfect):
    def no_trials(*args):
        raise AssertionError("no trial may run")

    monkeypatch.setattr(sim, "_run_trials", no_trials)
    cfg = sim.SimConfig(n=50, m=10, params=P, trials=5, seed=4)
    for taus in ([0.5, 1.5], [-0.1], [math.nan]):
        with pytest.raises(ValueError, match=r"taus must lie in \[0, 1\]"):
            sim.simulate_taus(cfg, taus, uniform_perfect)


def test_grid_oracle_worker_independent(mixture_noisy):
    cfg = sim.SimConfig(n=300, m=60, params=P, beta1=0.5, trials=40, seed=17)
    assert sim.grid_oracle(cfg, mixture_noisy, 11) == sim.grid_oracle(
        cfg, mixture_noisy, 11, workers=2
    )


def test_grid_oracle_samples_each_cohort_once(monkeypatch, uniform_perfect):
    calls = []
    engine = sm._engine(uniform_perfect)
    sample = engine.sample

    def counting(*args, **kwargs):
        calls.append(1)
        return sample(*args, **kwargs)

    monkeypatch.setattr(engine, "sample", counting)
    cfg = sim.SimConfig(n=100, m=20, params=P, trials=25, seed=5)
    sim.grid_oracle(cfg, uniform_perfect, 21)
    assert len(calls) == 25


def test_pool_size_clamped(monkeypatch):
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 4)
    assert sim._pool_size(64, 1000) == 4
    assert sim._pool_size(3, 2) == 2
    assert sim._pool_size(1, 1000) == 1
    monkeypatch.setattr(sim.os, "cpu_count", lambda: None)
    assert sim._pool_size(8, 1000) == 1
