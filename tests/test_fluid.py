import dataclasses
import math
import warnings

import numpy as np
import pytest

from capthresh import fluid as fl
from capthresh import score_model as sm
from tests.conftest import scalar_bisection, sign_changes_near

P = fl.BehavioralParams(0.1, 0.5)

# frozen closed-form oracles for the uniform/perfect model at (p0, dp) = (0.1, 0.5):
# score-optimal threshold solves (1 - t)^2 = 0.4 t - 0.2  =>  t = 1.2 - sqrt(0.24)
TAU_SCORE_UNIFORM = 1.2 - math.sqrt(0.24)  # 0.7101020514433644
# critical baseline at rho = 0.2 solves 2 p0^2 + p0 - 0.08 = 0
P0_BAR_UNIFORM = (-1.0 + math.sqrt(1.64)) / 4.0  # 0.07015621187164245
# max relative gap of capacity matching: R(tau*) = tau* for uniform scores
MAX_GAP_UNIFORM = (TAU_SCORE_UNIFORM - 0.5) / TAU_SCORE_UNIFORM  # 0.29587585...


def test_behavioral_params_invariants():
    with pytest.raises(ValueError):
        fl.BehavioralParams(-0.1, 0.5)
    with pytest.raises(ValueError):
        fl.BehavioralParams(0.6, 0.5)



def test_behavioral_params_reject_non_finite():
    for p0, dp in ((math.nan, 0.5), (0.1, math.nan), (math.inf, 0.0), (0.1, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            fl.BehavioralParams(p0, dp)

# --- capacity-matching threshold ---------------------------------------------


def test_capacity_matching_anchor():
    assert fl.capacity_matching_threshold(0.2, P) == pytest.approx(0.8, abs=1e-15)


def test_capacity_matching_regimes():
    assert fl.capacity_matching_threshold(0.05, P) == 1.0  # baseline fills capacity
    assert fl.capacity_matching_threshold(0.7, P) == 0.0  # maximum outreach
    zero_lift = fl.BehavioralParams(0.3, 0.0)
    assert fl.capacity_matching_threshold(0.2, zero_lift) == 1.0
    assert fl.capacity_matching_threshold(0.4, zero_lift) == 0.0


# --- fluid primitives -----------------------------------------------------------


def test_fluid_served_motivating_example():
    assert fl.fluid_served(0.9, 100, 20, P) == pytest.approx(15.0)
    assert fl.fluid_served(0.7, 100, 20, P) == pytest.approx(20.0)
    assert fl.fluid_served(1.0, 100, 20, fl.BehavioralParams(0.0, 0.5)) == 0.0


def test_fluid_efficacy_motivating_example(uniform_perfect):
    assert fl.fluid_efficacy(0.8, uniform_perfect, P) == pytest.approx(0.7, abs=1e-12)
    # (p0 E[r] + dp * 0.3 * 0.85) / (p0 + dp * 0.3)
    assert fl.fluid_efficacy(0.7, uniform_perfect, P) == pytest.approx(0.71, abs=1e-12)


def test_fluid_efficacy_zero_lift_is_mean(uniform_perfect):
    params = fl.BehavioralParams(0.2, 0.0)
    for tau in (0.0, 0.3, 0.99, 1.0):
        assert fl.fluid_efficacy(tau, uniform_perfect, params) == 0.5


def test_fluid_efficacy_no_requests(uniform_perfect):
    with pytest.raises(ValueError, match="no requests"):
        fl.fluid_efficacy(1.0, uniform_perfect, fl.BehavioralParams(0.0, 0.5))


def test_fluid_objective_motivating_example(uniform_perfect):
    assert fl.fluid_objective(0.8, uniform_perfect, 100, 20, P) == pytest.approx(14.0)
    assert fl.fluid_objective(0.7, uniform_perfect, 100, 20, P) == pytest.approx(14.2)
    assert fl.fluid_objective(0.6, uniform_perfect, 100, 20, P) == pytest.approx(14.0)


# --- score-optimal threshold ------------------------------------------------------


def test_score_optimal_uniform_quadratic_oracle(uniform_perfect):
    assert fl.score_optimal_threshold(uniform_perfect, P) == pytest.approx(
        TAU_SCORE_UNIFORM, abs=1e-5
    )


def test_score_optimal_zero_baseline(uniform_perfect, mixture_perfect):
    params = fl.BehavioralParams(0.0, 0.5)
    assert fl.score_optimal_threshold(uniform_perfect, params) == 1.0
    assert fl.score_optimal_threshold(mixture_perfect, params) == 1.0


def test_score_optimal_zero_lift_error(uniform_perfect):
    with pytest.raises(ValueError, match="score-optimal undefined"):
        fl.score_optimal_threshold(uniform_perfect, fl.BehavioralParams(0.3, 0.0))


def test_score_optimal_mixture_matches_grid(mixture_perfect):
    tau = fl.score_optimal_threshold(mixture_perfect, P)
    taus = np.linspace(0.0, 1.0, 2001)
    vals = [fl.fluid_efficacy(float(t), mixture_perfect, P) for t in taus]
    grid_best = float(taus[int(np.argmax(vals))])
    assert abs(tau - grid_best) <= 1e-3


def test_score_optimal_empirical_grid_path():
    rng = np.random.default_rng(3)
    r = rng.random(20_000)
    corpus = sm.EmpiricalJoint(r, r)
    tau = fl.score_optimal_threshold(corpus, P)
    assert abs(tau - TAU_SCORE_UNIFORM) < 0.02  # sampling noise only


def _grid_score_optimal_loop(model, params):
    """Reference: the empirical score-optimal grid solve as one Python loop."""
    if params.p0 == 0:
        return 1.0
    n = model.predicted.size
    best_tau, best_val = None, -np.inf
    for t in np.linspace(0.0, 1.0, fl.DEFAULT_GRID):
        t = float(t)
        if t < 1.0 and sm.flagged_count(n, t) == 0:
            continue  # no records in the tail at this grid point
        val = fl.fluid_efficacy(t, model, params)
        if val > best_val:  # strict improvement keeps the smallest tau on ties
            best_tau, best_val = t, val
    return best_tau


@pytest.mark.parametrize("n", [5, 400])
def test_score_optimal_grid_matches_loop(n):
    rng = np.random.default_rng(n)
    pred = np.round(rng.random(n), 1)  # tie-heavy predicted scores
    true = np.round(np.clip(pred + 0.2 * rng.standard_normal(n), 0.0, 1.0), 1)
    corpora = (
        sm.EmpiricalJoint(pred, true),
        sm.EmpiricalLabeled(pred, (rng.random(n) < pred).astype(float)),
        sm.EmpiricalJoint(true, true),
    )
    for corpus in corpora:
        p0_bar = fl.critical_baseline(0.2, corpus, 0.5)
        for p0 in (0.0, 0.5 * p0_bar, min(1.5 * p0_bar + 0.01, 0.5), 0.3, 0.5):
            params = fl.BehavioralParams(p0, 0.5)
            assert fl.score_optimal_threshold(corpus, params) == _grid_score_optimal_loop(corpus, params)


def _grid_oracle_loop(grid_size, rho, model, params):
    """Reference: the grid oracle as one Python loop of fluid_objective calls.

    Grid points whose tail is empty raise in fluid_objective; they are skipped.
    """
    best_tau, best_val = None, -np.inf
    for t in np.linspace(0.0, 1.0, grid_size):
        t = float(t)
        try:
            val = fl.fluid_objective(t, model, 1.0, rho, params)
        except ValueError as e:
            assert "empty tail" in str(e)
            continue
        if val > best_val:  # strict improvement keeps the smallest tau on ties
            best_tau, best_val = t, val
    return best_tau


def _oracle_models():
    """Factories, so that the grid and the loop side get separate caches."""
    rng = np.random.default_rng(8)
    pred = np.round(rng.random(500), 2)
    true = np.clip(pred + 0.1 * rng.standard_normal(500), 0.0, 1.0)
    outcomes = (rng.random(500) < true).astype(float)
    mix = sm.BetaMixture(((0.7, 2.0, 10.0), (0.3, 8.0, 2.0)))
    return {
        "uniform_perfect": lambda: sm.Analytic(sm.Uniform01()),
        "mixture_perfect": lambda: sm.Analytic(mix),
        "mixture_noisy": lambda: sm.Analytic(mix, sm.GaussianNoiseClipped(0.1)),
        "joint_500": lambda: sm.EmpiricalJoint(pred, true),
        "labeled_500": lambda: sm.EmpiricalLabeled(pred, outcomes),
        "scores_500": lambda: sm.EmpiricalJoint(true, true),
    }


@pytest.mark.parametrize("name", sorted(_oracle_models()))
def test_grid_oracle_matches_loop(name):
    make = _oracle_models()[name]
    grid_model, loop_model = make(), make()
    for p0 in (0.0, 0.1, 0.4):
        params = fl.BehavioralParams(p0, 0.5)
        for rho in (0.05, 0.2, 0.5):
            for grid_size in (2, 7, fl.DEFAULT_GRID):
                got = fl.GridOracle(grid_size).threshold(rho, grid_model, params)
                assert got == _grid_oracle_loop(grid_size, rho, loop_model, params)


def test_grid_oracle_small_corpus_regression():
    # 500 rows < 2001 grid points: the old loop raised "empty tail" near tau = 1
    corpus = _oracle_models()["joint_500"]()
    with pytest.raises(ValueError, match="empty tail"):
        fl.fluid_objective(0.9999, corpus, 1.0, 0.2, P)
    tau = fl.GridOracle(2001).threshold(0.2, corpus, P)
    assert sm.flagged_count(500, tau) > 0
    (pt,) = fl.gap_curve(fl.GridOracle(2001), axis="p0", grid=[0.1], model=corpus, params=P, rho=0.2)
    assert pt.tau_policy == tau and pt.gap >= 0.0


# --- two-point threshold ------------------------------------------------------------


def test_two_point_anchors(uniform_perfect):
    assert fl.two_point_threshold(0.4, uniform_perfect, P) == pytest.approx(0.4, abs=1e-12)
    assert fl.two_point_threshold(0.1, uniform_perfect, P) == pytest.approx(
        TAU_SCORE_UNIFORM, abs=1e-5
    )
    assert fl.two_point_threshold(0.2, uniform_perfect, P) == pytest.approx(
        TAU_SCORE_UNIFORM, abs=1e-5
    )


def test_two_point_regime_boundary(uniform_perfect):
    tau_score = fl.score_optimal_threshold(uniform_perfect, P)
    rho_star = P.p0 + P.delta_p * (1.0 - tau_score)  # 0.24495
    assert rho_star == pytest.approx(0.2449489, abs=1e-5)
    for rho in (rho_star, 0.3, 0.5):
        assert fl.two_point_threshold(rho, uniform_perfect, P) == (
            fl.capacity_matching_threshold(rho, P)
        )
    for rho in (0.05, 0.2, rho_star - 1e-9):
        assert fl.two_point_threshold(rho, uniform_perfect, P) == tau_score


# --- critical baseline ---------------------------------------------------------------


def test_critical_baseline_quadratic_oracle(uniform_perfect):
    assert fl.critical_baseline(0.2, uniform_perfect, 0.5) == pytest.approx(
        P0_BAR_UNIFORM, abs=1e-4
    )


def test_critical_baseline_boundary(uniform_perfect):
    # capacity so abundant that tau_c = 0 never exceeds the score threshold
    assert fl.critical_baseline(0.99, uniform_perfect, 0.6) == pytest.approx(0.4)


def test_critical_baseline_is_finite_at_any_capacity(uniform_perfect, mixture_noisy):
    for model in (uniform_perfect, mixture_noisy, _corpus_2000()):
        # rho >= 1: capacity covers everyone who could request, so it never binds
        for rho in (1.0, 2.0):
            assert fl.critical_baseline(rho, model, 0.5) == 0.5
        # delta_p = 1 leaves p0 = 0 as the only baseline
        assert fl.critical_baseline(0.2, model, 1.0) == 0.0
    for rho, dp in ((0.0, 0.5), (math.nan, 0.5), (0.2, 0.0), (0.2, 1.5)):
        with pytest.raises(ValueError):
            fl.critical_baseline(rho, uniform_perfect, dp)


def test_critical_baseline_self_consistency(mixture_perfect):
    p0_bar = fl.critical_baseline(0.2, mixture_perfect, 0.5)
    params = fl.BehavioralParams(p0_bar, 0.5)
    tau_score = fl.score_optimal_threshold(mixture_perfect, params)
    tau_c = fl.capacity_matching_threshold(0.2, params)
    assert abs(tau_score - tau_c) <= 1e-3


def _critical_baseline_nested(rho, model, delta_p):
    """Reference: bisection on tau_score(p0) - tau_c(p0), one score-optimal solve per step."""
    p_max = 1.0 - delta_p

    def diff(p0):
        params = fl.BehavioralParams(p0, delta_p)
        return fl.score_optimal_threshold(model, params) - fl.capacity_matching_threshold(
            rho, params
        )

    if diff(0.0) <= 0.0:
        return 0.0
    if diff(p_max) > 0.0:
        return p_max
    lo, hi = 0.0, p_max
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if diff(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_critical_baseline_matches_nested_bisection(
    uniform_perfect, mixture_perfect, mixture_noisy
):
    # (1e-17, 0.5): tau_c(0) rounds to 1, so the threshold binds at p0 = 0
    # (0.99, 0.6): it never binds, so the result is 1 - delta_p
    cases = ((0.2, 0.5), (0.35, 0.3), (0.99, 0.6), (1e-17, 0.5))
    for model in (uniform_perfect, mixture_perfect, mixture_noisy):
        for rho, dp in cases:
            got = fl.critical_baseline(rho, model, dp)
            assert abs(got - _critical_baseline_nested(rho, model, dp)) <= 1e-8
    assert fl.critical_baseline(1e-17, mixture_perfect, 0.5) == 0.0
    assert fl.critical_baseline(0.99, mixture_perfect, 0.6) == pytest.approx(0.4)


def test_critical_baseline_one_level_of_root_finding(monkeypatch):
    model = sm.Analytic(sm.BetaMixture(((0.7, 2.0, 10.0), (0.3, 8.0, 2.0))))
    calls = _count_foc_grid_calls(monkeypatch)

    def no_solve(*args, **kwargs):
        raise AssertionError("critical_baseline ran a score-optimal solve")

    monkeypatch.setattr(fl, "_score_optimal_thresholds", no_solve)
    fl.critical_baseline(0.2, model, 0.5)
    assert 0 < len(calls) <= 12  # H at p0 = 0 and 1 - delta_p, then one call per root-finding step


def _critical_baseline_scalar(rho, model, delta_p):
    """Reference: one scalar bisection over p0, a BehavioralParams and one
    first_order_condition (or, on corpora, one score-optimal solve) per step,
    until its ends are adjacent floats."""
    p_max = 1.0 - delta_p
    empirical = sm.is_empirical(model)

    def unbound(p0):
        params = fl.BehavioralParams(p0, delta_p)
        tau_c = fl.capacity_matching_threshold(rho, params)
        if empirical:
            return fl.score_optimal_threshold(model, params) > tau_c
        if p0 == 0.0:
            return tau_c < 1.0
        return fl.first_order_condition(model, params, tau_c) > 0.0

    if not unbound(0.0):
        return 0.0
    if unbound(p_max):
        return p_max
    return scalar_bisection(unbound, 0.0, p_max)


def _within_4_ulp(got, ref, scale=0.0):
    """|got - ref| is at most 4 ulp of the larger of |ref| and scale."""
    return abs(got - ref) <= 4.0 * np.spacing(max(abs(ref), scale))


def _tau_c_at(rho, p0, delta_p):
    """The capacity-matching threshold at p0: H sees p0 only through this float,
    so a critical baseline is resolved to a few of its ulp."""
    return fl.capacity_matching_threshold(rho, fl.BehavioralParams(p0, delta_p))


def _labeled_2000():
    rng = np.random.default_rng(32)
    true = rng.beta(2.0, 5.0, 2000)
    pred = np.clip(true + 0.15 * rng.standard_normal(2000), 0.0, 1.0)
    return sm.EmpiricalLabeled(np.round(pred, 3), (rng.random(2000) < true).astype(float))


@pytest.mark.parametrize(
    "name",
    [
        "uniform_perfect", "mixture_perfect", "mixture_noisy_0.1", "mixture_noisy_0.4",
        "low_shapes_perfect", "corpus_joint", "corpus_labeled",
    ],
)
def test_critical_baseline_bitwise_the_scalar_bisection(name):
    # clamped results are the reference's bit for bit; analytic models find
    # the root of the continuous H(tau_c(p0); p0) to within 4 ulp of tau_c,
    # corpora a sign change of tau_score - tau_c at most two ulp wide
    make = {**_sweep_models(), "corpus_joint": _corpus_2000, "corpus_labeled": _labeled_2000}[name]
    model, ref_model = make(), make()
    # rho = 1e-17: tau_c(0) rounds to 1, so the threshold binds at p0 = 0
    for rho in (0.05, 0.1, 0.2, 0.35, 0.6, 1.0, 1.5, 1e-17):
        for dp in (0.2, 0.5, 0.9, 1.0):
            got = fl.critical_baseline(rho, model, dp)
            ref = _critical_baseline_scalar(rho, ref_model, dp)
            if ref in (0.0, 1.0 - dp):
                assert got.hex() == ref.hex(), (rho, dp)
            elif sm.is_empirical(model):
                # where the argmax flips between grid taus over a few ulp of p0,
                # both stop at valid sign changes up to about 100 ulp apart
                assert _corpus_sign_change(rho, ref_model, dp, got), (rho, dp, got)
                assert abs(got - ref) <= 1e-12, (rho, dp, got, ref)
            else:
                assert _within_4_ulp(got, ref, _tau_c_at(rho, ref, dp)), (rho, dp, got, ref)


def _corpus_sign_change(rho, model, delta_p, p0):
    """g(p0) = tau_score(p0) - tau_c(p0) is 0 at p0, or changes sign within two ulp of it."""

    def g(x):
        params = fl.BehavioralParams(x, delta_p)
        return fl.score_optimal_threshold(model, params) - fl.capacity_matching_threshold(rho, params)

    return sign_changes_near(g, p0, 0.0, 1.0 - delta_p)


def test_small_sigma_solves_warn_nothing():
    # at sigma = 1e-5 the cdf table's slopes and some Newton steps divide by a
    # density that underflows: an infinite slope or step is meant, yet numpy
    # printed two "overflow encountered in divide" warnings
    model = sm.Analytic(sm.BetaMixture(((0.7, 2.0, 10.0), (0.3, 8.0, 2.0))), sm.GaussianNoiseClipped(1e-5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tau = fl.two_point_threshold(0.2, model, P)
        p0_critical = fl.critical_baseline(0.2, model, P.delta_p)
    assert 0.0 < tau < 1.0 and 0.0 < p0_critical < 1.0


def _count_foc_grid_calls(monkeypatch):
    calls = []
    foc_grid = fl._foc_grid

    def counting_foc_grid(*args):
        calls.append(args)
        return foc_grid(*args)

    monkeypatch.setattr(fl, "_foc_grid", counting_foc_grid)
    return calls


@pytest.mark.parametrize("name", ["mixture_perfect", "mixture_noisy_0.1"])
def test_score_optimal_threshold_takes_at_most_15_foc_calls(monkeypatch, name):
    # one call for H(0) and H(1), then one of one point per root-finding step
    model, ref_model = _sweep_models()[name](), _sweep_models()[name]()
    calls = _count_foc_grid_calls(monkeypatch)
    got = fl.score_optimal_threshold(model, P)
    assert len(calls) <= 15
    assert all(taus.size == 1 for _, _, taus in calls[1:])
    assert _within_4_ulp(got, _score_optimal_reference(ref_model, P))


def test_critical_baseline_solves_one_corpus_p0_per_call(monkeypatch):
    model = _corpus_2000()
    widths = []
    solve = fl._score_optimal_thresholds

    def recording_solve(model, p0s, delta_p):
        widths.append(len(p0s))
        return solve(model, p0s, delta_p)

    monkeypatch.setattr(fl, "_score_optimal_thresholds", recording_solve)
    fl.critical_baseline(0.2, model, 0.5)
    # both ends in one call, then one p0 per root-finding step
    assert widths[0] == 2 and len(widths) > 1 and set(widths[1:]) == {1}


# --- max relative gap ------------------------------------------------------------------


def test_max_relative_gap_uniform_oracle(uniform_perfect):
    got = fl.max_relative_gap_capacity_matching(uniform_perfect, P)
    assert got == pytest.approx(MAX_GAP_UNIFORM, abs=1e-4)


def test_max_relative_gap_p0_zero_limit(uniform_perfect):
    got = fl.max_relative_gap_capacity_matching(uniform_perfect, fl.BehavioralParams(0.0, 0.5))
    assert got == pytest.approx(1.0 - 0.5 / 1.0, abs=1e-9)  # R(1) limit is 1 for uniform


def test_max_relative_gap_matches_sweep(uniform_perfect):
    got = fl.max_relative_gap_capacity_matching(uniform_perfect, P)
    pts = fl.gap_curve(
        fl.CapacityMatching(), axis="rho", grid=np.linspace(0.01, P.p0, 25),
        model=uniform_perfect, params=P,
    )
    assert max(p.rel_gap for p in pts) == pytest.approx(got, abs=1e-3)


# --- gap curves --------------------------------------------------------------------------


def test_gap_curve_capacity_matching_zero_beyond_transition(uniform_perfect):
    tau_score = fl.score_optimal_threshold(uniform_perfect, P)
    rho_star = P.p0 + P.delta_p * (1.0 - tau_score)
    pts = fl.gap_curve(
        fl.CapacityMatching(), axis="rho", grid=np.linspace(rho_star, 0.6, 40),
        model=uniform_perfect, params=P,
    )
    assert all(p.gap <= 1e-9 for p in pts)


def test_gap_curve_two_point_all_zero(mixture_perfect):
    pts = fl.gap_curve(
        fl.TwoPointOptimal(), axis="rho", grid=np.linspace(0.02, 0.7, 30),
        model=mixture_perfect, params=P,
    )
    assert all(p.gap == 0.0 for p in pts)
    pts = fl.gap_curve(
        fl.TwoPointOptimal(), axis="p0", grid=np.linspace(0.0, 0.5, 20),
        model=mixture_perfect, params=P, rho=0.2,
    )
    assert all(p.gap == 0.0 for p in pts)


def test_gap_curve_fixed_mixture_exceeds_30_percent(mixture_perfect):
    pts = fl.gap_curve(
        fl.Fixed(0.8), axis="rho", grid=np.linspace(0.05, 0.6, 56),
        model=mixture_perfect, params=P,
    )
    assert max(p.rel_gap for p in pts) > 0.30


# --- spec invariants ----------------------------------------------------------------------


def test_two_point_optimality_random_operating_points(uniform_perfect, mixture_perfect):
    rng = np.random.default_rng(2026)
    taus = np.linspace(0.0, 1.0, 2001)
    for _ in range(30):
        p0 = rng.uniform(0.01, 0.45)
        dp = rng.uniform(0.05, 1.0 - p0)
        rho = rng.uniform(0.02, 0.95)
        params = fl.BehavioralParams(p0, dp)
        for model in (uniform_perfect, mixture_perfect):
            tau_star = fl.two_point_threshold(rho, model, params)
            vals = [fl.fluid_objective(float(t), model, 1.0, rho, params) for t in taus]
            grid_best = float(taus[int(np.argmax(vals))])
            assert abs(tau_star - grid_best) <= 1.5 / 2000.0


def test_first_order_condition_at_optimum(uniform_perfect, mixture_perfect, mixture_noisy):
    for model in (uniform_perfect, mixture_perfect, mixture_noisy):
        tau = fl.score_optimal_threshold(model, P)
        assert 0.0 < tau < 1.0
        assert abs(fl.first_order_condition(model, P, tau)) <= 1e-6


def test_noisy_score_optimal_threshold_is_a_local_maximum_of_efficacy():
    # At sigma = 10 the efficacy is nearly flat, so a density-point mean off by
    # 1e-8 moves the root of H off the efficacy's maximum.
    model = sm.Analytic(sm.BetaMixture(_SWEEP_MIX), sm.GaussianNoiseClipped(10.0))
    tau = fl.score_optimal_threshold(model, P)
    best = fl.fluid_efficacy(tau, model, P)
    for step in (-1e-5, 1e-5):
        assert fl.fluid_efficacy(tau + step, model, P) <= best


def test_first_order_condition_at_zero_is_bitwise_the_reference(mixture_noisy):
    wide = sm.Analytic(sm.Uniform01(), sm.GaussianNoiseClipped(0.4))
    for model in (mixture_noisy, wide):
        for params in (P, fl.BehavioralParams(0.3, 0.4)):
            got = fl.first_order_condition(model, params, 0.0)
            assert got == _foc_reference(model, params, 0.0)  # q(0) = 0: the atom's own mean


def test_first_order_condition_rejects_tau_outside_the_unit_interval(mixture_perfect):
    # tau > 1 and tau = inf once returned H(1)
    for tau in (1.5, math.inf, -0.5, -math.inf, math.nan):
        with pytest.raises(ValueError, match=r"tau must be in \[0, 1\]"):
            fl.first_order_condition(mixture_perfect, P, tau)
    assert fl.first_order_condition(mixture_perfect, P, 0.0) > 0.0 > fl.first_order_condition(mixture_perfect, P, 1.0)


def test_first_order_condition_strictly_decreasing(uniform_perfect, mixture_perfect):
    taus = np.linspace(0.0, 1.0, 101)
    for model in (uniform_perfect, mixture_perfect):
        h = [fl.first_order_condition(model, P, float(t)) for t in taus]
        assert all(b < a for a, b in zip(h, h[1:]))


def test_fixed_policy_zero_gap_at_most_one_neighborhood(uniform_perfect):
    tau_fixed = 0.5  # != tau_score
    pts = fl.gap_curve(
        fl.Fixed(tau_fixed), axis="rho", grid=np.linspace(0.01, 0.7, 1001),
        model=uniform_perfect, params=P,
    )
    small = [p.rel_gap <= 1e-6 for p in pts]
    runs = sum(1 for i, flag in enumerate(small) if flag and (i == 0 or not small[i - 1]))
    assert runs <= 1


def test_capacity_matching_gap_shape_rho(uniform_perfect):
    tau_score = fl.score_optimal_threshold(uniform_perfect, P)
    rho_star = P.p0 + P.delta_p * (1.0 - tau_score)
    rising = fl.gap_curve(
        fl.CapacityMatching(), axis="rho", grid=np.linspace(0.005, P.p0, 40),
        model=uniform_perfect, params=P,
    )
    gaps = [p.gap for p in rising]
    assert all(b >= a - 1e-9 for a, b in zip(gaps, gaps[1:]))
    falling = fl.gap_curve(
        fl.CapacityMatching(), axis="rho",
        grid=np.linspace(P.p0 + 1e-6, rho_star - 1e-6, 40),
        model=uniform_perfect, params=P,
    )
    gaps = [p.gap for p in falling]
    assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))


def test_capacity_matching_gap_shape_p0(uniform_perfect):
    rho = 0.2
    p0_bar = fl.critical_baseline(rho, uniform_perfect, 0.5)
    pts = fl.gap_curve(
        fl.CapacityMatching(), axis="p0",
        grid=np.linspace(0.0, rho - 1e-6, 60),
        model=uniform_perfect, params=P, rho=rho,
    )
    below = [p for p in pts if p.x <= p0_bar]
    above = [p for p in pts if p0_bar < p.x < rho]
    assert all(p.gap <= 1e-9 for p in below)
    assert all(p.gap > 0 for p in above)
    gaps = [p.gap for p in above]
    assert all(b > a - 1e-9 for a, b in zip(gaps, gaps[1:]))


def test_objective_nondecreasing_in_capacity(mixture_perfect):
    for tau in (0.2, 0.6, 0.9):
        vals = [fl.fluid_objective(tau, mixture_perfect, 100, m, P) for m in range(0, 80, 5)]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_two_point_requires_positive_inputs(uniform_perfect):
    with pytest.raises(ValueError):
        fl.two_point_threshold(0.0, uniform_perfect, P)
    with pytest.raises(ValueError):
        fl.two_point_threshold(0.2, uniform_perfect, fl.BehavioralParams(0.2, 0.0))


_U = sm.Analytic(sm.Uniform01())
_NAN_CASES = {
    "two_point_rho": (lambda: fl.two_point_threshold(math.nan, _U, P), "rho must be positive"),
    "capacity_matching_rho": (lambda: fl.capacity_matching_threshold(math.nan, P), "rho must be nonnegative"),
    "grid_oracle_rho": (lambda: fl.GridOracle(11).threshold(math.nan, _U, P), "m must be nonnegative"),
    "served_m": (lambda: fl.fluid_served(0.8, 100, math.nan, P), "m must be nonnegative"),
    "served_n": (lambda: fl.fluid_served(0.8, math.nan, 20, P), "n must be >= 1"),
    "objective_m": (lambda: fl.fluid_objective(0.8, _U, 100, math.nan, P), "m must be nonnegative"),
    "objective_n": (lambda: fl.fluid_objective(0.8, _U, math.nan, 20, P), "n must be >= 1"),
    "gap_curve_rho": (
        lambda: fl.gap_curve(fl.Fixed(0.8), axis="rho", grid=[0.2, math.nan], model=_U, params=P, n=1000),
        "rho must be positive",
    ),
}


@pytest.mark.parametrize("case", sorted(_NAN_CASES))
def test_fluid_entry_points_reject_nan(case):
    call, message = _NAN_CASES[case]
    with pytest.raises(ValueError, match=message):
        call()


# --- batched sweeps ----------------------------------------------------------------------


_SWEEP_MIX = ((0.7, 2.0, 10.0), (0.3, 8.0, 2.0))
_SHAPES_BELOW_ONE = ((0.6, 0.5, 0.8), (0.4, 3.0, 0.7))


def _sweep_models():
    """Factories, so that each side of a comparison gets its own engine caches."""
    mix, low = sm.BetaMixture(_SWEEP_MIX), sm.BetaMixture(_SHAPES_BELOW_ONE)
    return {
        "uniform_perfect": lambda: sm.Analytic(sm.Uniform01()),
        "mixture_perfect": lambda: sm.Analytic(mix),
        "mixture_noisy_0.1": lambda: sm.Analytic(mix, sm.GaussianNoiseClipped(0.1)),
        "mixture_noisy_0.4": lambda: sm.Analytic(mix, sm.GaussianNoiseClipped(0.4)),
        "low_shapes_perfect": lambda: sm.Analytic(low),
        "low_shapes_noisy": lambda: sm.Analytic(low, sm.GaussianNoiseClipped(0.1)),
    }


def _foc_reference(model, params, tau):
    """H(tau) from scalar primitives, one tau at a time."""
    eng = sm._engine(model)
    er = sm.mean_true_score(model)
    ratio = params.p0 / params.delta_p
    if tau >= 1.0:
        return -ratio * (eng.cond_mean_top() - er)
    if isinstance(eng, sm._NoisyEngine):
        q = eng.quantile(tau)
        if q <= 0.0 and eng._atom_low > 0.0:
            cm_at = eng._low_tail[1] / eng._atom_low
        elif q >= 1.0 and eng._atom_high > 0.0:
            cm_at = eng.cond_mean_top()
        else:  # the kernel-weighted node mean at q
            z = (q - eng._nodes) / eng.sigma
            k = np.exp(-0.5 * z * z)
            cm_at = float(np.sum(eng._node_values * k)) / float(np.sum(eng._mass * k))
    else:
        cm_at = eng.cond_mean_at(tau)  # the quantile for a perfect predictor
    cma = eng.cond_mean_above(tau)
    return (1.0 - tau) * (cma - cm_at) - ratio * (cm_at - er)


def _score_optimal_reference(model, params):
    """The single-point score-optimal threshold by bisection on H until its
    ends are adjacent floats, one scalar H call per step."""
    if params.p0 == 0:
        return 1.0
    if _foc_reference(model, params, 0.0) <= 0.0:
        return 0.0
    if _foc_reference(model, params, 1.0) >= 0.0:
        return 1.0
    return scalar_bisection(lambda mid: _foc_reference(model, params, mid) > 0.0, 0.0, 1.0)


_P0_GRIDS = (
    [float(p) for p in np.linspace(0.0, 0.45, 10)],
    [0.3, 0.05, 0.45, 0.0, 0.12, 0.3, 0.05],  # unsorted, with repeats and p0 = 0
    [0.1],
)


@pytest.mark.parametrize("name", sorted(_sweep_models()))
def test_batched_score_optimal_bitwise_the_scalar_bisection(name):
    # a lockstep solve is bitwise the single-point solves, each within 4 ulp
    # of the deep scalar bisection
    make = _sweep_models()[name]
    dp = 0.5
    for p0s in _P0_GRIDS:
        batched = fl._score_optimal_thresholds(make(), p0s, dp)
        single_model, ref_model = make(), make()
        single = [fl.score_optimal_threshold(single_model, fl.BehavioralParams(p0, dp)) for p0 in p0s]
        ref = [_score_optimal_reference(ref_model, fl.BehavioralParams(p0, dp)) for p0 in p0s]
        assert [t.hex() for t in batched] == [t.hex() for t in single]
        assert all(_within_4_ulp(t, r) for t, r in zip(batched, ref)), (batched, ref)
        assert all(t == 1.0 for p0, t in zip(p0s, batched) if p0 == 0.0)


_LOCKSTEP_MODELS = {
    "perfect": lambda: sm.Analytic(sm.BetaMixture(_SWEEP_MIX)),
    "noisy_0.1": lambda: sm.Analytic(sm.BetaMixture(_SWEEP_MIX), sm.GaussianNoiseClipped(0.1)),
    "noisy_0.01": lambda: sm.Analytic(sm.BetaMixture(_SWEEP_MIX), sm.GaussianNoiseClipped(0.01)),
}


@pytest.mark.parametrize("name", sorted(_LOCKSTEP_MODELS))
def test_lockstep_roots_are_the_single_point_roots_to_the_last_bit(monkeypatch, name):
    make = _LOCKSTEP_MODELS[name]
    p0s = [float(p) for p in np.linspace(0.45, 0.02, 12)]
    ref_model = make()
    single = [fl.score_optimal_threshold(make(), fl.BehavioralParams(p0, P.delta_p)) for p0 in p0s]
    for t, p0 in zip(single, p0s):
        assert _within_4_ulp(t, _score_optimal_reference(ref_model, fl.BehavioralParams(p0, P.delta_p))), p0
    calls = _count_foc_grid_calls(monkeypatch)
    for width in range(1, 13):
        calls.clear()
        got = fl._score_optimal_thresholds(make(), p0s[:width], P.delta_p)
        assert [t.hex() for t in got] == [t.hex() for t in single[:width]], width
        assert len(calls) <= 20, width
    for width in (40, 400):  # a lockstep takes its slowest point's steps, not more
        calls.clear()
        fl._score_optimal_thresholds(make(), np.linspace(0.01, 0.45, width).tolist(), P.delta_p)
        assert len(calls) <= 20, width
    for rho in (0.05, 0.2, 0.35):
        got = fl.critical_baseline(rho, make(), P.delta_p)
        ref = _critical_baseline_scalar(rho, ref_model, P.delta_p)
        assert _within_4_ulp(got, ref, _tau_c_at(rho, ref, P.delta_p)), rho


def _chandrupatla_reference(f, x1, x2, f1, f2):
    """Chandrupatla's method as a plain loop: every step re-indexes the live
    set, forms x2 - x1 three times and clips with np.clip."""
    out = np.empty(x1.size)
    live, t = np.arange(x1.size), 0.5
    while live.size:
        xt = x1 + t * (x2 - x1)
        ft = f(live, xt)
        same = np.sign(ft) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = xt, ft
        with np.errstate(divide="ignore", invalid="ignore"):
            tl = np.spacing(np.maximum(np.abs(x1), np.abs(x2))) / np.abs(x2 - x1)
            done = (tl >= 0.5) | (f1 == 0.0)
            out[live[done]] = np.where(np.abs(f1) < np.abs(f2), x1, x2)[done]
            live, x1, x2, x3, f1, f2, f3, tl = (v[~done] for v in (live, x1, x2, x3, f1, f2, f3, tl))
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            iqi = (phi * phi < xi) & ((1.0 - phi) * (1.0 - phi) < 1.0 - xi)
            t_iqi = f1 / (f2 - f1) * f3 / (f2 - f3) + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2)
            t = np.clip(np.where(iqi, t_iqi, 0.5), tl, 1.0 - tl)
    return out


def _traced_solves(solver, f, x1, x2, f1, f2):
    """solver's roots, and every (indices, points) it evaluated f at, in order."""
    trace = []

    def traced(i, x):
        trace.append((np.array(i).tolist(), [v.hex() for v in np.asarray(x).tolist()]))
        return f(i, x)

    roots = solver(traced, x1.copy(), x2.copy(), f1.copy(), f2.copy())
    return [v.hex() for v in roots.tolist()], trace


@pytest.mark.parametrize("name", sorted(_LOCKSTEP_MODELS))
def test_chandrupatla_takes_the_reference_steps(name):
    # the same f calls at the same points in the same order, and the same
    # roots, while elements leave the live set on different steps
    model = _LOCKSTEP_MODELS[name]()
    p0s = np.linspace(0.45, 0.02, 12)
    for width in (1, 3, 12):
        ratio = p0s[:width] / P.delta_p
        h0, h1 = fl._foc_grid(model, np.r_[ratio, ratio], np.repeat([0.0, 1.0], width)).reshape(2, -1)

        def f(i, x):
            return fl._foc_grid(model, ratio[i], x)

        ends = (np.zeros(width), np.ones(width), h0, h1)
        got = _traced_solves(fl._chandrupatla, f, *ends)
        assert got == _traced_solves(_chandrupatla_reference, f, *ends), width
    for rho in (0.05, 0.2):

        def g(i, p0):
            return fl._foc_grid(model, p0 / P.delta_p, fl._capacity_matching_thresholds(rho, p0, P.delta_p))

        ends = np.array([0.0, 1.0 - P.delta_p])
        g_ends = g(None, ends)
        args = (ends[:1], ends[1:], g_ends[:1], g_ends[1:])
        assert _traced_solves(fl._chandrupatla, g, *args) == _traced_solves(_chandrupatla_reference, g, *args), rho


def test_perfect_score_optimal_solve_takes_13_foc_calls(monkeypatch):
    # H(0) and H(1) in one call, then one call per root-finding step
    calls = _count_foc_grid_calls(monkeypatch)
    fl.score_optimal_threshold(_LOCKSTEP_MODELS["perfect"](), fl.BehavioralParams(0.1, 0.5))
    assert len(calls) == 13


def test_batched_score_optimal_clamps(monkeypatch):
    """H(0) <= 0 clamps to 0 and H(1) >= 0 to 1, point by point in one sweep.

    Under monotone calibration neither clamp is reachable (cond_mean_at(0) <
    E[r] < cond_mean_top), so stand-in engine methods move each endpoint.
    """
    p0s = [0.0, 0.1, 0.3, 0.1, 0.45]
    dp = 0.5
    expected = {"low": [1.0, 0.0, 0.0, 0.0, 0.0], "high": [1.0, 1.0, 1.0, 1.0, 1.0]}
    for case in ("low", "high"):
        models = [_sweep_models()["mixture_perfect"]() for _ in range(2)]
        for model in models:
            eng = sm._engine(model)
            if case == "low":  # E[r | r_hat = q(0)] above E[r]: H(0) < 0
                at = eng.cond_mean_at_grid
                monkeypatch.setattr(eng, "cond_mean_at_grid", lambda t, at=at: np.where(t == 0.0, 0.9, at(t)))
            else:  # E[r | r_hat = q(1)] below E[r]: H(1) > 0
                monkeypatch.setattr(eng, "cond_mean_top", lambda: 0.1)
        batched = fl._score_optimal_thresholds(models[0], p0s, dp)
        ref = [_score_optimal_reference(models[1], fl.BehavioralParams(p0, dp)) for p0 in p0s]
        assert batched == ref == expected[case]


def test_batched_score_optimal_uses_the_cache():
    model = _sweep_models()["mixture_perfect"]()
    first = fl._score_optimal_thresholds(model, [0.1, 0.2], 0.5)
    cache = fl._SCORE_OPT_CACHE[model]
    assert cache[0.1, 0.5] == first[0]
    cache[0.2, 0.5] = -1.0  # a stored result is returned, not re-solved
    assert fl._score_optimal_thresholds(model, [0.2, 0.1], 0.5) == [-1.0, first[0]]
    assert fl.score_optimal_threshold(model, fl.BehavioralParams(0.2, 0.5)) == -1.0


@pytest.mark.parametrize("bad", [math.nan, -0.5, 0.7])
def test_gap_curve_caches_only_the_p0_values_it_reaches(bad):
    # an invalid p0 stops the sweep before any score-optimal solve, so
    # neither it nor any other p0 of the sweep is solved
    model = _sweep_models()["mixture_perfect"]()
    for _ in range(3):
        with pytest.raises(ValueError):
            fl.gap_curve(fl.Fixed(0.8), axis="p0", grid=[0.1, 0.2, bad, 0.3], model=model, params=P, rho=0.2)
    assert model not in fl._SCORE_OPT_CACHE


def test_first_order_condition_is_bitwise_the_reference():
    for name, make in sorted(_sweep_models().items()):
        model, ref_model = make(), make()
        for params in (P, fl.BehavioralParams(0.3, 0.4)):
            for tau in (0.0, 0.25, 0.5, 0.7101, 0.999, 1.0):
                got = fl.first_order_condition(model, params, tau)
                assert got.hex() == _foc_reference(ref_model, params, tau).hex(), (name, tau)


def test_cond_mean_at_grid_is_bitwise_the_scalar():
    for name, make in sorted(_sweep_models().items()):
        grid_eng, scalar_eng = sm._engine(make()), sm._engine(make())
        taus = np.array([0.0, 0.3, 0.5, 0.3, 0.9, 0.99999])
        got = grid_eng.cond_mean_at_grid(taus)
        assert [v.hex() for v in got.tolist()] == [scalar_eng.cond_mean_at(float(t)).hex() for t in taus], name


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma", [1e-9, 1e-12, 1e-200, 1e-300])
def test_noisy_solves_stay_finite_at_tiny_sigma(sigma):
    # Both kernel sums underflow between nodes here; no value is pinned, only
    # that every answer stays finite and in range, without a warning (z * z
    # once overflowed in the normal kernel below sigma ~ 1e-154).
    for comps in (_SWEEP_MIX, _SHAPES_BELOW_ONE):
        model = sm.Analytic(sm.BetaMixture(comps), sm.GaussianNoiseClipped(sigma))
        assert 0.0 <= fl.score_optimal_threshold(model, P) <= 1.0
        assert 0.0 <= fl.critical_baseline(0.2, model, P.delta_p) <= 1.0 - P.delta_p
        for tau in (0.5, 0.9):
            assert math.isfinite(sm.conditional_mean_at(model, tau))


def _gap_curve_reference(policy, *, axis, grid, model, params, rho=None, n=1.0):
    """gap_curve point by point, one scalar fluid_objective per threshold."""
    points = []
    for x in grid:
        x = float(x)
        if axis == "rho":
            pt_rho, pt_params = x, params
        else:
            pt_rho, pt_params = rho, fl.BehavioralParams(x, params.delta_p)
        m = pt_rho * n
        tau_star = fl.two_point_threshold(pt_rho, model, pt_params)
        w_star = fl.fluid_objective(tau_star, model, n, m, pt_params)
        tau_pol = policy.threshold(pt_rho, model, pt_params)
        w_pol = fl.fluid_objective(tau_pol, model, n, m, pt_params)
        gap = w_star - w_pol
        if gap < -1e-7 * max(1.0, abs(w_star)):
            raise AssertionError(f"two-point threshold beaten at {axis}={x}: {w_pol} > {w_star}")
        gap = max(gap, 0.0)
        rel = gap / w_star if w_star > 0.0 else 0.0
        points.append(fl.GapPoint(x, tau_pol, tau_star, w_pol, w_star, gap, rel))
    return points


def _bits(points):
    return [tuple(float(v).hex() for v in dataclasses.astuple(p)) for p in points]


def _corpus_2000():
    rng = np.random.default_rng(31)
    true = rng.beta(2.0, 5.0, 2000)
    pred = np.clip(true + 0.15 * rng.standard_normal(2000), 0.0, 1.0)
    return sm.EmpiricalJoint(np.round(pred, 3), true)


def test_objective_grid_is_bitwise_the_scalar_objective():
    taus = np.array([0.0, 0.25, 0.5, 0.7101, 0.9, 0.99999, 1.0])
    # (p0, m) per row at n = 100: p0 = 0 serves no one at tau = 1, m = 0 no one at all
    rows = [(0.1, 20.0), (0.0, 20.0), (0.3, 5.0), (0.45, 0.0), (0.2, 1000.0)]
    n, dp = 100, 0.5
    p0 = np.array([[p] for p, _ in rows])
    m = np.array([[mm] for _, mm in rows])
    models = {**_sweep_models(), "corpus_2000": _corpus_2000}
    for name, make in sorted(models.items()):
        grid_model, scalar_model = make(), make()
        cma = sm.conditional_mean_above_grid(grid_model, taus)
        got = fl._objective_grid(taus, cma, sm.mean_true_score(grid_model), n, m, p0, dp)
        assert got.shape == (len(rows), taus.size)
        raised = []
        for (p, mm), row in zip(rows, got.tolist()):
            for tau, w in zip(taus.tolist(), row):
                try:
                    want = fl.fluid_objective(tau, scalar_model, n, mm, fl.BehavioralParams(p, dp))
                except ValueError as e:
                    assert str(e) == "empty tail" and math.isnan(w), (name, p, mm, tau)
                    raised.append((p, mm, tau))
                    continue
                assert w.hex() == want.hex(), (name, p, mm, tau)
                if (p == 0.0 and tau == 1.0) or mm == 0.0:
                    assert w == 0.0
        # only the corpus has an empty tail, at tau = 0.99999 in every row that serves anyone
        assert raised == ([(p, mm, 0.99999) for p, mm in rows if mm > 0.0] if name == "corpus_2000" else [])


def test_gap_curve_rows_bitwise_the_point_by_point_evaluation():
    models = {**_sweep_models(), "corpus_2000": _corpus_2000}
    analytic_policies = (fl.TwoPointOptimal(), fl.CapacityMatching(), fl.Fixed(0.8), fl.ScoreOptimal())
    for name, make in sorted(models.items()):
        policies = (fl.TwoPointOptimal(), fl.Fixed(0.8), fl.Fixed(0.6)) if name == "corpus_2000" else analytic_policies
        for policy in policies:
            for axis, grid, rho in (
                ("rho", np.linspace(0.02, 0.7, 12), None),
                ("p0", np.linspace(0.0, 0.45, 10), 0.2),
                ("p0", [0.3, 0.05, 0.3, 0.0], 0.2),
            ):
                kw = dict(axis=axis, grid=grid, params=P, rho=rho, n=1000)
                got = fl.gap_curve(policy, model=make(), **kw)
                ref = _gap_curve_reference(policy, model=make(), **kw)
                assert _bits(got) == _bits(ref), (name, policy.label, axis)


def _count_engine_grid_calls(monkeypatch, model):
    eng = sm._engine(model)
    calls = []
    for meth in ("quantile_grid", "cond_mean_above_grid", "cond_mean_at_grid"):
        inner = getattr(eng, meth)

        def counted(taus, inner=inner, meth=meth):
            calls.append(meth)
            return inner(taus)

        monkeypatch.setattr(eng, meth, counted)
    return calls


@pytest.mark.parametrize("name", ["mixture_perfect", "mixture_noisy_0.1"])
def test_p0_sweep_engine_calls_do_not_grow_with_points(monkeypatch, name):
    counts = []
    for points in (4, 40):
        model = _sweep_models()[name]()
        calls = _count_engine_grid_calls(monkeypatch, model)
        grid = np.linspace(0.02, 0.45, points)
        for policy in (fl.TwoPointOptimal(), fl.CapacityMatching(), fl.Fixed(0.8)):
            fl.gap_curve(policy, axis="p0", grid=grid, model=model, params=P, rho=0.2, n=1000)
        counts.append(len(calls))
    # one lockstep solve, as many steps as its slowest point takes (at most
    # about 20), of a few engine calls each, then a tail-mean call per curve
    assert max(counts) <= 80


def _corpus_20k():
    rng = np.random.default_rng(23)
    r = rng.beta(2.0, 5.0, 20_000)
    pred = np.round(np.clip(r + 0.1 * rng.standard_normal(20_000), 0.0, 1.0), 6)
    return sm.EmpiricalLabeled(pred, (rng.random(20_000) < r).astype(float))


@pytest.mark.parametrize(
    "make, want",
    [
        (lambda: _oracle_models()["joint_500"](),
         {0.05: "0x1.7e087b569b3bcp-8", 0.2: "0x1.f5c28f5c28f60p-5", 0.5: "0x1.3eb851eb851ecp-2"}),
        (_corpus_20k,
         {0.05: "0x1.06dca8fa69588p-6", 0.2: "0x1.a2d0e56041895p-4", 0.5: "0x1.795810624dd2fp-2"}),
    ],
    ids=["joint_500", "labeled_20k"],
)
def test_critical_baseline_reads_a_corpus_tail_grid_once(monkeypatch, make, want):
    for rho, p0_hex in want.items():
        model = make()
        calls = _count_engine_grid_calls(monkeypatch, model)
        # each root-finding step solves score-optimal thresholds at a new p0
        assert fl.critical_baseline(rho, model, 0.5).hex() == p0_hex
        assert calls == ["cond_mean_above_grid"]


def _error(fn, **kw):
    with pytest.raises(Exception) as info:
        fn(**kw)
    return type(info.value), str(info.value)


class _FailingPolicy:
    """A stand-in policy that raises above a capacity ratio of 0.25."""

    label = "failing"

    def threshold(self, rho, model, params):
        if rho > 0.25:
            raise RuntimeError(f"no threshold at rho={rho}")
        return 0.8


def test_gap_curve_errors_match_the_point_by_point_evaluation():
    joint = _oracle_models()["joint_500"]
    beaten = dict(axis="rho", grid=[0.2, 0.25, 0.3], params=P)
    empty_tail = dict(axis="p0", grid=[0.1, 0.2], params=P, rho=0.2)
    cases = [
        # ROADMAP item 2: the grid oracle beats the two-point rule on a small corpus
        (fl.GridOracle(2001), joint, beaten),
        # a policy tau in the empty tail of a corpus
        (fl.Fixed(0.9999), joint, empty_tail),
        # the policy raises after the point's two-point objective is evaluated
        (_FailingPolicy(), _sweep_models()["mixture_noisy_0.1"], dict(axis="rho", grid=[0.2, 0.3, 0.4], params=P)),
        # n < 1 is raised at the first point, before a later invalid p0
        (fl.Fixed(0.8), _sweep_models()["mixture_perfect"],
         dict(axis="p0", grid=[0.1, 0.2, 0.7], params=P, rho=0.2, n=0.5)),
        # an invalid p0 after valid points
        (fl.Fixed(0.8), _sweep_models()["mixture_noisy_0.1"],
         dict(axis="p0", grid=[0.1, 0.2, 0.7, 0.3], params=P, rho=0.2)),
        # a NaN p0 and a negative p0 in the middle of a p0 sweep, which stop
        # the sweep before its lockstep score-optimal solve
        (fl.TwoPointOptimal(), _sweep_models()["mixture_perfect"],
         dict(axis="p0", grid=[0.1, math.nan, 0.3], params=P, rho=0.2)),
        (fl.TwoPointOptimal(), _sweep_models()["mixture_noisy_0.1"],
         dict(axis="p0", grid=[0.1, -0.05, 0.3], params=P, rho=0.2)),
        # a nonpositive capacity ratio in the middle of a rho sweep
        (fl.CapacityMatching(), _sweep_models()["uniform_perfect"],
         dict(axis="rho", grid=[0.1, 0.0, 0.3], params=P)),
        # no nudge effect
        (fl.Fixed(0.8), _sweep_models()["uniform_perfect"],
         dict(axis="p0", grid=[0.1, 0.2], params=fl.BehavioralParams(0.1, 0.0), rho=0.2)),
        # no nudge effect at the first point comes before a later nonpositive rho
        (fl.Fixed(0.8), _sweep_models()["uniform_perfect"],
         dict(axis="rho", grid=[0.2, 0.0], params=fl.BehavioralParams(0.1, 0.0))),
        # the policy fails at the second point, before the two-point rule at the third
        (_FailingPolicy(), _sweep_models()["mixture_perfect"], dict(axis="rho", grid=[0.2, 0.3, -1.0], params=P)),
    ]
    for policy, make, kw in cases:
        got = _error(fl.gap_curve, policy=policy, model=make(), **kw)
        assert got == _error(_gap_curve_reference, policy=policy, model=make(), **kw)
    kind, message = _error(fl.gap_curve, policy=fl.GridOracle(2001), model=joint(), **beaten)
    assert kind is AssertionError and message.startswith("two-point threshold beaten at rho=0.3:")
    assert _error(fl.gap_curve, policy=fl.Fixed(0.9999), model=joint(), **empty_tail) == (ValueError, "empty tail")


def test_gap_curve_checks_every_point_before_evaluating_any():
    # the grid oracle beats the two-point rule at rho = 0.3 (see above), but
    # that is found only when evaluating; the invalid rho = 0.0 is found first
    joint = _oracle_models()["joint_500"]()
    with pytest.raises(ValueError, match="rho must be positive"):
        fl.gap_curve(fl.GridOracle(2001), axis="rho", grid=[0.3, 0.0], model=joint, params=P)


def test_gap_curve_empty_grid_still_checks_n():
    model = _sweep_models()["uniform_perfect"]()
    assert fl.gap_curve(fl.Fixed(0.8), axis="rho", grid=[], model=model, params=P, n=1000) == []
    with pytest.raises(ValueError, match="n must be >= 1"):
        fl.gap_curve(fl.Fixed(0.8), axis="rho", grid=[], model=model, params=P, n=0.5)
