import math

import numpy as np
import pytest

from capthresh import fluid as fl
from capthresh import metrics as mt
from capthresh import score_model as sm

P = fl.BehavioralParams(0.1, 0.5)


# --- capacity distributions -----------------------------------------------------


def test_capacity_distribution_validation():
    with pytest.raises(ValueError):
        mt.UniformRatio(0.5, 0.5)
    # regression: lo = 0 put a rho = 0 node in the OpAUC quadrature, which exits 2
    for lo in (0.0, -0.1):
        with pytest.raises(ValueError, match="need 0 < lo < hi"):
            mt.UniformRatio(lo, 0.2)
    # regression: an infinite hi made opauc return NaN with only a numpy warning
    for lo, hi in ((0.1, math.inf), (0.1, math.nan), (math.nan, 0.2)):
        with pytest.raises(ValueError, match="need 0 < lo < hi"):
            mt.UniformRatio(lo, hi)
    with pytest.raises(ValueError):
        mt.Atoms(((0.2, 0.5), (0.3, 0.6)))
    with pytest.raises(ValueError):
        mt.Atoms(((0.0, 1.0),))
    with pytest.raises(ValueError, match="finite"):
        mt.Atoms(((math.inf, 1.0),))


# --- auc_rank --------------------------------------------------------------------


def test_auc_rank_pair_enumeration():
    assert mt.auc_rank([0.9, 0.8, 0.1], [1, 0, 1]) == pytest.approx(0.5)


def test_auc_rank_perfect_separation():
    assert mt.auc_rank([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_auc_rank_null_distribution():
    rng = np.random.default_rng(31)
    scores = rng.random(10**5)
    labels = rng.random(10**5) < 0.3  # independent of scores
    assert mt.auc_rank(scores, labels.astype(int)) == pytest.approx(0.5, abs=0.01)


def test_auc_rank_ties_half_credit():
    assert mt.auc_rank([0.5, 0.5], [1, 0]) == pytest.approx(0.5)


def test_auc_rank_single_class_error():
    with pytest.raises(ValueError, match="AUC undefined"):
        mt.auc_rank([0.1, 0.9], [1, 1])


@pytest.mark.parametrize(
    "scores, labels",
    [([0.1, math.nan], [1, 0]), ([0.1, math.inf], [1, 0]), ([0.1, 0.9], [1.0, math.nan])],
)
def test_auc_rank_rejects_non_finite(scores, labels):
    with pytest.raises(ValueError, match="finite"):
        mt.auc_rank(scores, labels)


def test_average_ranks_equal_rankdata_bitwise():
    from scipy import stats

    rng = np.random.default_rng(5)
    cases = {
        "distinct": rng.random(20_000),
        "tie-heavy": np.round(rng.random(20_000), 3),
        "all-equal": np.full(1000, 0.25),
        "single": np.array([0.7]),
        "clipped-noise": np.clip(rng.random(5000) + 0.3 * rng.standard_normal(5000), 0.0, 1.0),
        "signed-zeros": np.where(rng.random(3000) < 0.5, -0.0, 0.0),  # -0.0 == 0.0: one tie group
        "signed-zeros-and-ties": np.r_[np.full(500, -0.0), np.round(rng.random(3000), 2), np.zeros(500)],
        "all-equal-large": np.full(20_000, 0.5),
    }
    for name, x in cases.items():
        ours, ref = mt._average_ranks(x), stats.rankdata(x)
        assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes(), name


# --- auc_integral ------------------------------------------------------------------


def test_auc_integral_uniform(uniform_perfect):
    # integral of (1 - tau^2) dtau = 2/3; AUC = 2 * (2/3 - 1/4) = 5/6
    assert mt.auc_integral(uniform_perfect) == pytest.approx(5 / 6, abs=1e-3)


def test_auc_integral_near_constant_scores():
    model = sm.Analytic(sm.BetaMixture(((1.0, 4000.0, 4000.0),)), sm.Perfect())
    assert mt.auc_integral(model) == pytest.approx(0.5, abs=0.05)


def test_auc_integral_small_corpus_regression():
    # 1000 rows < 2001 grid points: the TPR is 0 where no one is flagged, not "empty tail"
    r = np.random.default_rng(4).random(1000)
    auc = mt.auc_integral(sm.EmpiricalJoint(r, r))
    assert math.isfinite(auc) and auc == pytest.approx(5 / 6, abs=0.02)  # perfect uniform ranking


def test_auc_integral_degenerate_mean():
    with pytest.raises(ValueError, match="AUC undefined"):
        mt.auc_integral(sm.EmpiricalLabeled(np.array([0.2, 0.8]), np.array([1.0, 1.0])))


@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_auc_forms_agree(sigma):
    predictor = sm.Perfect() if sigma == 0.0 else sm.GaussianNoiseClipped(sigma)
    model = sm.Analytic(sm.Uniform01(), predictor)
    rng = np.random.default_rng(23)
    pop = sm.sample_population(model, 10**4, seed=rng)
    rank = mt.auc_rank(pop.r_hat, (rng.random(pop.n) < pop.r).astype(int))  # Bernoulli(r) outcomes
    assert mt.auc_integral(model) == pytest.approx(rank, abs=0.01)


# --- roc_curve ----------------------------------------------------------------------


def test_roc_endpoints(uniform_perfect):
    curve = mt.roc_curve(uniform_perfect)
    assert curve[0] == pytest.approx((1.0, 1.0))
    assert curve[-1] == pytest.approx((0.0, 0.0))


def test_roc_closed_form_point(uniform_perfect):
    curve = mt.roc_curve(uniform_perfect)
    fpr, tpr = curve[1600]  # tau = 0.8 on the TAU_GRID = 2001 grid
    assert tpr == pytest.approx(0.36, abs=1e-9)
    assert fpr == pytest.approx((0.2 - 0.18) / 0.5, abs=1e-9)


def test_roc_area_matches_auc(uniform_perfect, mixture_perfect):
    for model in (uniform_perfect, mixture_perfect):
        curve = mt.roc_curve(model)
        fpr = np.array([q[0] for q in curve])
        tpr = np.array([q[1] for q in curve])
        area = -float(np.trapezoid(tpr, fpr))  # curve runs (1,1) -> (0,0)
        assert area == pytest.approx(mt.auc_integral(model), abs=1e-3)


def test_roc_monotone(mixture_noisy):
    curve = mt.roc_curve(mixture_noisy)
    fpr = [q[0] for q in curve]
    tpr = [q[1] for q in curve]
    assert all(b <= a + 1e-9 for a, b in zip(tpr, tpr[1:]))  # nonincreasing in tau
    assert all(b <= a + 1e-9 for a, b in zip(fpr, fpr[1:]))


def _curve_models():
    """Factories, so that the grid and the loop side get separate caches."""
    mix = sm.BetaMixture(((0.7, 2.0, 10.0), (0.3, 8.0, 2.0)))
    scores = np.linspace(0.0, 1.0, 4000)  # more rows than TAU_GRID: no empty tail below 1
    return {
        "uniform_perfect": lambda: sm.Analytic(sm.Uniform01()),
        "mixture_perfect": lambda: sm.Analytic(mix),
        "mixture_noisy": lambda: sm.Analytic(mix, sm.GaussianNoiseClipped(0.1)),
        "labeled_4000": lambda: sm.EmpiricalLabeled(scores, (scores > 0.7).astype(float)),
    }


def _tpr_loop(model, taus):
    return [0.0 if t >= 1.0 else sm.tpr_at(model, float(t)) for t in taus]


@pytest.mark.parametrize("name", sorted(_curve_models()))
def test_tpr_curves_equal_scalar_loops(name):
    make = _curve_models()[name]
    grid_model, loop_model = make(), make()
    er = sm.mean_true_score(loop_model)
    taus = np.linspace(0.0, 1.0, mt.TAU_GRID)
    tpr = np.array(_tpr_loop(loop_model, taus))
    auc = float((np.trapezoid(tpr, taus) - er / 2.0) / (1.0 - er))
    assert mt.auc_integral(grid_model) == auc
    roc = []
    for t, v in zip(taus, tpr):
        fpr = ((1.0 - t) - v * er) / (1.0 - er)
        roc.append((min(max(fpr, 0.0), 1.0), min(max(v, 0.0), 1.0)))
    assert mt.roc_curve(grid_model) == roc
    t_lo = fl.capacity_matching_threshold(0.5, P)
    t_hi = fl.capacity_matching_threshold(0.3, P)
    taus = np.linspace(t_lo, t_hi, mt.TAU_GRID)
    vals = np.array([P.p0 + P.delta_p * v for v in _tpr_loop(loop_model, taus)])
    closed = float(P.delta_p / 0.2 * np.trapezoid(vals, taus))
    assert mt.opauc_uniform_closed_form(grid_model, 0.3, 0.5, P) == closed


def _rows_loop(model, mu, params):
    """OpAUC audit rows node by node, one scalar tpr_at per node."""
    rows = []
    for rho, w in mt._mu_nodes(mu):
        tau = fl.two_point_threshold(rho, model, params)
        tpr = sm.tpr_at(model, tau)
        value = rho * (params.p0 + params.delta_p * tpr) / (params.p0 + params.delta_p * (1.0 - tau))
        rows.append((rho, w, tau, tpr, value))
    return rows


def _small_labeled():
    # 300 rows, fewer than the 2001-point tau grid: corpus tails can be empty
    rng = np.random.default_rng(5)
    scores = np.round(rng.random(300), 2)
    return sm.EmpiricalLabeled(scores, (rng.random(300) < scores).astype(float))


@pytest.mark.parametrize("name", [*sorted(_curve_models()), "labeled_300"])
def test_candidate_report_rows_equal_scalar_loop(name):
    make = {**_curve_models(), "labeled_300": _small_labeled}[name]
    for mu in (mt.UniformRatio(0.05, 0.6), mt.Atoms(((0.01, 0.25), (0.2, 0.5), (0.9, 0.25)))):
        for params in (P, fl.BehavioralParams(0.0, 0.5), fl.BehavioralParams(0.3, 0.6)):
            report = mt.candidate_report(mt.AlgorithmCandidate("a", make()), mu, params)
            rows = _rows_loop(make(), mu, params)
            assert [tuple(v.hex() for v in row) for row in report.table] == [
                tuple(float(v).hex() for v in row) for row in rows
            ]
            total = 0.0
            for _, w, _, _, value in rows:
                total += w * value
            assert report.opauc.hex() == total.hex()
            assert mt.opauc(make(), mu, params).hex() == total.hex()


def test_opauc_nodes_and_sweep_stars_take_no_scalar_two_point_call(monkeypatch):
    # the OpAUC nodes and a sweep's two-point column are each one array pass
    def scalar(*args):
        raise AssertionError("a scalar two_point_threshold call")

    monkeypatch.setattr(fl, "two_point_threshold", scalar)
    model = sm.Analytic(sm.BetaMixture(((0.7, 2.0, 10.0), (0.3, 8.0, 2.0))))
    assert len(mt.candidate_report(mt.AlgorithmCandidate("a", model), mt.UniformRatio(0.05, 0.6), P).table) == 201
    for axis, kw in (("rho", {}), ("p0", {"rho": 0.2})):
        points = fl.gap_curve(fl.Fixed(0.8), axis=axis, grid=np.linspace(0.02, 0.45, 7), model=model, params=P, **kw)
        assert len(points) == 7


# --- opauc ---------------------------------------------------------------------------


def test_opauc_single_atom_anchor(uniform_perfect):
    got = mt.opauc(uniform_perfect, mt.Atoms(((0.2, 1.0),)), P)
    tau_star = 1.2 - np.sqrt(0.24)
    assert got == pytest.approx(0.2 * tau_star / 0.5, abs=5e-4)


def test_opauc_capacity_abundant_collapses_to_mean_rho(uniform_perfect):
    # rho >= p0 + delta_p everywhere: tau* = 0 and TPR = 1, integrand = rho
    mu = mt.Atoms(((0.8, 0.5), (0.9, 0.5)))
    assert mt.opauc(uniform_perfect, mu, P) == pytest.approx(0.85, abs=1e-12)


def test_opauc_closed_form_matches_general(uniform_perfect, mixture_perfect):
    for model in (uniform_perfect, mixture_perfect):
        general = mt.opauc(model, mt.UniformRatio(0.3, 0.5), P)
        closed = mt.opauc_uniform_closed_form(model, 0.3, 0.5, P)
        assert general == pytest.approx(closed, abs=1e-3)


def test_opauc_closed_form_regime_error(uniform_perfect):
    with pytest.raises(ValueError, match="closed form invalid"):
        mt.opauc_uniform_closed_form(uniform_perfect, 0.05, 0.15, P)


def test_quadrature_resolution_self_check(uniform_perfect, monkeypatch):
    mu = mt.UniformRatio(0.1, 0.5)
    coarse = mt.opauc(uniform_perfect, mu, P), mt.auc_integral(uniform_perfect)
    monkeypatch.setattr(mt, "RHO_NODES", 401)
    monkeypatch.setattr(mt, "TAU_GRID", 4001)
    fine = mt.opauc(uniform_perfect, mu, P), mt.auc_integral(uniform_perfect)
    assert abs(coarse[0] - fine[0]) < 1e-4
    assert abs(coarse[1] - fine[1]) < 1e-4


def test_opauc_closed_form_constant_tpr():
    # all positives carry the top scores: TPR = 1 over the integration range
    n = 1000
    scores = np.linspace(0.0, 1.0, n)
    outcomes = (scores > 0.7).astype(float)
    model = sm.EmpiricalLabeled(scores, outcomes)
    got = mt.opauc_uniform_closed_form(model, 0.3, 0.5, P)
    tau_lo = fl.capacity_matching_threshold(0.5, P)  # 0.2
    tau_hi = fl.capacity_matching_threshold(0.3, P)  # 0.6
    expect = 0.5 * (0.1 + 0.5) * (tau_hi - tau_lo) / 0.2
    assert got == pytest.approx(expect, abs=1e-3)


# --- selection -------------------------------------------------------------------------


def test_select_requires_uniquely_named_candidates(uniform_perfect):
    mu = mt.Atoms(((0.2, 1.0),))
    with pytest.raises(ValueError, match="at least one candidate"):
        mt.select_algorithm([], mu, P)
    dup = [
        mt.AlgorithmCandidate("same", uniform_perfect),
        mt.AlgorithmCandidate("same", uniform_perfect),
    ]
    with pytest.raises(ValueError):
        mt.select_algorithm(dup, mu, P)


def test_select_tie_breaks_lexicographically(uniform_perfect):
    mu = mt.Atoms(((0.2, 1.0),))
    cands = [
        mt.AlgorithmCandidate("zeta", uniform_perfect),
        mt.AlgorithmCandidate("alpha", uniform_perfect),
    ]
    report = mt.select_algorithm(cands, mu, P)
    assert report.winner_by_auc == "alpha"
    assert report.winner_by_opauc == "alpha"


def test_selection_soundness_matches_fluid_ordering(crossing_pair, uniform_perfect):
    toprank, smooth = crossing_pair
    mu = mt.Atoms(((0.05, 1 / 3), (0.1, 1 / 3), (0.15, 1 / 3)))

    def mu_fluid(model):
        total = 0.0
        for rho, w in mu.atoms:
            tau = fl.two_point_threshold(rho, model, P)
            total += w * fl.fluid_objective(tau, model, 1.0, rho, P)
        return total

    pairs = [("toprank", toprank), ("smooth", smooth), ("uniform", uniform_perfect)]
    opaucs = {name: mt.opauc(model, mu, P) for name, model in pairs}
    fluids = {name: mu_fluid(model) for name, model in pairs}
    # all three share E[r] = 0.5, so OpAUC order must match the fluid order
    assert sorted(opaucs, key=opaucs.get) == sorted(fluids, key=fluids.get)
    for name, model in pairs:
        er = sm.mean_true_score(model)
        assert opaucs[name] * er == pytest.approx(fluids[name], rel=1e-6)


def test_crossing_pair_flips_winner(crossing_pair):
    toprank, smooth = crossing_pair
    mu = mt.Atoms(((0.05, 1 / 3), (0.1, 1 / 3), (0.15, 1 / 3)))
    report = mt.select_algorithm(
        [mt.AlgorithmCandidate("toprank", toprank), mt.AlgorithmCandidate("smooth", smooth)],
        mu, P,
    )
    assert report.winner_by_auc == "smooth"
    assert report.winner_by_opauc == "toprank"
    assert {len(c.table) for c in report.candidates} == {3}


def test_roc_curves_genuinely_cross(crossing_pair):
    toprank, smooth = crossing_pair
    taus = np.linspace(0.05, 0.95, 30)
    diff = [sm.tpr_at(toprank, float(t)) - sm.tpr_at(smooth, float(t)) for t in taus]
    assert min(diff) < -0.01 and max(diff) > 0.01
