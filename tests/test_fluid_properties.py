"""Standing properties of the analytic fluid solvers on drawn models.

Beta mixtures of one to three components, with a perfect predictor or
clipped Gaussian noise, at drawn p0, delta_p and rho.  Each example checks
that the analytic roots are roots of H to the last bits, against a bisection
of the same H to adjacent floats, that the two-point threshold is the fluid
optimum on a tau grid, and that the TPR curve stays at most 1.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from capthresh import fluid as fl
from capthresh import score_model as sm
from tests.conftest import scalar_bisection

_GRID = np.linspace(0.0, 1.0, 201)

components = st.lists(
    st.tuples(st.floats(0.1, 1.0), st.floats(0.5, 12.0), st.floats(0.5, 12.0)), min_size=1, max_size=3
)


def _model(comps, sigma):
    total = sum(w for w, _, _ in comps)
    mixture = sm.BetaMixture(tuple((w / total, a, b) for w, a, b in comps))
    return sm.Analytic(mixture, sm.GaussianNoiseClipped(sigma) if sigma else sm.Perfect())


def _deep_root(f, lo, hi):
    """The root of a decreasing f on [lo, hi], bisected to adjacent floats; lo
    or hi where f does not change sign."""
    if f(lo) <= 0.0:
        return lo
    if f(hi) > 0.0:
        return hi
    return scalar_bisection(lambda x: f(x) > 0.0, lo, hi)


def _is_a_root(f, x, ref, lo, hi):
    """x is ref where ref clamps to an end of [lo, hi].  Otherwise f changes
    sign between x and a float at most 2 ulp from it, and x is within 1e-12
    of ref.  The computed H is exact only to about 1e-15, so near a root where
    H is flat its sign changes erratically over up to about 150 ulp (seen on
    Beta(4, 0.5)), and two bracketing solves can stop at different sign
    changes."""
    if ref in (lo, hi):
        return x == ref
    if abs(x - ref) > 1e-12:
        return False
    sign = np.sign(f(x))
    for toward in (-np.inf, np.inf):
        y = x
        for _ in range(2):
            y = np.nextafter(y, toward)
            if lo <= y <= hi and np.sign(f(y)) != sign:
                return True
    return sign == 0.0


@given(
    comps=components,
    sigma=st.sampled_from([0.0, 0.05, 0.3]),
    p0=st.floats(0.01, 0.5),
    delta_p=st.floats(0.05, 0.5),
    rho=st.floats(0.01, 0.9),
)
@settings(max_examples=50, deadline=None)
def test_analytic_roots_two_point_optimality_and_tpr(comps, sigma, p0, delta_p, rho):
    model = _model(comps, sigma)
    params = fl.BehavioralParams(p0, delta_p)

    def h(t):
        return fl.first_order_condition(model, params, t)

    tau_score = fl.score_optimal_threshold(model, params)
    assert _is_a_root(h, tau_score, _deep_root(h, 0.0, 1.0), 0.0, 1.0), tau_score

    def tau_c(p):
        return fl.capacity_matching_threshold(rho, fl.BehavioralParams(p, delta_p))

    def g(p):
        return fl.first_order_condition(model, fl.BehavioralParams(p, delta_p), tau_c(p))

    p0_bar = fl.critical_baseline(rho, model, delta_p)
    assert _is_a_root(g, p0_bar, _deep_root(g, 0.0, 1.0 - delta_p), 0.0, 1.0 - delta_p), p0_bar

    tau_star = fl.two_point_threshold(rho, model, params)
    w_star = fl.fluid_objective(tau_star, model, 1.0, rho, params)
    cma = sm.conditional_mean_above_grid(model, _GRID)
    w_grid = fl._objective_grid(_GRID, cma, sm.mean_true_score(model), 1.0, rho, p0, delta_p)
    assert w_star >= np.max(w_grid) - 1e-12 * max(1.0, w_star)

    # 1 up to rounding: on noisy models the tail mean at tau = 0 and E[r]
    # come from different quadratures
    assert np.max(sm.tpr_grid(model, _GRID)) <= 1.0 + 1e-12
