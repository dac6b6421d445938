import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import capthresh
from capthresh import (
    Analytic,
    BehavioralParams,
    BetaMixture,
    EmpiricalJoint,
    GaussianNoiseClipped,
    Perfect,
    Uniform01,
)

# every run draws the same examples and writes no example database, so a
# Tier-1 run locally and in CI checks exactly the same cases
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

MIX_COMPONENTS = ((0.7, 2.0, 10.0), (0.3, 8.0, 2.0))


@pytest.fixture(scope="session")
def uniform_perfect():
    return Analytic(Uniform01(), Perfect())


@pytest.fixture(scope="session")
def mixture_perfect():
    return Analytic(BetaMixture(MIX_COMPONENTS), Perfect())


@pytest.fixture(scope="session")
def uniform_noisy():
    return Analytic(Uniform01(), GaussianNoiseClipped(0.1))


@pytest.fixture(scope="session")
def mixture_noisy():
    return Analytic(BetaMixture(MIX_COMPONENTS), GaussianNoiseClipped(0.1))


@pytest.fixture(scope="session")
def params():
    return BehavioralParams(0.1, 0.5)


@pytest.fixture(scope="session")
def cli_env():
    """Environment for a ``python -m capthresh`` subprocess.

    Puts the absolute directory holding the imported ``capthresh`` package
    first on PYTHONPATH, so the child runs the same code as this process,
    whatever its working directory and whether or not the package is
    installed.  A relative entry such as ``PYTHONPATH=src`` would otherwise be
    resolved against the child's cwd.
    """
    root = str(Path(capthresh.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p
    )
    return env


def build_crossing_pair(size=150_000, seed=20260801, cut=0.75, sigma=0.25):
    """Two corpora over the same true scores whose ROC curves cross.

    "toprank" ranks the top tail perfectly but scrambles everything below the
    cut; "smooth" adds clipped Gaussian noise everywhere.  smooth wins AUC,
    toprank wins TPR (and hence efficacy) at scarce-capacity thresholds.
    """
    rng = np.random.default_rng(seed)
    r = rng.random(size)
    scramble = cut * rng.random(size)
    noise = sigma * rng.standard_normal(size)
    toprank = EmpiricalJoint(np.where(r >= cut, r, scramble), r)
    smooth = EmpiricalJoint(np.clip(r + noise, 0.0, 1.0), r)
    return toprank, smooth


@pytest.fixture(scope="session")
def crossing_pair():
    return build_crossing_pair()


def averaged_exact_objective(model, n, m, params, taus, n_pops, seed):
    """Population average (and its se) of the exact random-allocation objective.

    For a fixed tau the per-group service rates do not depend on the cohort,
    so the per-cohort objective is an affine function of (top-k sum, total
    sum) of true scores.  One sort per cohort covers every tau at once, which
    makes averages over tens of thousands of cohorts cheap.  Returns two
    dicts keyed by tau: the mean and its standard error.
    """
    from capthresh.score_model import flagged_count, sample_population
    from capthresh.simulate import exact_service_rates

    ks = sorted({flagged_count(n, float(t)) for t in taus})
    tops = np.zeros((n_pops, len(ks)))
    totals = np.zeros(n_pops)
    for i in range(n_pops):
        pop = sample_population(model, n, seed=np.random.SeedSequence((seed, i)))
        tie = np.random.default_rng(np.random.SeedSequence((seed, i, 1))).permutation(n)
        csum = np.cumsum(pop.r[np.lexsort((tie, -pop.r_hat))])
        tops[i] = [csum[k - 1] if k > 0 else 0.0 for k in ks]
        totals[i] = csum[-1]
    p1 = params.p0 + params.delta_p
    means, ses = {}, {}
    for t in taus:
        t = float(t)
        k = flagged_count(n, t)
        a1, a0 = exact_service_rates(t, n, m, params)
        per_cohort = p1 * a1 * tops[:, ks.index(k)] + params.p0 * a0 * (
            totals - tops[:, ks.index(k)]
        )
        means[t] = float(per_cohort.mean())
        ses[t] = float(per_cohort.std(ddof=1) / np.sqrt(n_pops))
    return means, ses


def scalar_bisection(up, lo, hi, tol=0.0):
    """Bisection of [lo, hi], keeping the upper half where ``up(mid)``, until it
    is at most tol wide or its ends are adjacent floats; returns the midpoint."""
    while hi - lo > tol and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if up(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sign_changes_near(f, x, lo, hi):
    """f(x) is 0, or the sign of f at x differs from its sign at a float of
    [lo, hi] at most two ulp from x."""
    sign = np.sign(f(x))
    for toward in (-np.inf, np.inf):
        y = x
        for _ in range(2):
            y = np.nextafter(y, toward)
            if lo <= y <= hi and np.sign(f(y)) != sign:
                return True
    return sign == 0.0
