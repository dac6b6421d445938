"""Command-line entry point: one scenario file drives every subcommand.

Subcommands:

* ``threshold`` -- capacity-matching, score-optimal, and two-point thresholds
  plus the critical baseline and the binding regime at the operating point.
* ``sweep``     -- policy comparison table along the scenario's sweep axis,
  written as CSV and a three-panel SVG.
* ``simulate``  -- Monte Carlo estimates for every policy x beta1 pair.
* ``opauc``     -- AUC vs OpAUC selection report over the capacity law mu.
* ``validate``  -- fluid-vs-exact/MC convergence table across cohort sizes.
* ``oracle``    -- exhaustive tau-grid search of the simulated objective.

Exit codes: 0 success, 1 scenario/validation error, 2 runtime error,
64 usage.  Stdout is line-oriented ``key=value``; floats print with full
round-trip precision so reruns can be compared byte for byte.  All files are
written via write-then-rename, so failures leave no partial outputs.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import fluid, metrics, scenario as sio, score_model as sm, simulate as sim
from .fluid import BehavioralParams
from .scenario import ScenarioError


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _emit(**kv) -> None:
    print(" ".join(f"{k}={_fmt(v)}" for k, v in kv.items()))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(64)


@functools.cache  # parse_args keeps no state on the parser, so one serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="capthresh", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("threshold", "sweep", "simulate", "opauc", "validate", "oracle"):
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--seed", type=int, help="override scenario seed")
        p.add_argument("--trials", type=int, help="override Monte Carlo trials")
        p.add_argument("--beta1", type=float, help="override allocation mix")
        p.add_argument("--workers", type=int, default=1, help="worker processes")
        p.add_argument("--out", help="override output prefix")
    return parser


def _require_point(scn: sio.Scenario) -> tuple[int, int]:
    if scn.m is None:
        raise ScenarioError("population.m: this subcommand needs a single operating point")
    return scn.n, scn.m


def _require_one_beta1(scn: sio.Scenario) -> float:
    if len(scn.beta1) > 1:
        raise ScenarioError(f"beta1: this subcommand runs one allocation mix, got {len(scn.beta1)}")
    return scn.beta1[0]


def _require_nudge(scn: sio.Scenario) -> None:
    if scn.behavioral.delta_p == 0:
        raise ScenarioError("behavioral.delta_p: must be > 0 to define the score-optimal threshold")


def _require_prefix(scn: sio.Scenario) -> str:
    prefix = scn.output_prefix
    if prefix is None:
        raise ScenarioError("scenario.output_prefix: required (or pass --out)")
    return prefix


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_threshold(scn: sio.Scenario, args) -> int:
    n, m = _require_point(scn)
    _require_nudge(scn)
    rho = m / n
    model = scn.model.build()
    params = scn.behavioral
    tau_c = fluid.capacity_matching_threshold(rho, params)
    tau_score = fluid.score_optimal_threshold(model, params)
    tau_star = min(tau_c, tau_score)
    regime = "cannibalization-bound" if tau_score < tau_c else "utilization-bound"
    p0_critical = fluid.critical_baseline(rho, model, params.delta_p)
    _emit(rho=rho, tau_c=tau_c, tau_score=tau_score, tau_star=tau_star,
          p0_critical=p0_critical, regime=regime)
    return 0


def _cmd_sweep(scn: sio.Scenario, args) -> int:
    sweep = scn.sweep
    if sweep is None:
        raise ScenarioError("sweep: this subcommand needs a sweep block")
    prefix = _require_prefix(scn)
    _require_nudge(scn)
    model = scn.model.build()
    params = scn.behavioral
    policies = scn.policies
    grid = np.linspace(sweep.lo, sweep.hi, sweep.points)
    axis = sweep.axis
    rho = scn.m / scn.n if axis == "p0" else None
    curves = [
        fluid.gap_curve(p, axis=axis, grid=grid, model=model, params=params, rho=rho, n=scn.n)
        for p in policies
    ]
    sims = None
    if sweep.simulate:
        beta1 = _require_one_beta1(scn)
        by_point = []  # per grid point, every policy is simulated from one set of draws
        for x in grid:
            x = float(x)
            if axis == "rho":
                m, pt_params = int(round(x * scn.n)), params
            else:
                m, pt_params = scn.m, BehavioralParams(x, params.delta_p)
            cfg = sim.SimConfig(
                n=scn.n, m=m, params=pt_params, beta1=beta1, trials=scn.trials, seed=scn.seed
            )
            taus = [p.threshold(m / scn.n, model, pt_params) for p in policies]
            ests = sim.simulate_taus(cfg, taus, model, workers=args.workers)
            by_point.append([(est.mean, est.std_error) for est in ests])
        sims = list(zip(*by_point))
    table = sio.sweep_table([p.label for p in policies], curves, sims)
    csv_path = prefix + "_sweep.csv"
    svg_path = prefix + "_sweep.svg"
    sio.write_sweep_csv(table, csv_path)
    sio.render_sweep_svg(table, axis, svg_path)
    _emit(rows=len(table.rows), csv=csv_path, svg=svg_path)
    return 0


def _cmd_simulate(scn: sio.Scenario, args) -> int:
    n, m = _require_point(scn)
    policies = scn.policies
    if any(p.needs_score_optimal for p in policies):
        _require_nudge(scn)
    model = scn.model.build()
    params = scn.behavioral
    taus = [p.threshold(m / n, model, params) for p in policies]
    # all policies of one beta1 share one set of draws
    by_beta1 = [
        sim.simulate_taus(
            sim.SimConfig(n=n, m=m, params=params, beta1=b1, trials=scn.trials, seed=scn.seed),
            taus, model, workers=args.workers,
        )
        for b1 in scn.beta1
    ]
    for i, (policy, tau) in enumerate(zip(policies, taus)):
        for b1, ests in zip(scn.beta1, by_beta1):
            est = ests[i]
            _emit(
                policy=policy.label, beta1=b1, tau=tau,
                mean=est.mean, se=est.std_error, trials=est.trials,
                served_flagged=est.served_flagged_mean,
                served_unflagged=est.served_unflagged_mean,
                requests=est.requests_mean, utilization=est.utilization_mean,
            )
    return 0


def _cmd_opauc(scn: sio.Scenario, args) -> int:
    mu = scn.mu
    if mu is None:
        raise ScenarioError("mu: this subcommand needs a capacity distribution")
    prefix = _require_prefix(scn)
    _require_nudge(scn)
    params = scn.behavioral
    specs = scn.candidates or (("model", scn.model),)
    cands = [metrics.AlgorithmCandidate(name, spec.build()) for name, spec in specs]
    report = metrics.select_algorithm(cands, mu, params)
    csv_path, json_path = sio.write_selection_report(report, prefix)
    for cand in report.candidates:
        _emit(candidate=cand.name, auc=cand.auc, opauc=cand.opauc)
    _emit(winner_by_auc=report.winner_by_auc, winner_by_opauc=report.winner_by_opauc,
          csv=str(csv_path), json=str(json_path))
    return 0


def _cmd_validate(scn: sio.Scenario, args) -> int:
    n0, m0 = _require_point(scn)
    prefix = _require_prefix(scn)
    _require_nudge(scn)
    model = scn.model.build()
    params = scn.behavioral
    rho = m0 / n0
    vspec = scn.validate
    for nk in vspec.n_values:
        if int(round(rho * nk)) == 0:
            raise ScenarioError(f"validate.n_values: n={nk} at rho={rho} leaves no capacity")
    rows = []
    for nk in vspec.n_values:
        mk = int(round(rho * nk))
        tau_star = fluid.two_point_threshold(mk / nk, model, params)
        fluid_w = fluid.fluid_objective(tau_star, model, nk, mk, params)
        if nk <= sim.EXACT_BUDGET:
            method = "exact"
            vals = [
                sim.exact_objective_random(
                    sm.sample_population(model, nk, seed=rng), tau_star, mk, params,
                    flag_seed=scn.seed,
                )
                for rng in sim.spawned_generators((scn.seed, nk), 0, vspec.populations)
            ]
            est = float(np.mean(vals))
        else:
            method = "mc"
            cfg = sim.SimConfig(
                n=nk, m=mk, params=params, trials=scn.trials, seed=scn.seed
            )
            est = sim.simulate_policy(
                cfg, fluid.Fixed(tau_star), model, workers=args.workers
            ).mean
        abs_err = abs(fluid_w - est)
        rows.append((nk, method, fluid_w, est, abs_err, abs_err / fluid_w if fluid_w else 0.0))
    out_path = prefix + "_validate.csv"
    sio.write_csv(out_path, "n,method,fluid_w,estimate,abs_error,rel_error", rows)
    _emit(csv=out_path, rel_error_final=rows[-1][-1])
    return 0


def _cmd_oracle(scn: sio.Scenario, args) -> int:
    n, m = _require_point(scn)
    model = scn.model.build()
    cfg = sim.SimConfig(
        n=n, m=m, params=scn.behavioral, beta1=_require_one_beta1(scn),
        trials=scn.trials, seed=scn.seed,
    )
    tau_best, est = sim.grid_oracle(cfg, model, scn.oracle_grid, workers=args.workers)
    _emit(tau_best=tau_best, mean=est.mean, se=est.std_error,
          trials=est.trials, grid=scn.oracle_grid)
    return 0


_COMMANDS = {
    "threshold": _cmd_threshold,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "opauc": _cmd_opauc,
    "validate": _cmd_validate,
    "oracle": _cmd_oracle,
}


def execute(argv) -> int:
    """Parse argv, run the subcommand, and map failures to exit codes."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"argument --workers: must be >= 1, got {args.workers}")
    try:
        flags = {"seed": args.seed, "trials": args.trials, "output_prefix": args.out,
                 "beta1": None if args.beta1 is None else [args.beta1]}
        scn = sio.load_scenario(args.scenario, {k: v for k, v in flags.items() if v is not None})
        return _COMMANDS[args.command](scn, args)
    except ScenarioError as e:
        print(f"capthresh: scenario error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"capthresh: error: {e}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return execute(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
