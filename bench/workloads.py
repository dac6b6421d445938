"""Seeded inputs, command lists and output checks for the four workloads.

Each workload is built from ``--seed`` alone: the scenario documents (and, for
``corpus``, the two score corpora) are written into a work directory, and
every command gets ``--seed``, ``--out`` (inside that directory) and
``--workers 1``, so nothing lands under ``demos/output/``.

Checks never compare bytes with a stored reference.  They test properties the
CLI promises: every call exits 0, every numeric ``key=value`` field is finite,
and workload-specific identities (see each ``_check_*`` function).  The run
additionally requires that repeated passes print identical stdout.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# The demo beta mixture of demos/scenarios/*.json: (weight, alpha, beta).
DEMO_MIXTURE = [[0.7, 2.0, 10.0], [0.3, 8.0, 2.0]]
DEMO_POLICIES = [{"kind": "two_point"}, {"kind": "capacity_matching"}, {"kind": "fixed", "tau": 0.8}]
# On an empirical corpus the p0 sweep exits 2 ("two-point threshold beaten") when
# capacity matching lands within one tau-grid step of the grid argmax, near the
# critical baseline (see README.md, "Known defect").  The corpus workload sweeps
# fixed thresholds instead, which the two-point threshold beats by a wide margin.
CORPUS_POLICIES = [{"kind": "two_point"}, {"kind": "fixed", "tau": 0.8}, {"kind": "fixed", "tau": 0.6}]
NOISY_SIGMA = 0.1
MU = {"kind": "uniform_ratio", "lo": 0.05, "hi": 0.15}

# Run lengths, chosen so that one pass takes a few seconds on a 2-core box.
PLAN_RHO_POINTS = 35
PLAN_P0_POINTS = 12
ORACLE_TRIALS = 150
ORACLE_GRID = 21
ORACLE_TAU_STEPS = 2  # tau_best may sit this many grid steps from the fluid tau
COHORT_N = 20_000
COHORT_TRIALS = 150
COHORT_POPULATIONS = 200
COHORT_N_VALUES = [100, 400, 1600]
COHORT_REL_ERROR = 0.02  # bound on validate's rel_error_final
CORPUS_ROWS = 20_000
CORPUS_P0_POINTS = 10
CORPUS_TRIALS = 60

OPAUC_RHO_NODES = 201  # capthresh.metrics.RHO_NODES; a uniform mu uses this many nodes

# stdout keys whose values are labels or paths; every other key is numeric
TEXT_KEYS = {"policy", "regime", "candidate", "csv", "svg", "json", "winner_by_auc", "winner_by_opauc"}


@dataclass
class Command:
    """One CLI call, what it counts toward, and how its output is checked."""

    label: str
    argv: list[str]
    check: Callable[[list[dict], "Command", dict], list[str]]  # (lines, self, pass outputs by label)
    kind: str  # "plan", "trial", "exact" or "" -- which throughput it feeds
    facts: dict = field(default_factory=dict)  # inputs the check compares against


@dataclass
class Workload:
    name: str
    commands: list[Command]


def parse_stdout(text: str) -> list[dict]:
    """Split ``key=value`` lines; numeric keys become floats."""
    lines = []
    for raw in text.splitlines():
        row = {}
        for token in raw.split(" "):
            key, sep, value = token.partition("=")
            if not sep:
                raise ValueError(f"not key=value: {token!r}")
            row[key] = value if key in TEXT_KEYS else float(value)
        lines.append(row)
    return lines


def generic_problems(lines: list[dict]) -> list[str]:
    """Every numeric field must be finite, and there must be output at all."""
    if not lines:
        return ["no stdout"]
    return [
        f"{key}={value} is not finite"
        for row in lines
        for key, value in row.items()
        if key not in TEXT_KEYS and not math.isfinite(value)
    ]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _check_threshold(lines, cmd, outputs):
    (row,) = lines
    f = cmd.facts
    rho = f["m"] / f["n"]
    tau_c = min(1.0, max(0.0, 1.0 - (rho - f["p0"]) / f["delta_p"]))
    out = []
    if not math.isclose(row["rho"], rho, rel_tol=0.0, abs_tol=1e-12):
        out.append(f"rho={row['rho']} != m/n={rho}")
    if not math.isclose(row["tau_c"], tau_c, rel_tol=0.0, abs_tol=1e-12):
        out.append(f"tau_c={row['tau_c']} != 1-(rho-p0)/delta_p={tau_c}")
    if row["tau_star"] != min(row["tau_c"], row["tau_score"]):
        out.append("tau_star != min(tau_c, tau_score)")
    if not 0.0 <= row["p0_critical"] <= 1.0 - f["delta_p"]:
        out.append(f"p0_critical={row['p0_critical']} outside [0, 1 - delta_p]")
    return out


def _check_sweep(lines, cmd, outputs):
    (row,) = lines
    expected = cmd.facts["points"] * cmd.facts["policies"]
    with open(row["csv"], newline="", encoding="utf-8") as fh:
        table = list(csv.DictReader(fh))
    out = []
    if int(row["rows"]) != expected or len(table) != expected:
        out.append(f"sweep has {int(row['rows'])} rows ({len(table)} in csv), expected {expected}")
    if any(float(r["gap"]) != 0.0 for r in table if r["policy"] == "two_point"):
        out.append("a two_point row has a nonzero gap")
    if any(float(r["gap"]) < 0.0 for r in table):
        out.append("a negative gap")
    if not Path(row["svg"]).is_file():
        out.append("svg missing")
    return out


def _check_opauc(lines, cmd, outputs):
    names = cmd.facts["candidates"]
    cands = [r for r in lines if "candidate" in r]
    out = []
    if [r["candidate"] for r in cands] != names:
        out.append(f"candidates {[r['candidate'] for r in cands]} != {names}")
    for r in cands:
        if not 0.0 < r["auc"] < 1.0 or r["opauc"] <= 0.0:
            out.append(f"{r['candidate']}: auc={r['auc']} opauc={r['opauc']}")
    summary = lines[-1]
    if summary.get("winner_by_auc") not in names or summary.get("winner_by_opauc") not in names:
        out.append("winners are not candidates")
    rows = _csv_rows(summary["csv"])
    if rows != OPAUC_RHO_NODES * len(names):
        out.append(f"opauc audit has {rows} rows, expected {OPAUC_RHO_NODES * len(names)}")
    return out


def _check_simulate(lines, cmd, outputs):
    f = cmd.facts
    out = []
    if [r["policy"] for r in lines] != f["labels"]:
        out.append(f"policies {[r['policy'] for r in lines]} != {f['labels']}")
    for r in lines:
        if int(r["trials"]) != f["trials"]:
            out.append(f"trials={r['trials']}, expected {f['trials']}")
        if not 0.0 <= r["utilization"] <= 1.0:
            out.append(f"utilization={r['utilization']}")
        if r["served_flagged"] + r["served_unflagged"] > f["m"] + 1e-9:
            out.append("served more than capacity")
        if r["se"] < 0.0 or r["mean"] < 0.0:
            out.append(f"mean={r['mean']} se={r['se']}")
    return out


def _check_oracle(lines, cmd, outputs):
    """tau_best is near the two-point tau that ``simulate`` printed in the same pass."""
    (row,) = lines
    f = cmd.facts
    step = 1.0 / (f["grid"] - 1)
    tau_fluid = next((r["tau"] for r in outputs.get("simulate", []) if r["policy"] == "two_point"), None)
    out = []
    if int(row["grid"]) != f["grid"] or int(row["trials"]) != f["trials"]:
        out.append(f"grid={row['grid']} trials={row['trials']}")
    if tau_fluid is None:
        out.append("no two_point tau from simulate to compare with")
    elif abs(row["tau_best"] - tau_fluid) > ORACLE_TAU_STEPS * step + 1e-12:
        out.append(
            f"tau_best={row['tau_best']} is more than {ORACLE_TAU_STEPS} grid steps "
            f"from the fluid two-point tau {tau_fluid}"
        )
    return out


def _check_validate(lines, cmd, outputs):
    (row,) = lines
    out = []
    if not row["rel_error_final"] < COHORT_REL_ERROR:
        out.append(f"rel_error_final={row['rel_error_final']} >= {COHORT_REL_ERROR}")
    with open(row["csv"], newline="", encoding="utf-8") as fh:
        table = list(csv.DictReader(fh))
    if [int(r["n"]) for r in table] != COHORT_N_VALUES:
        out.append("validate table does not list the requested n values")
    return out


def _csv_rows(path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


# ---------------------------------------------------------------------------
# Work counted by the throughput metrics, read from a command's outputs
# ---------------------------------------------------------------------------


def work_done(cmd: Command, lines: list[dict]) -> float:
    """Fluid points, trial x tau evaluations or exact cohorts, per ``cmd.kind``."""
    if cmd.kind == "plan":
        if cmd.label.startswith("threshold"):
            return 1.0
        if cmd.label.startswith("sweep"):
            return lines[0]["rows"]
        return float(_csv_rows(lines[-1]["csv"]))  # opauc: one row per rho node
    if cmd.kind == "trial":
        return sum(r["trials"] * r.get("grid", 1.0) for r in lines)
    if cmd.kind == "exact":
        with open(lines[0]["csv"], newline="", encoding="utf-8") as fh:
            exact = sum(1 for r in csv.DictReader(fh) if r["method"] == "exact")
        return float(exact * cmd.facts["populations"])
    return 0.0


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _write_scenario(work: Path, name: str, doc: dict) -> str:
    path = work / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _argv(cmd: str, scenario: str, seed: int, out: Path) -> list[str]:
    return [cmd, "--scenario", scenario, "--seed", str(seed), "--out", str(out), "--workers", "1"]


def _labels(policies) -> list[str]:
    return [p["kind"] if p["kind"] != "fixed" else f"fixed({p['tau']:g})" for p in policies]


def _model(sigma: float | None = None) -> dict:
    pred = {"kind": "perfect"} if sigma is None else {"kind": "gaussian_clipped", "sigma": sigma}
    return {"kind": "beta_mixture", "components": DEMO_MIXTURE, "predictor": pred}


def _base(seed: int, model: dict, p0: float, delta_p: float, n: int, m: int | None) -> dict:
    pop = {"n": n} if m is None else {"n": n, "m": m}
    return {
        "version": 1, "seed": seed, "model": model,
        "behavioral": {"p0": p0, "delta_p": delta_p}, "population": pop,
    }


def build_plan(seed: int, work: Path) -> Workload:
    """Fluid planning on the demo mixture: no Monte Carlo at all."""
    rng = np.random.default_rng(seed)
    p0 = float(rng.uniform(0.08, 0.12))
    m = int(rng.integers(180, 221))
    n, delta_p, scn_seed = 1000, 0.5, int(rng.integers(2**31))
    point = _base(scn_seed, _model(), p0, delta_p, n, m)
    rho = _base(scn_seed, _model(), p0, delta_p, n, None)
    rho["sweep"] = {"axis": "rho", "lo": 0.02, "hi": 0.7, "points": PLAN_RHO_POINTS, "simulate": False}
    rho_policies = DEMO_POLICIES + [{"kind": "fixed", "tau": 0.6}]
    rho["policies"] = rho_policies
    p0s = dict(point, sweep={"axis": "p0", "lo": 0.0, "hi": 0.45, "points": PLAN_P0_POINTS, "simulate": False})
    p0s["policies"] = DEMO_POLICIES
    select = dict(point, mu=MU, candidates=[
        {"name": "sharp", "model": _model()},
        {"name": "hazy", "model": _model(NOISY_SIGMA)},
    ])
    facts = {"n": n, "m": m, "p0": p0, "delta_p": delta_p}
    return Workload("plan", [
        Command("threshold", _argv("threshold", _write_scenario(work, "point", point), scn_seed, work / "point"),
                _check_threshold, "plan", facts),
        Command("sweep-rho", _argv("sweep", _write_scenario(work, "rho", rho), scn_seed, work / "rho"),
                _check_sweep, "plan", {"points": PLAN_RHO_POINTS, "policies": len(rho_policies)}),
        Command("sweep-p0", _argv("sweep", _write_scenario(work, "p0", p0s), scn_seed, work / "p0"),
                _check_sweep, "plan", {"points": PLAN_P0_POINTS, "policies": len(DEMO_POLICIES)}),
        Command("opauc", _argv("opauc", _write_scenario(work, "select", select), scn_seed, work / "select"),
                _check_opauc, "plan", {"candidates": ["sharp", "hazy"]}),
    ])


def build_oracle(seed: int, work: Path) -> Workload:
    """CRN tau-grid oracle plus four-policy simulate at the demo operating point."""
    scn_seed = int(np.random.default_rng(seed).integers(2**31))
    policies = DEMO_POLICIES + [{"kind": "fixed", "tau": 0.6}]
    doc = _base(scn_seed, _model(), 0.1, 0.5, 1000, 200)
    doc.update(policies=policies, beta1=[0.0], trials=ORACLE_TRIALS, oracle_grid=ORACLE_GRID)
    path = _write_scenario(work, "oracle", doc)
    return Workload("oracle", [
        Command("simulate", _argv("simulate", path, scn_seed, work / "sim"), _check_simulate, "trial",
                {"labels": _labels(policies), "trials": ORACLE_TRIALS, "m": 200}),
        Command("oracle", _argv("oracle", path, scn_seed, work / "oracle"), _check_oracle, "trial",
                {"grid": ORACLE_GRID, "trials": ORACLE_TRIALS}),
    ])


def build_cohort(seed: int, work: Path) -> Workload:
    """Large-n single-policy simulate with a noisy predictor, plus exact validate."""
    scn_seed = int(np.random.default_rng(seed).integers(2**31))
    m = COHORT_N // 5
    doc = _base(scn_seed, _model(NOISY_SIGMA), 0.1, 0.5, COHORT_N, m)
    doc.update(policies=[{"kind": "two_point"}], beta1=[0.5], trials=COHORT_TRIALS,
               validate={"n_values": COHORT_N_VALUES, "populations": COHORT_POPULATIONS})
    path = _write_scenario(work, "cohort", doc)
    return Workload("cohort", [
        Command("simulate", _argv("simulate", path, scn_seed, work / "sim"), _check_simulate, "trial",
                {"labels": ["two_point"], "trials": COHORT_TRIALS, "m": m}),
        Command("validate", _argv("validate", path, scn_seed, work / "validate"), _check_validate, "exact",
                {"populations": COHORT_POPULATIONS}),
    ])


def write_corpora(rng: np.random.Generator, work: Path) -> None:
    """A joint (score, true_score) and a labeled (score, outcome) corpus."""
    weights = np.array([c[0] for c in DEMO_MIXTURE])
    alphas = np.array([c[1] for c in DEMO_MIXTURE])
    betas = np.array([c[2] for c in DEMO_MIXTURE])
    for kind, header in (("joint", "score,true_score"), ("labeled", "score,outcome")):
        comp = rng.choice(weights.size, size=CORPUS_ROWS, p=weights)
        r = rng.beta(alphas[comp], betas[comp])
        pred = np.clip(r + NOISY_SIGMA * rng.standard_normal(CORPUS_ROWS), 0.0, 1.0)
        if kind == "joint":
            rows = (f"{s:.6f},{t:.6f}" for s, t in zip(pred, r))
        else:
            y = rng.random(CORPUS_ROWS) < r
            rows = (f"{s:.6f},{int(o)}" for s, o in zip(pred, y))
        (work / f"corpus_{kind}.csv").write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def build_corpus(seed: int, work: Path) -> Workload:
    """Empirical engine on two seeded corpora, each re-read by every command."""
    rng = np.random.default_rng(seed)
    scn_seed = int(rng.integers(2**31))
    write_corpora(rng, work)
    commands = []
    for kind in ("joint", "labeled"):
        model = {"kind": f"empirical_{kind}", "path": f"corpus_{kind}.csv"}
        doc = _base(scn_seed, model, 0.1, 0.5, 1000, 200)
        doc.update(policies=CORPUS_POLICIES, trials=CORPUS_TRIALS,
                   sweep={"axis": "p0", "lo": 0.02, "hi": 0.45, "points": CORPUS_P0_POINTS, "simulate": False})
        if kind == "joint":
            doc.update(mu=MU, candidates=[
                {"name": "joint", "model": model},
                {"name": "labeled", "model": {"kind": "empirical_labeled", "path": "corpus_labeled.csv"}},
            ])
        path = _write_scenario(work, f"corpus_{kind}", doc)
        out = work / kind
        commands += [
            Command(f"threshold-{kind}", _argv("threshold", path, scn_seed, out), _check_threshold, "plan",
                    {"n": 1000, "m": 200, "p0": 0.1, "delta_p": 0.5}),
            Command(f"sweep-{kind}", _argv("sweep", path, scn_seed, out), _check_sweep, "plan",
                    {"points": CORPUS_P0_POINTS, "policies": len(CORPUS_POLICIES)}),
            Command(f"simulate-{kind}", _argv("simulate", path, scn_seed, out), _check_simulate, "trial",
                    {"labels": _labels(CORPUS_POLICIES), "trials": CORPUS_TRIALS, "m": 200}),
        ]
        if kind == "joint":
            commands.append(Command("opauc", _argv("opauc", path, scn_seed, out), _check_opauc, "plan",
                                    {"candidates": ["joint", "labeled"]}))
    return Workload("corpus", commands)


BUILDERS = {"plan": build_plan, "oracle": build_oracle, "cohort": build_cohort, "corpus": build_corpus}
