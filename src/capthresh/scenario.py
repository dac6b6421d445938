"""Scenario documents, empirical score corpora, and sweep/report output.

A scenario is one JSON document (schema version 1) that drives every CLI
subcommand: the score model, behavioral parameters, the operating point or a
single sweep axis, the policies to compare, allocation mixes, Monte Carlo
budget, and a mandatory seed.  Unknown keys are errors, not warnings, and no
randomness is ever drawn outside the declared seed, so a scenario file is a
complete recipe for its outputs.

All emitted files are byte-deterministic: floats are formatted to 9
significant digits, line endings are LF, and the SVG writer is hand-rolled
(no timestamps, no hashed ids).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fluid import (
    BehavioralParams,
    CapacityMatching,
    Fixed,
    GridOracle,
    ScoreOptimal,
    ThresholdPolicy,
    TwoPointOptimal,
)
from .metrics import Atoms, CapacityDistribution, SelectionReport, UniformRatio
from .score_model import (
    Analytic,
    BetaMixture,
    EmpiricalJoint,
    EmpiricalLabeled,
    GaussianNoiseClipped,
    JointScoreModel,
    Perfect,
    Uniform01,
)

SCHEMA_VERSION = 1
DEFAULT_TRIALS = 8000
DEFAULT_ORACLE_GRID = 21

# Resource caps, checked at load time so that an absurd scenario exits 1
# instead of exhausting memory or running for days.  A simulated trial holds
# a few arrays of its cohort size, and per-trial results are kept for every
# tau until the trials are averaged.
MAX_POPULATION = 1_000_000  # population.n and each validate.n_values entry
MAX_TRIALS = 200_000  # trials
MAX_POPULATIONS = 100_000  # validate.populations


class ScenarioError(ValueError):
    """Scenario parsing or validation failure; message names the field."""


def _fail(path: str, message: str):
    raise ScenarioError(f"{path}: {message}")


def _check_keys(obj: dict, allowed, path: str):
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        _fail(path, f"unknown key(s) {unknown}")


def _get(obj: dict, key: str, types, path: str, required=True, default=None):
    if key not in obj:
        if required:
            _fail(path, f"missing required key '{key}'")
        return default
    val = obj[key]
    if types is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, types) or isinstance(val, bool) and types is not bool:
        _fail(f"{path}.{key}", f"expected {getattr(types, '__name__', types)}")
    if types is float and not math.isfinite(val):
        _fail(f"{path}.{key}", "must be finite")
    return val


@dataclass(eq=False)
class Scenario:
    """A validated scenario document plus its directory for path resolution."""

    doc: dict
    base_dir: Path

    def __eq__(self, other):
        return isinstance(other, Scenario) and self.doc == other.doc

    # -- typed accessors ---------------------------------------------------

    @property
    def seed(self) -> int:
        return self.doc["seed"]

    @property
    def trials(self) -> int:
        return self.doc["trials"]

    @property
    def behavioral(self) -> BehavioralParams:
        b = self.doc["behavioral"]
        return BehavioralParams(b["p0"], b["delta_p"])

    @property
    def n(self) -> int:
        return self.doc["population"]["n"]

    @property
    def m(self) -> int | None:
        return self.doc["population"].get("m")

    @property
    def sweep(self) -> dict | None:
        return self.doc.get("sweep")

    @property
    def beta1(self) -> tuple[float, ...]:
        return tuple(self.doc["beta1"])

    @property
    def policies(self) -> tuple[ThresholdPolicy, ...]:
        return tuple(_policy_from_spec(s) for s in self.doc["policies"])

    @property
    def oracle_grid(self) -> int:
        return self.doc["oracle_grid"]

    @property
    def mu(self) -> CapacityDistribution | None:
        spec = self.doc.get("mu")
        return None if spec is None else _mu_from_spec(spec)

    @property
    def validate_spec(self) -> dict:
        return self.doc.get("validate", {"n_values": [100, 400, 1600], "populations": 800})

    @property
    def output_prefix(self) -> str | None:
        return self.doc.get("output_prefix")

    def build_model(self) -> JointScoreModel:
        return _model_from_spec(self.doc["model"], self.base_dir)

    def build_candidates(self) -> list[tuple[str, JointScoreModel]]:
        specs = self.doc.get("candidates")
        if specs is None:
            return [("model", self.build_model())]
        return [(c["name"], _model_from_spec(c["model"], self.base_dir)) for c in specs]


# ---------------------------------------------------------------------------
# Spec <-> object mappings
# ---------------------------------------------------------------------------


def _predictor_from_spec(spec: dict, path: str):
    _check_keys(spec, {"kind", "sigma"}, path)
    kind = _get(spec, "kind", str, path)
    if kind == "perfect":
        _check_keys(spec, {"kind"}, path)
        return Perfect()
    if kind == "gaussian_clipped":
        sigma = _get(spec, "sigma", float, path)
        if sigma < 0:
            _fail(f"{path}.sigma", "must be nonnegative")
        return GaussianNoiseClipped(sigma)
    _fail(f"{path}.kind", f"unknown predictor kind '{kind}'")


def _model_from_spec(spec: dict, base_dir: Path) -> JointScoreModel:
    path = "model"
    kind = _get(spec, "kind", str, path)
    if kind in ("uniform", "beta_mixture"):
        _check_keys(spec, {"kind", "components", "predictor"}, path)
        pred_spec = spec.get("predictor", {"kind": "perfect"})
        predictor = _predictor_from_spec(pred_spec, f"{path}.predictor")
        if kind == "uniform":
            return Analytic(Uniform01(), predictor)
        comps = _get(spec, "components", list, path)
        try:
            return Analytic(BetaMixture(tuple(tuple(c) for c in comps)), predictor)
        except (TypeError, ValueError) as e:
            _fail(f"{path}.components", str(e))
    if kind in ("empirical_joint", "empirical_labeled"):
        _check_keys(spec, {"kind", "path", "tie_seed"}, path)
        rel = _get(spec, "path", str, path)
        csv_path = (base_dir / rel).resolve()
        if not csv_path.is_file():
            _fail(f"{path}.path", f"file not found: {csv_path}")
        mode = "joint" if kind == "empirical_joint" else "labeled"
        model = load_empirical_csv(csv_path, mode)
        tie_seed = _get(spec, "tie_seed", int, path, required=False, default=0)
        if tie_seed:
            cls = type(model)
            if mode == "joint":
                model = cls(model.predicted, model.true, tie_seed=tie_seed)
            else:
                model = cls(model.predicted, model.outcomes, tie_seed=tie_seed)
        return model
    _fail(f"{path}.kind", f"unknown model kind '{kind}'")


def _validate_model_spec(spec, path: str, base_dir: Path):
    if not isinstance(spec, dict):
        _fail(path, "expected an object")
    kind = _get(spec, "kind", str, path)
    if kind == "uniform":
        _check_keys(spec, {"kind", "predictor"}, path)
    elif kind == "beta_mixture":
        _check_keys(spec, {"kind", "components", "predictor"}, path)
        comps = _get(spec, "components", list, path)
        for i, c in enumerate(comps):
            if not (isinstance(c, list) and len(c) == 3):
                _fail(f"{path}.components[{i}]", "expected [weight, alpha, beta]")
        try:
            BetaMixture(tuple(tuple(c) for c in comps))
        except ValueError as e:
            _fail(f"{path}.components", str(e))
    elif kind in ("empirical_joint", "empirical_labeled"):
        _check_keys(spec, {"kind", "path", "tie_seed"}, path)
        rel = _get(spec, "path", str, path)
        csv_path = (base_dir / rel).resolve()
        if not csv_path.is_file():
            _fail(f"{path}.path", f"file not found: {csv_path}")
        _get(spec, "tie_seed", int, path, required=False, default=0)
    else:
        _fail(f"{path}.kind", f"unknown model kind '{kind}'")
    if "predictor" in spec:
        _predictor_from_spec(spec["predictor"], f"{path}.predictor")
        if kind in ("empirical_joint", "empirical_labeled"):
            _fail(f"{path}.predictor", "empirical corpora carry their own predictions")


_POLICY_KINDS = {"fixed", "capacity_matching", "score_optimal", "two_point", "grid_oracle"}


def _policy_from_spec(spec: dict) -> ThresholdPolicy:
    kind = spec["kind"]
    if kind == "fixed":
        return Fixed(spec["tau"])
    if kind == "capacity_matching":
        return CapacityMatching()
    if kind == "score_optimal":
        return ScoreOptimal()
    if kind == "two_point":
        return TwoPointOptimal()
    return GridOracle(spec.get("grid_size", 2001))


def _validate_policy_spec(spec, path: str):
    if not isinstance(spec, dict):
        _fail(path, "expected an object")
    kind = _get(spec, "kind", str, path)
    if kind not in _POLICY_KINDS:
        _fail(f"{path}.kind", f"unknown policy kind '{kind}'")
    if kind == "fixed":
        _check_keys(spec, {"kind", "tau"}, path)
        tau = _get(spec, "tau", float, path)
        if not 0.0 <= tau <= 1.0:
            _fail(f"{path}.tau", "must be in [0, 1]")
    elif kind == "grid_oracle":
        _check_keys(spec, {"kind", "grid_size"}, path)
        g = _get(spec, "grid_size", int, path, required=False, default=2001)
        if g < 2:
            _fail(f"{path}.grid_size", "must be >= 2")
    else:
        _check_keys(spec, {"kind"}, path)


def _mu_from_spec(spec: dict) -> CapacityDistribution:
    if spec["kind"] == "uniform_ratio":
        return UniformRatio(spec["lo"], spec["hi"])
    return Atoms(tuple(tuple(a) for a in spec["atoms"]))


def _validate_mu_spec(spec, path: str):
    if not isinstance(spec, dict):
        _fail(path, "expected an object")
    kind = _get(spec, "kind", str, path)
    if kind == "uniform_ratio":
        _check_keys(spec, {"kind", "lo", "hi"}, path)
        lo = _get(spec, "lo", float, path)
        hi = _get(spec, "hi", float, path)
        if not 0.0 <= lo < hi:
            _fail(f"{path}.lo", "need 0 <= lo < hi")
    elif kind == "atoms":
        _check_keys(spec, {"kind", "atoms"}, path)
        atoms = _get(spec, "atoms", list, path)
        for i, a in enumerate(atoms):
            if not (isinstance(a, list) and len(a) == 2):
                _fail(f"{path}.atoms[{i}]", "expected [rho, weight]")
        try:
            Atoms(tuple(tuple(a) for a in atoms))
        except ValueError as e:
            _fail(f"{path}.atoms", str(e))
    else:
        _fail(f"{path}.kind", f"unknown mu kind '{kind}'")


# ---------------------------------------------------------------------------
# Scenario load / save
# ---------------------------------------------------------------------------

_TOP_KEYS = {
    "version", "seed", "model", "behavioral", "population", "sweep", "policies",
    "beta1", "trials", "mu", "candidates", "validate", "oracle_grid", "output_prefix",
}


def load_scenario(path) -> Scenario:
    """Load and validate a scenario document; defaults are filled in place."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ScenarioError(f"cannot read scenario: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ScenarioError("scenario: top level must be an object")
    return _validate_document(doc, path.parent)


def _validate_document(doc: dict, base_dir: Path) -> Scenario:
    _check_keys(doc, _TOP_KEYS, "scenario")
    version = _get(doc, "version", int, "scenario")
    if version != SCHEMA_VERSION:
        _fail("scenario.version", f"unsupported version {version}")
    _get(doc, "seed", int, "scenario")

    beh = _get(doc, "behavioral", dict, "scenario")
    _check_keys(beh, {"p0", "delta_p"}, "behavioral")
    p0 = _get(beh, "p0", float, "behavioral")
    dp = _get(beh, "delta_p", float, "behavioral")
    if p0 < 0:
        _fail("behavioral.p0", "must be nonnegative")
    if dp < 0:
        _fail("behavioral.delta_p", "must be nonnegative")
    if p0 + dp > 1.0 + 1e-12:
        _fail("behavioral.delta_p", "p0 + delta_p must not exceed 1")

    pop = _get(doc, "population", dict, "scenario")
    _check_keys(pop, {"n", "m"}, "population")
    n = _get(pop, "n", int, "population")
    if n < 1:
        _fail("population.n", "must be >= 1")
    if n > MAX_POPULATION:
        _fail("population.n", f"must be <= {MAX_POPULATION}")
    m = _get(pop, "m", int, "population", required=False)
    if m is not None and m < 0:
        _fail("population.m", "must be nonnegative")

    _validate_model_spec(doc.get("model"), "model", base_dir)

    sweep = doc.get("sweep")
    if sweep is not None:
        _check_keys(sweep, {"axis", "lo", "hi", "points", "simulate"}, "sweep")
        axis = _get(sweep, "axis", str, "sweep")
        if axis not in ("rho", "p0"):
            _fail("sweep.axis", "must be 'rho' or 'p0'")
        lo = _get(sweep, "lo", float, "sweep")
        hi = _get(sweep, "hi", float, "sweep")
        points = _get(sweep, "points", int, "sweep")
        if points < 2:
            _fail("sweep.points", "must be >= 2")
        if not lo < hi:
            _fail("sweep.lo", "need lo < hi")
        if axis == "rho":
            if lo <= 0:
                _fail("sweep.lo", "capacity ratios must be positive")
            if m is not None:
                _fail("population.m", "fix m or sweep rho, not both")
        else:
            if lo < 0 or hi + dp > 1.0 + 1e-12:
                _fail("sweep.hi", "p0 grid must satisfy p0 + delta_p <= 1")
            if m is None:
                _fail("population.m", "p0 sweeps need a fixed m")
        sweep.setdefault("simulate", False)
        if not isinstance(sweep["simulate"], bool):
            _fail("sweep.simulate", "expected bool")
    elif m is None:
        _fail("population.m", "either fix m or declare a sweep")

    doc.setdefault("policies", [{"kind": "two_point"}])
    policies = _get(doc, "policies", list, "scenario")
    if not policies:
        _fail("scenario.policies", "must not be empty")
    for i, spec in enumerate(policies):
        _validate_policy_spec(spec, f"policies[{i}]")
        if spec.get("kind") == "grid_oracle":
            spec.setdefault("grid_size", 2001)

    doc.setdefault("beta1", [0.0])
    beta1 = _get(doc, "beta1", list, "scenario")
    if not beta1:
        _fail("scenario.beta1", "must not be empty")
    for i, b in enumerate(beta1):
        if isinstance(b, int) and not isinstance(b, bool):
            beta1[i] = b = float(b)
        if not isinstance(b, float) or not 0.0 <= b <= 1.0:
            _fail(f"beta1[{i}]", "must be a float in [0, 1]")

    doc.setdefault("trials", DEFAULT_TRIALS)
    check_trials(_get(doc, "trials", int, "scenario"))
    doc.setdefault("oracle_grid", DEFAULT_ORACLE_GRID)
    if _get(doc, "oracle_grid", int, "scenario") < 2:
        _fail("scenario.oracle_grid", "must be >= 2")

    if "mu" in doc:
        _validate_mu_spec(doc["mu"], "mu")

    if "candidates" in doc:
        cands = _get(doc, "candidates", list, "scenario")
        if len(cands) < 1:
            _fail("scenario.candidates", "must not be empty")
        names = set()
        for i, c in enumerate(cands):
            if not isinstance(c, dict):
                _fail(f"candidates[{i}]", "expected an object")
            _check_keys(c, {"name", "model"}, f"candidates[{i}]")
            name = _get(c, "name", str, f"candidates[{i}]")
            if name in names:
                _fail(f"candidates[{i}].name", f"duplicate candidate name '{name}'")
            names.add(name)
            _validate_model_spec(c.get("model"), f"candidates[{i}].model", base_dir)

    if "validate" in doc:
        v = _get(doc, "validate", dict, "scenario")
        _check_keys(v, {"n_values", "populations"}, "validate")
        nv = _get(v, "n_values", list, "validate")
        if not nv or any(not isinstance(x, int) or x < 1 for x in nv):
            _fail("validate.n_values", "expected positive integers")
        if max(nv) > MAX_POPULATION:
            _fail("validate.n_values", f"each value must be <= {MAX_POPULATION}")
        v.setdefault("populations", 800)
        populations = _get(v, "populations", int, "validate")
        if populations < 1:
            _fail("validate.populations", "must be >= 1")
        if populations > MAX_POPULATIONS:
            _fail("validate.populations", f"must be <= {MAX_POPULATIONS}")

    if "output_prefix" in doc:
        _get(doc, "output_prefix", str, "scenario")

    return Scenario(doc=doc, base_dir=base_dir)


def check_trials(trials: int) -> None:
    """The Monte Carlo budget must lie in [1, MAX_TRIALS]."""
    if trials < 1:
        _fail("scenario.trials", "must be >= 1")
    if trials > MAX_TRIALS:
        _fail("scenario.trials", f"must be <= {MAX_TRIALS}")


def save_scenario(scenario: Scenario, path) -> None:
    """Write the normalized document; load(save(s)) == s."""
    path = Path(path)
    ordered = {k: scenario.doc[k] for k in _FIELD_ORDER if k in scenario.doc}
    payload = json.dumps(ordered, indent=2) + "\n"
    _write_atomic(path, payload)


_FIELD_ORDER = [
    "version", "seed", "model", "behavioral", "population", "sweep", "policies",
    "beta1", "trials", "mu", "candidates", "validate", "oracle_grid", "output_prefix",
]


# ---------------------------------------------------------------------------
# Empirical CSV corpora
# ---------------------------------------------------------------------------

_HEADERS = {"joint": "score,true_score", "labeled": "score,outcome"}


def load_empirical_csv(path, mode: str) -> JointScoreModel:
    """Read a two-column corpus; row numbers in errors count file lines."""
    if mode not in _HEADERS:
        raise ValueError("mode must be 'joint' or 'labeled'")
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ScenarioError(f"cannot read corpus: {e}") from e
    lines = text.splitlines()
    if not lines:
        raise ScenarioError(f"{path.name}: empty file")
    if lines[0].strip() != _HEADERS[mode]:
        raise ScenarioError(
            f"{path.name}: bad header {lines[0]!r}; expected '{_HEADERS[mode]}'"
        )
    scores, seconds = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ScenarioError(f"{path.name}: row {lineno}: expected 2 fields")
        try:
            s, v = float(parts[0]), float(parts[1])
        except ValueError:
            raise ScenarioError(f"{path.name}: row {lineno}: values must be numeric") from None
        if not 0.0 <= s <= 1.0:
            raise ScenarioError(f"{path.name}: row {lineno}: score {s} out of [0, 1]")
        if mode == "joint":
            if not 0.0 <= v <= 1.0:
                raise ScenarioError(f"{path.name}: row {lineno}: true_score {v} out of [0, 1]")
        elif v not in (0.0, 1.0):
            raise ScenarioError(f"{path.name}: row {lineno}: outcome {parts[1]} not in {{0, 1}}")
        scores.append(s)
        seconds.append(v)
    if not scores:
        raise ScenarioError(f"{path.name}: no data rows")
    if mode == "joint":
        return EmpiricalJoint(np.array(scores), np.array(seconds))
    return EmpiricalLabeled(np.array(scores), np.array(seconds))


# ---------------------------------------------------------------------------
# Sweep tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    axis_value: float
    policy: str
    tau: float
    fluid_w: float
    sim_mean: float | None
    sim_se: float | None
    gap: float
    rel_gap: float


@dataclass(frozen=True)
class SweepTable:
    """Rows of a policy sweep, kept sorted by (axis value, policy)."""

    rows: tuple[SweepRow, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.rows, key=lambda r: (r.axis_value, r.policy)))
        object.__setattr__(self, "rows", ordered)


CSV_HEADER = "axis,policy,tau,fluid_w,sim_mean,sim_se,gap,rel_gap"


def _fmt(x: float | None) -> str:
    return "" if x is None else format(x, ".9g")


def write_sweep_csv(table: SweepTable, path) -> None:
    """Fixed column order, 9 significant digits, LF endings, UTF-8."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in table.rows:
        buf.write(
            ",".join(
                (
                    _fmt(r.axis_value), r.policy, _fmt(r.tau), _fmt(r.fluid_w),
                    _fmt(r.sim_mean), _fmt(r.sim_se), _fmt(r.gap), _fmt(r.rel_gap),
                )
            )
            + "\n"
        )
    _write_atomic(Path(path), buf.getvalue())


def read_sweep_csv(path) -> SweepTable:
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ScenarioError(f"{Path(path).name}: bad sweep header")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        f = line.split(",")
        rows.append(
            SweepRow(
                axis_value=float(f[0]), policy=f[1], tau=float(f[2]), fluid_w=float(f[3]),
                sim_mean=float(f[4]) if f[4] else None,
                sim_se=float(f[5]) if f[5] else None,
                gap=float(f[6]), rel_gap=float(f[7]),
            )
        )
    return SweepTable(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Selection report output
# ---------------------------------------------------------------------------


def write_selection_report(report: SelectionReport, prefix) -> tuple[Path, Path]:
    """Emit {prefix}_opauc.csv (per-rho audit rows) and {prefix}_opauc.json."""
    prefix = Path(prefix)
    csv_path = prefix.parent / (prefix.name + "_opauc.csv")
    json_path = prefix.parent / (prefix.name + "_opauc.json")
    buf = io.StringIO()
    buf.write("candidate,rho,weight,tau_star,tpr,integrand\n")
    for cand in report.candidates:
        for rho, w, tau_star, tpr, val in cand.table:
            buf.write(
                f"{cand.name},{_fmt(rho)},{_fmt(w)},{_fmt(tau_star)},{_fmt(tpr)},{_fmt(val)}\n"
            )
    _write_atomic(csv_path, buf.getvalue())
    summary = {
        "candidates": [
            {"name": c.name, "auc": c.auc, "opauc": c.opauc} for c in report.candidates
        ],
        "winner_by_auc": report.winner_by_auc,
        "winner_by_opauc": report.winner_by_opauc,
    }
    _write_atomic(json_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return csv_path, json_path


# ---------------------------------------------------------------------------
# SVG sweep plots
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")
_PANEL_W, _PANEL_H, _MARGIN, _GAP = 320, 260, 48, 28


def render_sweep_svg(table: SweepTable, axis_label: str, path) -> None:
    """Three-panel vector plot (threshold, objective, relative gap).

    One polyline per policy per panel; output depends only on the table and
    label, so identical inputs give identical bytes.
    """
    if not table.rows:
        raise ScenarioError("cannot render an empty sweep table")
    policies = sorted({r.policy for r in table.rows})
    panels = [
        ("threshold tau", lambda r: r.tau),
        ("fluid objective", lambda r: r.fluid_w),
        ("relative gap", lambda r: r.rel_gap),
    ]
    width = _MARGIN * 2 + _PANEL_W * 3 + _GAP * 2
    height = _MARGIN * 2 + _PANEL_H + 18 * (1 + len(policies))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    xs = [r.axis_value for r in table.rows]
    x_lo, x_hi = min(xs), max(xs)
    x_span = (x_hi - x_lo) or 1.0
    for i, (title, value) in enumerate(panels):
        ox = _MARGIN + i * (_PANEL_W + _GAP)
        oy = _MARGIN
        vals = [value(r) for r in table.rows]
        v_lo, v_hi = min(vals), max(vals)
        pad = 0.05 * ((v_hi - v_lo) or 1.0)
        v_lo, v_hi = v_lo - pad, v_hi + pad
        v_span = v_hi - v_lo
        parts.append(
            f'<rect x="{ox}" y="{oy}" width="{_PANEL_W}" height="{_PANEL_H}" '
            'fill="none" stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{ox + _PANEL_W / 2:.2f}" y="{oy - 10}" text-anchor="middle" '
            f'font-family="monospace" font-size="13">{title}</text>'
        )
        parts.append(
            f'<text x="{ox + _PANEL_W / 2:.2f}" y="{oy + _PANEL_H + 30}" text-anchor="middle" '
            f'font-family="monospace" font-size="12">{axis_label}</text>'
        )
        parts.append(
            f'<text x="{ox - 6}" y="{oy + 12}" text-anchor="end" font-family="monospace" '
            f'font-size="10">{v_hi:.4g}</text>'
        )
        parts.append(
            f'<text x="{ox - 6}" y="{oy + _PANEL_H}" text-anchor="end" font-family="monospace" '
            f'font-size="10">{v_lo:.4g}</text>'
        )
        for k, pol in enumerate(policies):
            rows = [r for r in table.rows if r.policy == pol]
            pts = " ".join(
                f"{ox + (r.axis_value - x_lo) / x_span * _PANEL_W:.2f},"
                f"{oy + _PANEL_H - (value(r) - v_lo) / v_span * _PANEL_H:.2f}"
                for r in rows
            )
            color = _PALETTE[k % len(_PALETTE)]
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
    legend_y = _MARGIN + _PANEL_H + 46
    for k, pol in enumerate(policies):
        color = _PALETTE[k % len(_PALETTE)]
        y = legend_y + 16 * k
        parts.append(
            f'<line x1="{_MARGIN}" y1="{y}" x2="{_MARGIN + 24}" y2="{y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_MARGIN + 30}" y="{y + 4}" font-family="monospace" '
            f'font-size="12">{pol}</text>'
        )
    parts.append("</svg>")
    _write_atomic(Path(path), "\n".join(parts) + "\n")


def _write_atomic(path: Path, payload: str) -> None:
    """Write-then-rename so failures never leave partial output files."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except OSError as e:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        raise ScenarioError(f"cannot write {path}: {e}") from e
