"""Scenario documents, empirical score corpora, and sweep/report output.

A scenario is one JSON document (schema version 1) that drives every CLI
subcommand: the score model, behavioral parameters, the operating point or a
single sweep axis, the policies to compare, allocation mixes, Monte Carlo
budget, and a mandatory seed.  :func:`load_scenario` reads it in one pass
that checks and types each block once, fills in defaults and returns a frozen
:class:`Scenario`; every error is a :class:`ScenarioError` that names the
field.  Unknown keys are errors, not warnings; a JSON int is read as a float
wherever a float is expected, and a bool is never read as a number.  Models
are built, and corpus CSVs read, only by the command that uses them.  No
randomness is ever drawn outside the declared seed, so a scenario file is a
complete recipe for its outputs.

All emitted files are byte-deterministic and leave by one path: every CSV
table (sweep, OpAUC audit, validate) through :func:`write_csv` (9 significant
digits, LF endings), and every file through the write-then-rename
``_write_atomic``.  The SVG writer is hand-rolled (no timestamps, no hashed ids).
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import warnings
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from .fluid import BehavioralParams, ThresholdPolicy
from .metrics import Atoms, CapacityDistribution, SelectionReport, UniformRatio
from .score_model import (
    _MAX_SIGMA,
    Analytic,
    BetaMixture,
    EmpiricalJoint,
    EmpiricalLabeled,
    GaussianNoiseClipped,
    JointScoreModel,
    Perfect,
    Predictor,
    Uniform01,
    mean_true_score,
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
MAX_GRID_POINTS = 1001  # oracle_grid and sweep.points: a tau or sweep step of 1e-3


class ScenarioError(ValueError):
    """Scenario parsing or validation failure; message names the field."""


def _fail(path: str, message: str):
    raise ScenarioError(f"{path}: {message}")


_REQUIRED = dataclasses.MISSING  # so a policy field's dataclass default passes straight to _get
_JSON_TYPES = {t.__name__: t for t in (bool, int, float, str)}


def _check(val, types, path: str, lo=None, hi=None):
    """``val`` as JSON type ``types`` within [lo, hi]; an int is read as a float."""
    if types is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, types) or isinstance(val, bool) and types is not bool:
        _fail(path, "expected an object" if types is dict else f"expected {types.__name__}")
    if types is float and not math.isfinite(val):
        _fail(path, "must be finite")
    if lo is not None and val < lo:
        _fail(path, f"must be >= {lo}")
    if hi is not None and val > hi:
        _fail(path, f"must be <= {hi}")
    return val


def _get(obj: dict, key: str, types, path: str, default=_REQUIRED, lo=None, hi=None):
    """``obj[key]`` checked as ``path.key``; a default makes the key optional."""
    if key not in obj:
        if default is _REQUIRED:
            _fail(path, f"missing required key '{key}'")
        return default
    return _check(obj[key], types, f"{path}.{key}", lo, hi)


def _keys(obj, allowed, path: str) -> dict:
    """``obj`` as a JSON object with no keys beyond ``allowed``."""
    _check(obj, dict, path)
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        _fail(path, f"unknown key(s) {unknown}")
    return obj


def _nonempty(val, path: str) -> list:
    if not _check(val, list, path):
        _fail(path, "must not be empty")
    return val


# ---------------------------------------------------------------------------
# The typed scenario
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """A checked model block; ``build`` makes the model where a command uses it.

    Analytic kinds carry their true-score law and predictor.  Empirical kinds
    carry the corpus CSV, its mode and tie seed, and ``build`` reads the CSV
    and rejects a corpus whose true scores or outcomes are all 0.
    """

    true_scores: Uniform01 | BetaMixture | None = None
    predictor: Predictor = Perfect()
    csv: Path | None = None
    mode: str = "joint"
    tie_seed: int = 0

    def build(self) -> JointScoreModel:
        if self.csv is None:
            return Analytic(self.true_scores, self.predictor)
        model = load_empirical_csv(self.csv, self.mode, self.tie_seed)
        if mean_true_score(model) == 0.0:  # every threshold would plan and serve zero value
            column = _HEADERS[self.mode].partition(",")[2]
            raise ScenarioError(f"{self.csv.name}: every {column} is 0; a corpus needs positive mass")
        return model


@dataclass(frozen=True)
class Sweep:
    axis: str  # "rho" or "p0"
    lo: float
    hi: float
    points: int
    simulate: bool


@dataclass(frozen=True)
class Validate:
    n_values: tuple[int, ...] = (100, 400, 1600)
    populations: int = 800


@dataclass(frozen=True)
class Scenario:
    """A checked scenario document with its defaults filled in."""

    seed: int
    trials: int
    behavioral: BehavioralParams
    n: int
    m: int | None  # None when the scenario sweeps rho
    sweep: Sweep | None
    beta1: tuple[float, ...]
    policies: tuple[ThresholdPolicy, ...]
    oracle_grid: int
    mu: CapacityDistribution | None
    validate: Validate
    output_prefix: str | None
    model: ModelSpec
    candidates: tuple[tuple[str, ModelSpec], ...] | None


# ---------------------------------------------------------------------------
# Scenario load
# ---------------------------------------------------------------------------

_TOP_KEYS = {
    "version", "seed", "model", "behavioral", "population", "sweep", "policies",
    "beta1", "trials", "mu", "candidates", "validate", "oracle_grid", "output_prefix",
}


def load_scenario(path, overrides=None) -> Scenario:
    """Read a scenario document and check and type it in one pass.

    ``overrides`` (top-level keys, as the CLI flags give them) replace the
    file's values before the check, so they are checked as file values are.
    The file must still name its own seed.
    """
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
    if "seed" not in doc:
        _fail("scenario", "missing required key 'seed'")
    return _parse({**doc, **(overrides or {})}, path.parent)


def _parse(doc: dict, base_dir: Path) -> Scenario:
    _keys(doc, _TOP_KEYS, "scenario")
    version = _get(doc, "version", int, "scenario")
    if version != SCHEMA_VERSION:
        _fail("scenario.version", f"unsupported version {version}")
    seed = _get(doc, "seed", int, "scenario", lo=0)

    beh = _keys(_get(doc, "behavioral", dict, "scenario"), {"p0", "delta_p"}, "behavioral")
    p0 = _get(beh, "p0", float, "behavioral", lo=0.0)
    dp = _get(beh, "delta_p", float, "behavioral", lo=0.0)
    if p0 + dp > 1.0 + 1e-12:
        _fail("behavioral.delta_p", "p0 + delta_p must not exceed 1")

    pop = _keys(_get(doc, "population", dict, "scenario"), {"n", "m"}, "population")
    n = _get(pop, "n", int, "population", lo=1, hi=MAX_POPULATION)
    m = _get(pop, "m", int, "population", default=None, lo=1)

    model = _model(doc.get("model"), "model", base_dir)
    sweep = _get(doc, "sweep", dict, "scenario", default=None)
    if sweep is not None:
        sweep = _sweep(sweep, n, m, dp)
    elif m is None:
        _fail("population.m", "either fix m or declare a sweep")

    policies = _nonempty(doc.get("policies", [{"kind": "two_point"}]), "scenario.policies")
    policies = tuple(_policy(spec, f"policies[{i}]") for i, spec in enumerate(policies))
    beta1 = _nonempty(doc.get("beta1", [0.0]), "scenario.beta1")
    beta1 = tuple(_check(b, float, f"beta1[{i}]", lo=0.0, hi=1.0) for i, b in enumerate(beta1))
    trials = _get(doc, "trials", int, "scenario", default=DEFAULT_TRIALS, lo=1, hi=MAX_TRIALS)
    oracle_grid = _get(
        doc, "oracle_grid", int, "scenario", default=DEFAULT_ORACLE_GRID, lo=2, hi=MAX_GRID_POINTS
    )
    mu = _mu(doc["mu"]) if "mu" in doc else None

    candidates = None
    if "candidates" in doc:
        candidates = []
        for i, c in enumerate(_nonempty(doc["candidates"], "scenario.candidates")):
            _keys(c, {"name", "model"}, f"candidates[{i}]")
            name = _get(c, "name", str, f"candidates[{i}]")
            # the name is an unquoted CSV field and stdout value
            if not name.isprintable() or not name or set(name) & set(' ,="'):
                _fail(f"candidates[{i}].name", "must be non-empty and printable, without ' ,=\"'")
            if any(name == seen for seen, _ in candidates):
                _fail(f"candidates[{i}].name", f"duplicate candidate name '{name}'")
            candidates.append((name, _model(c.get("model"), f"candidates[{i}].model", base_dir)))
        candidates = tuple(candidates)

    validate = Validate()
    if "validate" in doc:
        validate = _validate(_get(doc, "validate", dict, "scenario"))
    output_prefix = _get(doc, "output_prefix", str, "scenario", default=None)

    return Scenario(
        seed=seed, trials=trials, behavioral=BehavioralParams(p0, dp), n=n, m=m, sweep=sweep,
        beta1=beta1, policies=policies, oracle_grid=oracle_grid, mu=mu, validate=validate,
        output_prefix=output_prefix, model=model, candidates=candidates,
    )


def _predictor(spec, path: str) -> Predictor:
    kind = _get(_check(spec, dict, path), "kind", str, path)
    if kind == "perfect":
        _keys(spec, {"kind"}, path)
        return Perfect()
    if kind == "gaussian_clipped":
        _keys(spec, {"kind", "sigma"}, path)
        return GaussianNoiseClipped(_get(spec, "sigma", float, path, lo=0.0, hi=_MAX_SIGMA))
    _fail(f"{path}.kind", f"unknown predictor kind '{kind}'")


def _model(spec, path: str, base_dir: Path) -> ModelSpec:
    kind = _get(_check(spec, dict, path), "kind", str, path)
    if kind in ("uniform", "beta_mixture"):
        mixture_keys = ("components",) if kind == "beta_mixture" else ()
        _keys(spec, {"kind", "predictor", *mixture_keys}, path)
        predictor = _get(spec, "predictor", dict, path, default={"kind": "perfect"})
        predictor = _predictor(predictor, f"{path}.predictor")
        if kind == "uniform":
            return ModelSpec(Uniform01(), predictor)
        comps = _get(spec, "components", list, path)
        for i, c in enumerate(comps):
            if not (isinstance(c, list) and len(c) == 3) or any(isinstance(v, bool) for v in c):
                _fail(f"{path}.components[{i}]", "expected [weight, alpha, beta]")
        try:
            return ModelSpec(BetaMixture(tuple(tuple(c) for c in comps)), predictor)
        except (TypeError, ValueError) as e:
            _fail(f"{path}.components", str(e))
    if kind in ("empirical_joint", "empirical_labeled"):
        _keys(spec, {"kind", "path", "tie_seed"}, path)
        csv_path = (base_dir / _get(spec, "path", str, path)).resolve()
        if not csv_path.is_file():
            _fail(f"{path}.path", f"file not found: {csv_path}")
        tie_seed = _get(spec, "tie_seed", int, path, default=0, lo=0)
        return ModelSpec(csv=csv_path, mode=kind.removeprefix("empirical_"), tie_seed=tie_seed)
    _fail(f"{path}.kind", f"unknown model kind '{kind}'")


def _sweep(spec: dict, n: int, m: int | None, dp: float) -> Sweep:
    _keys(spec, {"axis", "lo", "hi", "points", "simulate"}, "sweep")
    axis = _get(spec, "axis", str, "sweep")
    if axis not in ("rho", "p0"):
        _fail("sweep.axis", "must be 'rho' or 'p0'")
    lo = _get(spec, "lo", float, "sweep")
    hi = _get(spec, "hi", float, "sweep")
    points = _get(spec, "points", int, "sweep", lo=2, hi=MAX_GRID_POINTS)
    simulate = _get(spec, "simulate", bool, "sweep", default=False)
    if not lo < hi:
        _fail("sweep.lo", "need lo < hi")
    if axis == "rho":
        if lo <= 0:
            _fail("sweep.lo", "capacity ratios must be positive")
        if simulate and int(round(lo * n)) == 0:
            _fail("sweep.lo", f"rho={lo} leaves no capacity to simulate at n={n}")
        if simulate and not math.isfinite(hi * n):
            _fail("sweep.hi", f"rho={hi} gives an infinite capacity to simulate at n={n}")
        if m is not None:
            _fail("population.m", "fix m or sweep rho, not both")
    else:
        if lo < 0:
            _fail("sweep.lo", "baseline request probabilities must be nonnegative")
        if hi + dp > 1.0 + 1e-12:
            _fail("sweep.hi", "p0 grid must satisfy p0 + delta_p <= 1")
        if m is None:
            _fail("population.m", "p0 sweeps need a fixed m")
    return Sweep(axis, lo, hi, points, simulate)


def _policy(spec, path: str) -> ThresholdPolicy:
    """The policy class registered for the spec's kind, built from its dataclass fields."""
    kind = _get(_check(spec, dict, path), "kind", str, path)
    cls = {c.kind: c for c in ThresholdPolicy.__subclasses__()}.get(kind)
    if cls is None:
        _fail(f"{path}.kind", f"unknown policy kind '{kind}'")
    fields = dataclasses.fields(cls)
    _keys(spec, {"kind", *(f.name for f in fields)}, path)
    values = {
        f.name: _get(spec, f.name, _JSON_TYPES[f.type], path, default=f.default) for f in fields
    }
    try:
        return cls(**values)
    except ValueError as e:
        name, _, why = str(e).partition(" ")  # policies name the offending field first
        _fail(f"{path}.{name}", why)


def _mu(spec) -> CapacityDistribution:
    kind = _get(_check(spec, dict, "mu"), "kind", str, "mu")
    if kind == "uniform_ratio":
        _keys(spec, {"kind", "lo", "hi"}, "mu")
        lo = _get(spec, "lo", float, "mu")
        hi = _get(spec, "hi", float, "mu")
        try:
            return UniformRatio(lo, hi)
        except ValueError as e:
            _fail("mu.lo", str(e))
    if kind == "atoms":
        _keys(spec, {"kind", "atoms"}, "mu")
        atoms = _get(spec, "atoms", list, "mu")
        for i, a in enumerate(atoms):
            if not (isinstance(a, list) and len(a) == 2) or any(isinstance(v, bool) for v in a):
                _fail(f"mu.atoms[{i}]", "expected [rho, weight]")
        try:
            return Atoms(tuple(tuple(a) for a in atoms))
        except (TypeError, ValueError) as e:
            _fail("mu.atoms", str(e))
    _fail("mu.kind", f"unknown mu kind '{kind}'")


def _validate(spec: dict) -> Validate:
    _keys(spec, {"n_values", "populations"}, "validate")
    nv = _get(spec, "n_values", list, "validate")
    if not nv or any(isinstance(x, bool) or not isinstance(x, int) or x < 1 for x in nv):
        _fail("validate.n_values", "expected positive integers")
    if max(nv) > MAX_POPULATION:
        _fail("validate.n_values", f"each value must be <= {MAX_POPULATION}")
    populations = _get(
        spec, "populations", int, "validate", default=Validate.populations, lo=1, hi=MAX_POPULATIONS
    )
    return Validate(tuple(nv), populations)


# ---------------------------------------------------------------------------
# Empirical CSV corpora
# ---------------------------------------------------------------------------

_HEADERS = {"joint": "score,true_score", "labeled": "score,outcome"}


def load_empirical_csv(path, mode: str, tie_seed: int = 0) -> JointScoreModel:
    """Read a two-column corpus; row numbers in errors count file lines.

    The file is read once as bytes.  When it is plain ASCII without the
    control characters at which ``str.splitlines`` also breaks lines, and its
    first line is the header, one ``np.loadtxt`` call parses the body from
    the file itself and the columns are range-checked whole.  Otherwise, or
    where that call or a check fails, the file is read again as UTF-8 text,
    split by ``str.splitlines`` and scanned row by row.  The scan accepts
    everything ``float()`` accepts (underscores in numbers, whitespace-only
    lines) and otherwise names the first bad row.
    """
    if mode not in _HEADERS:
        raise ValueError("mode must be 'joint' or 'labeled'")
    path = Path(path)
    scores, seconds = _load_file(path, mode) or _load_text(path, mode)
    if mode == "joint":
        return EmpiricalJoint(scores, seconds, tie_seed)
    return EmpiricalLabeled(scores, seconds, tie_seed)


# str.splitlines breaks lines at these ASCII bytes too, the file reader only at \n and \r
_SPLITLINES_ONLY = b"\x0b\x0c\x1c\x1d\x1e"


def _load_file(path: Path, mode: str) -> tuple[np.ndarray, np.ndarray] | None:
    """Both columns from one ``loadtxt`` call on the file, or None where the
    text path must decide: lines that ``str.splitlines`` might break
    elsewhere, another header, or a row that the call or a check rejects."""
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    if not raw.isascii() or any(b in raw for b in _SPLITLINES_ONLY):
        return None
    ends = [i for i in (raw.find(b"\n"), raw.find(b"\r")) if i >= 0]
    if raw[: min(ends, default=len(raw))].strip() != _HEADERS[mode].encode():
        return None
    return _load_columns(path, mode)


def _load_text(path: Path, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Both columns from the text's ``str.splitlines`` lines; raises naming the fault."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ScenarioError(f"cannot read corpus: {e}") from e
    except UnicodeDecodeError as e:
        raise ScenarioError(f"{path.name}: not UTF-8 text ({e.reason} at byte {e.start})") from e
    lines = text.splitlines()
    if not lines:
        raise ScenarioError(f"{path.name}: empty file")
    if lines[0].strip() != _HEADERS[mode]:
        raise ScenarioError(
            f"{path.name}: bad header {lines[0]!r}; expected '{_HEADERS[mode]}'"
        )
    return _scan_rows(path.name, lines[1:], mode)


def _load_columns(path: Path, mode: str) -> tuple[np.ndarray, np.ndarray] | None:
    """Both columns from one ``loadtxt`` call on the file's body, or None if
    any row needs the scan."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # on a body without data; the scan names it
            data = np.loadtxt(
                path, skiprows=1, encoding="utf-8", delimiter=",", comments=None, ndmin=2
            )
    except (OSError, ValueError):
        return None
    if data.shape[0] < 1 or data.shape[1] != 2:
        return None
    s, v = data[:, 0], data[:, 1]
    # every comparison is False for NaN, so NaN fails these checks
    second_ok = (v >= 0.0) & (v <= 1.0) if mode == "joint" else (v == 0.0) | (v == 1.0)
    if not ((s >= 0.0) & (s <= 1.0) & second_ok).all():
        return None
    return s, v


def _scan_rows(name: str, body: list[str], mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Both columns by ``float()`` per row; raises naming the first bad row."""
    scores, seconds = [], []
    for lineno, line in enumerate(body, start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ScenarioError(f"{name}: row {lineno}: expected 2 fields")
        try:
            s, v = float(parts[0]), float(parts[1])
        except ValueError:
            raise ScenarioError(f"{name}: row {lineno}: values must be numeric") from None
        if not 0.0 <= s <= 1.0:
            raise ScenarioError(f"{name}: row {lineno}: score {s} out of [0, 1]")
        if mode == "joint":
            if not 0.0 <= v <= 1.0:
                raise ScenarioError(f"{name}: row {lineno}: true_score {v} out of [0, 1]")
        elif v not in (0.0, 1.0):
            raise ScenarioError(f"{name}: row {lineno}: outcome {parts[1]} not in {{0, 1}}")
        scores.append(s)
        seconds.append(v)
    if not scores:
        raise ScenarioError(f"{name}: no data rows")
    return np.array(scores), np.array(seconds)


# ---------------------------------------------------------------------------
# Sweep tables and CSV output
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


def sweep_table(labels, curves, sims=None) -> SweepTable:
    """Rows of each policy's ``gap_curve`` points under its label; ``sims``
    gives, per policy, a simulated (mean, se) per point, else both are empty."""
    rows = []
    for i, (label, points) in enumerate(zip(labels, curves)):
        estimates = sims[i] if sims is not None else [(None, None)] * len(points)
        rows += [
            SweepRow(pt.x, label, pt.tau_policy, pt.objective_policy, mean, se, pt.gap, pt.rel_gap)
            for pt, (mean, se) in zip(points, estimates)
        ]
    return SweepTable(rows=tuple(rows))


CSV_HEADER = "axis,policy,tau,fluid_w,sim_mean,sim_se,gap,rel_gap"
_SWEEP_CELLS = attrgetter(*(f.name for f in dataclasses.fields(SweepRow)))


def _cell(x) -> str:
    if isinstance(x, str):
        return x
    return "" if x is None else format(x, ".9g")


def write_csv(path, header: str, rows) -> None:
    """The one CSV writer: a str cell as is, None empty, a number to 9 significant digits."""
    buf = io.StringIO()
    buf.write(header + "\n")
    for row in rows:
        buf.write(",".join(map(_cell, row)) + "\n")
    _write_atomic(path, buf.getvalue())


def write_sweep_csv(table: SweepTable, path) -> None:
    """Fixed column order, 9 significant digits, LF endings, UTF-8."""
    write_csv(path, CSV_HEADER, map(_SWEEP_CELLS, table.rows))


def write_selection_report(report: SelectionReport, prefix) -> tuple[Path, Path]:
    """Emit {prefix}_opauc.csv (per-rho audit rows) and {prefix}_opauc.json."""
    prefix = Path(prefix)
    csv_path = prefix.parent / (prefix.name + "_opauc.csv")
    json_path = prefix.parent / (prefix.name + "_opauc.json")
    write_csv(
        csv_path,
        "candidate,rho,weight,tau_star,tpr,integrand",
        ((cand.name, *row) for cand in report.candidates for row in cand.table),
    )
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


def _text(x, y, size: int, body: str, anchor: str | None = None) -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return f'<text x="{x}" y="{y}"{anchor} font-family="monospace" font-size="{size}">{body}</text>'


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
        mid = f"{ox + _PANEL_W / 2:.2f}"
        parts += [
            _text(mid, oy - 10, 13, title, "middle"),
            _text(mid, oy + _PANEL_H + 30, 12, axis_label, "middle"),
            _text(ox - 6, oy + 12, 10, f"{v_hi:.4g}", "end"),
            _text(ox - 6, oy + _PANEL_H, 10, f"{v_lo:.4g}", "end"),
        ]
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
        parts.append(_text(_MARGIN + 30, y + 4, 12, pol))
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
