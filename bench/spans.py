"""Spans around capthresh's public functions, installed from outside the package.

``install`` wraps every public function of the six modules (``cli``,
``scenario``, ``score_model``, ``fluid``, ``simulate``, ``metrics``) and
rebinds it in every module that holds a reference, because ``from .x import f``
copies the name into the importing module.  It also wraps
``BetaMixture.cdf/pdf/ppf`` on the class, the CLI subcommand table (spans
``cli.<subcommand>``) and ``scenario._write_atomic`` (span ``scenario.write``,
which carries the bytes of the file written).  ``uninstall`` restores every
binding.  No program source is changed.

A span records its name, start, end, parent span and command id.  Spans stay
in compact in-memory arrays until the run ends, then ``save`` writes them to
one ``.npz`` file.  A span's self time is its duration minus the durations of
its child spans; children never overlap because the run is single-threaded.
A function's ``total_s`` sums only its outermost spans, so a function that
(indirectly) calls itself is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "scenario", "score_model", "fluid", "simulate", "metrics")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.cmd = array("i")
        self.outer = array("b")  # 1 when no span of the same name is open
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")  # bytes written or trials run, where recorded
        self.cmd_id = 0
        self._stack: list[int] = []
        self._open: list[int] = []  # open spans per name id
        self._undo: list[tuple] = []

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn, value=None):
        """A stand-in for ``fn`` that records one span per call.

        ``value(args, kwargs)``, if given, runs after a successful call and
        its number is stored with the span.
        """
        nid = self.name_id(name)
        stack, opened = self._stack, self._open
        names, parents, cmds, outer = self.name, self.parent, self.cmd, self.outer
        starts, ends, values = self.start, self.end, self.value

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            cmds.append(self.cmd_id)
            outer.append(opened[nid] == 0)
            starts.append(0.0)
            ends.append(0.0)
            values.append(0.0)
            opened[nid] += 1
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                opened[nid] -= 1
                starts[i] = t0
                ends[i] = t1
            if value is not None:
                values[i] = value(args, kwargs)
            return result

        return traced

    def _set(self, target, key, new):
        if isinstance(target, dict):
            self._undo.append((target, key, target[key]))
            target[key] = new
        else:
            self._undo.append((target, key, getattr(target, key)))
            setattr(target, key, new)

    def install(self, package) -> None:
        mods = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        by_id = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    by_id[id(obj)] = self.wrap(f"{layer}.{attr}", obj, _VALUES.get(f"{layer}.{attr}"))
        scenario = mods["scenario"]
        by_id[id(scenario._write_atomic)] = self.wrap(
            "scenario.write", scenario._write_atomic, _VALUES["scenario.write"]
        )
        for mod in (package, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in by_id:
                    self._set(mod, attr, by_id[id(obj)])
        beta = mods["score_model"].BetaMixture
        for meth in ("cdf", "pdf", "ppf"):
            self._set(beta, meth, self.wrap(f"score_model.BetaMixture.{meth}", vars(beta)[meth]))
        commands = mods["cli"]._COMMANDS
        for sub, fn in list(commands.items()):
            self._set(commands, sub, self.wrap(f"cli.{sub}", fn))

    def uninstall(self) -> None:
        while self._undo:
            target, key, old = self._undo.pop()
            if isinstance(target, dict):
                target[key] = old
            else:
                setattr(target, key, old)

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.name), parent=np.asarray(self.parent),
            cmd=np.asarray(self.cmd), start=np.asarray(self.start), end=np.asarray(self.end),
            value=np.asarray(self.value),
        )

    def summarize(self, lo: int, hi: int, wall_s: float) -> dict:
        """Per-layer metrics of spans ``[lo, hi)``, one pass traced in ``wall_s``."""
        name = np.asarray(self.name)[lo:hi]
        parent = np.asarray(self.parent)[lo:hi] - lo
        dur = np.asarray(self.end)[lo:hi] - np.asarray(self.start)[lo:hi]
        outer = np.asarray(self.outer)[lo:hi].astype(bool)
        value = np.asarray(self.value)[lo:hi]
        k = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=hi - lo)
        self_s = dur - child
        calls = np.bincount(name, minlength=k)
        by = {
            "calls": calls,
            "self_s": np.bincount(name, weights=self_s, minlength=k),
            "total_s": np.bincount(name, weights=np.where(outer, dur, 0.0), minlength=k),
            "value": np.bincount(name, weights=value, minlength=k),
        }

        def stat(span, kind):
            nid = self._ids.get(span)
            return 0.0 if nid is None else float(by[kind][nid])

        # a score-optimal call that reached a traced callee solved; the rest were cache hits
        has_child = np.bincount(parent[has_parent], minlength=hi - lo) > 0
        solves = float(np.count_nonzero(has_child & (name == self._ids.get("fluid.score_optimal_threshold", -1))))
        sim_id = self._ids.get("simulate.simulate_policy", -1)
        sample_id = self._ids.get("score_model.sample_population", -1)
        under = np.zeros(hi - lo, dtype=bool)  # span has a simulate_policy ancestor
        for i in np.flatnonzero(has_parent):
            p = parent[i]
            under[i] = under[p] or name[p] == sim_id
        cohorts = float(np.count_nonzero(under & (name == sample_id)))

        library = np.array([not n.startswith("cli.") for n in self.names], dtype=bool)
        explained = float(by["self_s"][library].sum())
        out = {}
        for metric, span, kind in PER_LAYER_SPAN_STATS:
            out[metric] = stat(span, kind)
        trials = stat("simulate.simulate_policy", "value")
        out["fluid.score_optimal_threshold.solves"] = solves
        out["fluid.foc_per_solve"] = stat("fluid.first_order_condition", "calls") / solves if solves else 0.0
        out["simulate.trial_evals"] = trials
        out["simulate.cohorts_per_trial_eval"] = cohorts / trials if trials else 0.0
        out["trace.pass_s"] = wall_s
        out["trace.spans"] = float(hi - lo)
        out["trace.unexplained_share"] = max(0.0, 1.0 - explained / wall_s)
        return out


def _file_bytes(args, kwargs):
    return float(os.path.getsize(args[0]))


def _trials(args, kwargs):
    return float(args[0].trials)


_VALUES = {"scenario.write": _file_bytes, "simulate.simulate_policy": _trials}

# (metric, span, stat): stat is calls, self_s, total_s, or value (summed).
PER_LAYER_SPAN_STATS = [
    *((f"cli.{c}.total_s", f"cli.{c}", "total_s")
      for c in ("threshold", "sweep", "simulate", "opauc", "validate", "oracle")),
    ("scenario.load_scenario.total_s", "scenario.load_scenario", "total_s"),
    ("scenario.load_empirical_csv.calls", "scenario.load_empirical_csv", "calls"),
    ("scenario.load_empirical_csv.total_s", "scenario.load_empirical_csv", "total_s"),
    ("scenario.write.total_s", "scenario.write", "total_s"),
    ("scenario.write.bytes", "scenario.write", "value"),
    *((f"score_model.BetaMixture.{m}.{s}", f"score_model.BetaMixture.{m}", s)
      for m in ("cdf", "pdf", "ppf") for s in ("calls", "self_s")),
    ("score_model.conditional_mean_above.calls", "score_model.conditional_mean_above", "calls"),
    ("score_model.conditional_mean_above.total_s", "score_model.conditional_mean_above", "total_s"),
    ("score_model.sample_population.calls", "score_model.sample_population", "calls"),
    ("score_model.sample_population.self_s", "score_model.sample_population", "self_s"),
    ("score_model.tpr_at.calls", "score_model.tpr_at", "calls"),
    ("fluid.first_order_condition.calls", "fluid.first_order_condition", "calls"),
    ("fluid.score_optimal_threshold.calls", "fluid.score_optimal_threshold", "calls"),
    ("fluid.score_optimal_threshold.self_s", "fluid.score_optimal_threshold", "self_s"),
    ("fluid.score_optimal_threshold.total_s", "fluid.score_optimal_threshold", "total_s"),
    ("fluid.critical_baseline.total_s", "fluid.critical_baseline", "total_s"),
    ("fluid.gap_curve.total_s", "fluid.gap_curve", "total_s"),
    ("simulate.flag_top.calls", "simulate.flag_top", "calls"),
    ("simulate.flag_top.self_s", "simulate.flag_top", "self_s"),
    ("simulate.simulate_policy.self_s", "simulate.simulate_policy", "self_s"),
    ("simulate.grid_oracle.total_s", "simulate.grid_oracle", "total_s"),
    ("simulate.exact_objective_random.calls", "simulate.exact_objective_random", "calls"),
    ("simulate.exact_objective_random.total_s", "simulate.exact_objective_random", "total_s"),
    ("simulate.exact_service_rates.self_s", "simulate.exact_service_rates", "self_s"),
    ("metrics.auc_integral.total_s", "metrics.auc_integral", "total_s"),
    ("metrics.auc_rank.total_s", "metrics.auc_rank", "total_s"),
    ("metrics.candidate_report.total_s", "metrics.candidate_report", "total_s"),
]
