#!/usr/bin/env python3
"""capthresh benchmark: one workload per call, run in-process through the CLI.

    python3 bench/run.py --workload plan --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``plan``, ``oracle``,
``cohort`` and ``corpus``.  The run builds the workload's inputs from
``--seed`` into ``.bench_work/`` under the checkout, calls
``capthresh.cli.execute`` with stdout captured, one pass over the workload's
commands after another, for about ``--seconds`` seconds (at least two
passes), and checks every call's output.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of five
fresh interpreters, each timed until ``import capthresh`` and one warm-up
call have finished), ``pass_ref`` (median pass time in units of the reference
probe of ``probe.py``, which cancels the drift of a shared machine's speed)
and ``peak_rss_mb``.  The raw median pass wall time is printed as ``pass_s``.
``--trace 1`` spends half the time on untraced passes and half on passes
traced by ``spans.py``, and prints the per-layer metrics.  Either way the
last stdout line is one JSON object: ``correct``, ``attempted`` (CLI calls),
``failed`` (calls that exited nonzero or failed a check) and ``metrics``.

The run imports capthresh only from ``src/`` next to this directory and exits
with code 2, printing no result, when that is missing.  Everything runs in one
process with ``--workers 1``; BLAS thread pools are pinned to one thread.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_RUNS = 5
UNEXPLAINED_MAX = 0.10  # share of a traced pass allowed outside library spans

# Fills module-level caches (Gauss-Legendre nodes, scipy's lazy set-up).  Kept as
# source so the set-up interpreters and this process run the same lines.
WARM_UP = (
    "model = ct.Analytic(ct.BetaMixture(((0.7, 2.0, 10.0), (0.3, 8.0, 2.0))), ct.Perfect())\n"
    "ct.conditional_mean_above(model, 0.5)\n"
)
SETUP_CODE = (
    "import sys\nsys.path.insert(0, sys.argv[1])\nimport capthresh as ct\n"
    + WARM_UP
    + "print('ready', flush=True)\n"
)

END_TO_END_UNITS = {"setup_s": "s", "pass_ref": "ref", "peak_rss_mb": "MB"}
THROUGHPUT = {
    "plan": ("plan_points_per_s", "points/s"),
    "trial": ("trial_evals_per_s", "evals/s"),
    "exact": ("exact_cohorts_per_s", "cohorts/s"),
}


@dataclass
class Result:
    rc: int
    stdout: str
    stderr: str
    seconds: float


@dataclass
class Pass:
    wall: float  # seconds inside the CLI calls
    ref: float  # each call's seconds over the mean of the probes around it, summed
    results: list
    spans: tuple = (0, 0)  # span index range when traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "capthresh" / "__init__.py").is_file():
        print(f"bench: no capthresh sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import capthresh
    from capthresh import cli

    if not Path(capthresh.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: capthresh imported from {capthresh.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import probe
    import spans
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    exec(WARM_UP, {"ct": capthresh})
    work = WORK / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.BUILDERS[args.workload](args.seed, work)

    setup = [] if args.trace else time_setup(SETUP_RUNS)
    budget = args.seconds / 2 if args.trace else args.seconds
    probes = []

    def speed_probe():
        probes.append(probe.probe())
        return probes[-1]

    plain = run_passes(cli, workload, speed_probe, budget, 1 if args.trace else 2)
    traced = []
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(capthresh)
        try:
            traced = run_passes(cli, workload, speed_probe, budget, 1, tracer)
        finally:
            tracer.uninstall()
        tracer.save(work / "spans.npz")

    everything = plain + traced
    failures, work_done = check_passes(workloads, workload, everything)
    attempted = sum(len(p.results) for p in everything)
    failed = 0
    for cmd_label, found in failures:
        if found:
            failed += 1
            print(f"FAILED {cmd_label}: {'; '.join(found)}", file=sys.stderr)

    pass_s = statistics.median(p.wall for p in plain)
    rates = throughput(workload, plain, work_done)
    trace_ok = True
    if args.trace:
        layers = per_layer(tracer, traced)
        layers["trace.overhead_s"] = statistics.median(p.wall for p in traced) - pass_s
        layers["failed_ops"] = failed / attempted
        for name, _ in THROUGHPUT.values():
            layers[name] = rates.get(name, 0.0)
        if layers["trace.unexplained_share"] > UNEXPLAINED_MAX:
            trace_ok = False
            print(f"FAILED trace: {layers['trace.unexplained_share']:.1%} of a pass is outside "
                  f"library spans (limit {UNEXPLAINED_MAX:.0%})", file=sys.stderr)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layers.items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "pass_ref": statistics.median(p.ref for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"pass_times_s={[round(p.wall, 3) for p in plain]} "
          f"pass_refs={[round(p.ref, 1) for p in plain]} "
          f"traced_pass_times_s={[round(p.wall, 3) for p in traced]} "
          f"setup_times_s={[round(t, 3) for t in setup]} "
          f"probe_ms={statistics.median(probes) * 1e3:.3f}".replace(", ", ","))
    print("env " + json.dumps(environment(capthresh), sort_keys=True))
    for name, m in metrics.items():
        print(f"metric {name}={m['value']!r} {m['unit']}")
    if not args.trace:
        print(f"metric pass_s={pass_s!r} s")
        print(f"metric failed_ops={failed / attempted!r} ratio")
        for name, value in rates.items():
            print(f"metric {name}={value!r} {dict(THROUGHPUT.values())[name]}")
    print(json.dumps({
        "correct": failed == 0 and trace_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def time_setup(runs: int) -> list:
    """Seconds from spawning an interpreter until capthresh is imported and warm."""
    samples = []
    for _ in range(runs):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        ) as proc:
            ready = proc.stdout.readline()
            t1 = perf_counter()
            _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or ready.strip() != "ready":
            raise RuntimeError(f"set-up run failed: {err.strip()}")
        samples.append(t1 - t0)
    return samples


def run_passes(cli, workload, probe, budget_s: float, min_passes: int, tracer=None) -> list:
    """Passes until the budget is spent; stop early if the next would overrun by half."""
    passes = []
    t_start = perf_counter()
    while len(passes) < min_passes or perf_counter() - t_start + 0.5 * passes[-1].wall < budget_s:
        gc.collect()
        passes.append(run_pass(cli, workload, probe, tracer))
    return passes


def run_pass(cli, workload, probe, tracer=None) -> Pass:
    traced = tracer is not None
    lo = len(tracer) if traced else 0
    results = []
    wall = ref = 0.0
    speed = probe()
    for cmd in workload.commands:
        if traced:
            tracer.cmd_id += 1
        out, err = io.StringIO(), io.StringIO()
        c0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.execute(cmd.argv)
            except SystemExit as e:  # argparse usage errors
                rc = e.code if isinstance(e.code, int) else 64
        seconds = perf_counter() - c0
        results.append(Result(rc, out.getvalue(), err.getvalue(), seconds))
        before, speed = speed, probe()
        wall += seconds
        ref += seconds / (0.5 * (before + speed))
    return Pass(wall, ref, results, (lo, len(tracer) if traced else 0))


def check_passes(workloads, workload, passes) -> tuple:
    """(label, problems) per call, and the work each command did in the first pass.

    Output files are rewritten by every pass with identical bytes, so checks
    that read them see the last pass's files.
    """
    failures, work_done = [], {}
    first = {c.label: r.stdout for c, r in zip(workload.commands, passes[0].results)}
    for p in passes:
        outputs = {}
        for cmd, res in zip(workload.commands, p.results):
            problems = []
            if res.rc != 0:
                problems.append(f"exit {res.rc}: {res.stderr.strip()[-300:]}")
            else:
                try:
                    lines = workloads.parse_stdout(res.stdout)
                    outputs[cmd.label] = lines
                    problems += workloads.generic_problems(lines)
                    if not problems:
                        problems += cmd.check(lines, cmd, outputs)
                    if not problems:
                        work_done.setdefault(cmd.label, workloads.work_done(cmd, lines))
                except Exception as e:  # noqa: BLE001 - a malformed output is a failed call
                    problems.append(f"check raised {e!r}")
            if res.stdout != first[cmd.label]:
                problems.append("stdout differs from the first pass")
            failures.append((cmd.label, problems))
    return failures, work_done


def throughput(workload, passes, work_done) -> dict:
    """Work per second of the commands doing it, from per-command median times."""
    rates = {}
    for kind, (name, _) in THROUGHPUT.items():
        idx = [i for i, c in enumerate(workload.commands) if c.kind == kind]
        if not idx or any(workload.commands[i].label not in work_done for i in idx):
            continue
        seconds = sum(statistics.median(p.results[i].seconds for p in passes) for i in idx)
        rates[name] = sum(work_done[workload.commands[i].label] for i in idx) / seconds
    return rates


def per_layer(tracer, traced) -> dict:
    """Median over traced passes of each per-layer metric."""
    rows = [tracer.summarize(*p.spans, p.wall) for p in traced]
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def per_layer_unit(name: str) -> str:
    rate_units = dict(THROUGHPUT.values())
    if name in rate_units:
        return rate_units[name]
    if name.endswith((".calls", ".solves")) or name in ("simulate.trial_evals", "trace.spans"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "ratio"


def environment(capthresh) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(ROOT),
        "capthresh": capthresh.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }


def git_sha(root: Path) -> str:
    """HEAD's sha read from .git without running git; "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
