"""Print the byte-identity table of the demo outputs, one md5 column per checkout.

    python tools/output_md5.py [--seeds 1,2] [[LABEL=]ROOT ...]

For each checkout ROOT (default: the one holding this script) it runs, with
``ROOT/src`` first on PYTHONPATH and ROOT as the working directory:

* the ten demo CLI runs, ``python -m capthresh <command> --scenario
  demos/scenarios/<scenario>.json``;
* the five demo scripts, ``python demos/0*.py``;

and then hashes every file in ``ROOT/demos/output``.  That directory holds
only what these runs write, so it is emptied first.

With ``--seeds``, it also runs every command of the four benchmark workloads
at each listed seed and hashes its stdout and every file it writes.  The
inputs are built by the ``bench/workloads.py`` next to this script, so every
checkout gets the same ones.  Each checkout runs them in turn in the same
work directory, emptied before each workload, so the paths the commands
print agree between checkouts.

The table goes to stdout as Markdown, one row per stdout or file and one md5
column per checkout; the exit column lists each checkout's exit code where
they differ.  A last line on stderr counts the rows whose md5s or exit
codes differ between checkouts, after a line counting the rows whose run
exited nonzero in some checkout.  The exit code is 1 when any row differs
or any run in any checkout exits nonzero, so a run that fails in every
checkout, or in the only one, fails the check too; it is 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORK = Path(tempfile.gettempdir()) / "capthresh-output-md5"  # one directory, so printed paths agree
CLI_RUNS = [
    ("threshold", "operating_point"),
    ("threshold", "noisy_point"),
    ("simulate", "operating_point"),
    ("oracle", "operating_point"),
    ("sweep", "rho_sweep"),
    ("sweep", "p0_sweep"),
    ("opauc", "selection"),
    ("validate", "validate"),
    ("threshold", "corpus_point"),
    ("sweep", "corpus_sweep"),
]


def _md5(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


def _run(root: Path, argv: list[str]) -> tuple[int, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, *argv], cwd=root, env=env, capture_output=True)
    return done.returncode, _md5(done.stdout)


def hash_checkout(root: Path) -> dict[str, tuple[str, str]]:
    """{row label: (exit code or "", md5)} for one checkout."""
    out_dir = root / "demos" / "output"
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in out_dir.iterdir():
        if path.is_file():
            path.unlink()
    rows = {}
    for cmd, scenario in CLI_RUNS:
        code, md5 = _run(root, ["-m", "capthresh", cmd, "--scenario", f"demos/scenarios/{scenario}.json"])
        rows[f"capthresh {cmd}/{scenario} stdout"] = (str(code), md5)
    for script in sorted((root / "demos").glob("0*.py")):
        code, md5 = _run(root, [f"demos/{script.name}"])
        rows[f"python demos/{script.name} stdout"] = (str(code), md5)
    for path in sorted(out_dir.iterdir()):
        if path.is_file():
            rows[f"demos/output/{path.name}"] = ("", _md5(path.read_bytes()))
    return rows


def _workloads():
    """``bench/workloads.py`` of this checkout, imported without writing bytecode next to it."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(HERE / "bench"))
    import workloads

    return workloads


def hash_workloads(root: Path, seeds: list[int]) -> dict[str, tuple[str, str]]:
    """{row label: (exit code or "", md5)} for every workload command of one checkout."""
    builders = _workloads().BUILDERS
    rows = {}
    for seed in seeds:
        for name, build in builders.items():
            shutil.rmtree(WORK, ignore_errors=True)
            WORK.mkdir(parents=True)
            workload = build(seed, WORK)
            inputs = set(WORK.rglob("*"))
            for cmd in workload.commands:
                code, md5 = _run(root, ["-m", "capthresh", *cmd.argv])
                rows[f"seed {seed} {name} {cmd.label} stdout"] = (str(code), md5)
            for path in sorted(set(WORK.rglob("*")) - inputs):
                if path.is_file():
                    rows[f"seed {seed} {name} {path.relative_to(WORK)}"] = ("", _md5(path.read_bytes()))
    shutil.rmtree(WORK, ignore_errors=True)
    return rows


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=lambda v: [int(s) for s in v.split(",")], default=[],
                        help="comma-separated workload seeds, e.g. 1,2")
    parser.add_argument("roots", nargs="*", metavar="[LABEL=]ROOT")
    args = parser.parse_args(argv)
    labels, tables = [], []
    for spec in args.roots or [str(HERE)]:
        label, sep, root = spec.partition("=")
        if not sep:
            label, root = Path(spec).resolve().name, spec
        labels.append(label)
        root = Path(root).resolve()
        tables.append({**hash_checkout(root), **hash_workloads(root, args.seeds)})
    names = list(dict.fromkeys(name for table in tables for name in table))
    print("| run or file | exit | " + " | ".join(f"md5 at {label}" for label in labels) + " |")
    print("|---|---|" + "---|" * len(labels))
    differ = failed = 0
    for name in names:
        cells = [table.get(name, ("missing", "missing")) for table in tables]
        codes = list(dict.fromkeys(code for code, _ in cells))
        md5s = [md5 for _, md5 in cells]
        differ += len(set(md5s)) > 1 or len(codes) > 1
        failed += any(code not in ("0", "", "missing") for code in codes)
        print(f"| {name} | {'/'.join(codes)} | " + " | ".join(md5s) + " |")
    print(f"{failed} rows whose run exited nonzero", file=sys.stderr)
    print(f"{len(names)} rows, {differ} with differing md5s or exit codes", file=sys.stderr)
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
