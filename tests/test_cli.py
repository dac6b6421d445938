import json
import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from capthresh import cli
from capthresh import simulate as sim

DEMO_SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"


def _scenario(tmp_path, name="scn.json", **overrides):
    doc = {
        "version": 1,
        "seed": 7,
        "model": {"kind": "uniform", "predictor": {"kind": "perfect"}},
        "behavioral": {"p0": 0.1, "delta_p": 0.5},
        "population": {"n": 400, "m": 80},
        "policies": [{"kind": "two_point"}, {"kind": "fixed", "tau": 0.8}],
        "trials": 200,
        "oracle_grid": 11,
        "output_prefix": str(tmp_path / "out" / "run"),
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def _parse_kv(line):
    return dict(kv.split("=", 1) for kv in line.split())


def test_threshold_values(tmp_path, capsys):
    scn = _scenario(tmp_path)
    code, out = _run(capsys, "threshold", "--scenario", str(scn))
    assert code == 0
    kv = _parse_kv(out.splitlines()[0])
    assert float(kv["tau_c"]) == pytest.approx(0.8)
    assert float(kv["tau_score"]) == pytest.approx(1.2 - math.sqrt(0.24), abs=1e-5)
    assert float(kv["tau_star"]) == pytest.approx(1.2 - math.sqrt(0.24), abs=1e-5)
    assert float(kv["p0_critical"]) == pytest.approx(0.070156, abs=1e-4)
    assert kv["regime"] == "cannibalization-bound"


def test_threshold_utilization_regime(tmp_path, capsys):
    scn = _scenario(tmp_path, population={"n": 400, "m": 160})  # rho = 0.4
    code, out = _run(capsys, "threshold", "--scenario", str(scn))
    kv = _parse_kv(out.splitlines()[0])
    assert code == 0
    assert kv["regime"] == "utilization-bound"
    assert float(kv["tau_star"]) == pytest.approx(0.4)


@pytest.mark.parametrize("m", [400, 800])  # rho = 1 and rho = 2
def test_threshold_at_full_capacity_prints_a_finite_critical_baseline(tmp_path, capsys, m):
    scn = _scenario(tmp_path, population={"n": 400, "m": m})
    code, out = _run(capsys, "threshold", "--scenario", str(scn))
    assert code == 0
    kv = _parse_kv(out.splitlines()[0])
    assert float(kv["tau_c"]) == 0.0
    assert float(kv["p0_critical"]) == 0.5  # 1 - delta_p: the score-optimal threshold never binds
    assert kv["regime"] == "utilization-bound"


def test_simulate_deterministic_and_worker_invariant(tmp_path, capsys):
    scn = _scenario(tmp_path)
    code1, out1 = _run(capsys, "simulate", "--scenario", str(scn))
    code2, out2 = _run(capsys, "simulate", "--scenario", str(scn))
    code3, out3 = _run(capsys, "simulate", "--scenario", str(scn), "--workers", "3")
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3
    kv = _parse_kv(out1.splitlines()[0])
    assert kv["policy"] == "two_point"
    assert int(kv["trials"]) == 200


def test_simulate_trials_override(tmp_path, capsys):
    scn = _scenario(tmp_path)
    _, out = _run(capsys, "simulate", "--scenario", str(scn), "--trials", "77")
    assert all(int(_parse_kv(l)["trials"]) == 77 for l in out.splitlines())


def test_sweep_writes_deterministic_files(tmp_path, capsys):
    scn = _scenario(
        tmp_path,
        population={"n": 400},
        sweep={"axis": "rho", "lo": 0.05, "hi": 0.5, "points": 10},
    )
    code, _ = _run(capsys, "sweep", "--scenario", str(scn))
    assert code == 0
    csv1 = (tmp_path / "out" / "run_sweep.csv").read_bytes()
    svg1 = (tmp_path / "out" / "run_sweep.svg").read_bytes()
    code, _ = _run(capsys, "sweep", "--scenario", str(scn))
    assert code == 0
    assert (tmp_path / "out" / "run_sweep.csv").read_bytes() == csv1
    assert (tmp_path / "out" / "run_sweep.svg").read_bytes() == svg1
    header = csv1.decode().splitlines()[0]
    assert header == "axis,policy,tau,fluid_w,sim_mean,sim_se,gap,rel_gap"


def test_sweep_two_point_rows_zero_gap(tmp_path, capsys):
    scn = _scenario(
        tmp_path,
        population={"n": 400},
        sweep={"axis": "rho", "lo": 0.05, "hi": 0.5, "points": 10},
    )
    _run(capsys, "sweep", "--scenario", str(scn))
    rows = (tmp_path / "out" / "run_sweep.csv").read_text().splitlines()[1:]
    tp = [r.split(",") for r in rows if r.split(",")[1] == "two_point"]
    assert tp and all(float(r[-1]) == 0.0 for r in tp)


def test_opauc_report(tmp_path, capsys):
    scn = _scenario(
        tmp_path,
        mu={"kind": "atoms", "atoms": [[0.2, 1.0]]},
        candidates=[
            {"name": "sharp", "model": {"kind": "uniform", "predictor": {"kind": "perfect"}}},
            {
                "name": "noisy",
                "model": {
                    "kind": "uniform",
                    "predictor": {"kind": "gaussian_clipped", "sigma": 0.2},
                },
            },
        ],
    )
    code, out = _run(capsys, "opauc", "--scenario", str(scn))
    assert code == 0
    summary = json.loads((tmp_path / "out" / "run_opauc.json").read_text())
    assert summary["winner_by_auc"] == "sharp"
    assert summary["winner_by_opauc"] == "sharp"
    by_name = {c["name"]: c for c in summary["candidates"]}
    assert by_name["sharp"]["auc"] == pytest.approx(5 / 6, abs=1e-3)
    assert by_name["sharp"]["opauc"] > by_name["noisy"]["opauc"]


def test_opauc_without_candidates_reports_the_model(tmp_path, capsys):
    # no candidates block: the scenario's model is the only candidate, named "model"
    scn = _scenario(tmp_path, mu={"kind": "atoms", "atoms": [[0.2, 0.5], [0.4, 0.5]]})
    code, out = _run(capsys, "opauc", "--scenario", str(scn))
    assert code == 0
    csv_path, json_path = tmp_path / "out" / "run_opauc.csv", tmp_path / "out" / "run_opauc.json"
    assert out.splitlines() == [
        "candidate=model auc=0.8333332499999999 opauc=0.40202041028867286",
        f"winner_by_auc=model winner_by_opauc=model csv={csv_path} json={json_path}",
    ]
    assert csv_path.read_text(encoding="utf-8").splitlines() == [
        "candidate,rho,weight,tau_star,tpr,integrand",
        "model,0.2,0.5,0.710102048,0.495755082,0.284040821",
        "model,0.4,0.5,0.4,0.84,0.52",
    ]
    assert json.loads(json_path.read_text(encoding="utf-8")) == {
        "candidates": [{"auc": 0.8333332499999999, "name": "model", "opauc": 0.40202041028867286}],
        "winner_by_auc": "model",
        "winner_by_opauc": "model",
    }


def test_opauc_small_corpus_candidate_exits_0(tmp_path, capsys):
    # regression: a candidate corpus with fewer rows than the 2001-point TPR grid exited 2
    r = np.random.default_rng(4).random(1000)
    (tmp_path / "small.csv").write_text(
        "score,true_score\n" + "".join(f"{v:.17g},{v:.17g}\n" for v in r), encoding="utf-8"
    )
    scn = _scenario(
        tmp_path,
        mu={"kind": "uniform_ratio", "lo": 0.05, "hi": 0.15},
        candidates=[
            {"name": "corpus", "model": {"kind": "empirical_joint", "path": "small.csv"}},
            {"name": "sharp", "model": {"kind": "uniform", "predictor": {"kind": "perfect"}}},
        ],
    )
    code, _ = _run(capsys, "opauc", "--scenario", str(scn))
    assert code == 0
    summary = json.loads((tmp_path / "out" / "run_opauc.json").read_text())
    by_name = {c["name"]: c for c in summary["candidates"]}
    assert by_name["corpus"]["auc"] == pytest.approx(by_name["sharp"]["auc"], abs=0.02)


@pytest.mark.parametrize("name", ["a,b", "line\nbreak", "my model", "x=1", ""])
def test_opauc_candidate_name_that_breaks_the_outputs_exits_1(tmp_path, capsys, name):
    # regression: each of these names exited 0 with a split CSV row or stdout line
    uniform = {"kind": "uniform", "predictor": {"kind": "perfect"}}
    scn = _scenario(
        tmp_path,
        mu={"kind": "atoms", "atoms": [[0.2, 1.0]]},
        candidates=[{"name": "ok", "model": uniform}, {"name": name, "model": uniform}],
    )
    assert cli.main(["opauc", "--scenario", str(scn)]) == 1
    assert "candidates[1].name: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_opauc_zero_capacity_ratio_exits_1(tmp_path, capsys):
    # regression: mu.lo = 0 passed the parser, then opauc exited 2 with "rho must be positive"
    doc = json.loads((DEMO_SCENARIOS / "operating_point.json").read_text(encoding="utf-8"))
    doc.update(mu={"kind": "uniform_ratio", "lo": 0, "hi": 0.2}, output_prefix=str(tmp_path / "op"))
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["opauc", "--scenario", str(scn)]) == 1
    assert "mu.lo: need 0 < lo < hi" in capsys.readouterr().err


def test_validate_convergence_table(tmp_path, capsys):
    scn = _scenario(tmp_path, validate={"n_values": [100, 400, 1600], "populations": 200})
    code, out = _run(capsys, "validate", "--scenario", str(scn))
    assert code == 0
    csv_path = tmp_path / "out" / "run_validate.csv"
    assert out == f"csv={csv_path} rel_error_final=0.00045514715494978004\n"
    rows = csv_path.read_bytes().decode("utf-8").split("\n")
    assert rows == [
        "n,method,fluid_w,estimate,abs_error,rel_error",
        "100,exact,14.202041,14.0052051,0.196835965,0.0138596956",
        "400,exact,56.8081641,56.7281431,0.0800210557,0.00140861894",
        "1600,exact,227.232656,227.129232,0.103424297,0.000455147155",
        "",
    ]
    rels = [float(r.split(",")[-1]) for r in rows[1:-1]]
    assert rels[0] > rels[1] > rels[2]
    assert rels[2] < 0.01


def test_validate_computes_exact_rates_once_per_input(tmp_path, capsys, monkeypatch):
    # Three cohort sizes give three distinct (k, n, m, params) inputs; each
    # needs two request-count convolutions of two binomial pmfs.
    calls = []
    binom_pmf = sim._binom_pmf

    def counting_binom_pmf(k, p):
        calls.append((k, p))
        return binom_pmf(k, p)

    monkeypatch.setattr(sim, "_binom_pmf", counting_binom_pmf)
    sim._service_rates.cache_clear()
    scn = _scenario(tmp_path, validate={"n_values": [100, 400, 1600], "populations": 10})
    code, _ = _run(capsys, "validate", "--scenario", str(scn))
    assert code == 0
    assert len(calls) <= 12


def test_plan_commands_leave_scipy_stats_unloaded(tmp_path, cli_env):
    # validate's exact oracles take scipy.stats' binomial pmf ufunc, not scipy.stats
    scn = _scenario(tmp_path, validate={"n_values": [100, 400], "populations": 5})
    script = textwrap.dedent(f"""
        import sys
        import capthresh
        from capthresh import cli
        assert cli.execute(["threshold", "--scenario", {str(DEMO_SCENARIOS / "operating_point.json")!r}]) == 0
        assert cli.execute(["sweep", "--scenario", {str(DEMO_SCENARIOS / "rho_sweep.json")!r},
                            "--out", {str(tmp_path / "rho")!r}]) == 0
        assert cli.execute(["validate", "--scenario", {str(scn)!r}]) == 0
        print("scipy.stats loaded:", "scipy.stats" in sys.modules)
    """)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, env=cli_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "scipy.stats loaded: False"


def test_oracle_output(tmp_path, capsys):
    scn = _scenario(tmp_path)
    code, out = _run(capsys, "oracle", "--scenario", str(scn))
    assert code == 0
    kv = _parse_kv(out.splitlines()[0])
    assert abs(float(kv["tau_best"]) - 0.7101) <= 0.1
    assert int(kv["grid"]) == 11


def test_exit_code_validation_error(tmp_path, capsys):
    scn = _scenario(tmp_path, behavioral={"p0": 0.9, "delta_p": 0.5})
    code, _ = _run(capsys, "threshold", "--scenario", str(scn))
    assert code == 1


def test_exit_code_missing_scenario(tmp_path, capsys):
    code, _ = _run(capsys, "threshold", "--scenario", str(tmp_path / "nope.json"))
    assert code == 1


def test_exit_code_usage():
    with pytest.raises(SystemExit) as exc:
        cli.main(["threshold"])  # missing --scenario
    assert exc.value.code == 64


def test_workers_below_one_is_usage_error(tmp_path):
    scn = _scenario(tmp_path)
    for workers in ("0", "-2"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--scenario", str(scn), "--workers", workers])
        assert exc.value.code == 64


def test_parser_carries_nothing_between_calls(tmp_path, capsys):
    scn = _scenario(tmp_path, trials=50)
    argv = ["simulate", "--scenario", str(scn)]
    _, fresh = _run(capsys, *argv)
    _, seeded = _run(capsys, *argv, "--seed", "5")
    code, again = _run(capsys, *argv)
    assert code == 0 and again == fresh != seeded  # the scenario's seed is back
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--bogus"])
    assert exc.value.code == 64
    capsys.readouterr()
    code, after_error = _run(capsys, *argv)
    assert code == 0 and after_error == fresh
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--workers", "0"])
    assert exc.value.code == 64


def test_nan_p0_rejected_with_field_path(tmp_path, capsys):
    scn = _scenario(tmp_path, behavioral={"p0": float("nan"), "delta_p": 0.5})
    assert "NaN" in scn.read_text(encoding="utf-8")
    for command in ("threshold", "simulate"):
        code = cli.main([command, "--scenario", str(scn)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "behavioral.p0: must be finite" in captured.err


def test_infinite_beta_shape_rejected(tmp_path, capsys):
    model = {"kind": "beta_mixture", "components": [[1.0, float("inf"), 2.0]]}
    scn = _scenario(tmp_path, model=model)
    assert "Infinity" in scn.read_text(encoding="utf-8")
    code = cli.main(["threshold", "--scenario", str(scn)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "model.components: " in captured.err
    assert "finite" in captured.err


def _noisy_mixture(sigma):
    return {
        "kind": "beta_mixture", "components": [[0.7, 2, 10], [0.3, 8, 2]],
        "predictor": {"kind": "gaussian_clipped", "sigma": sigma},
    }


@pytest.mark.parametrize(
    "command, overrides, field",
    [
        ("threshold", {"model": _noisy_mixture(1e300)}, "model"),
        ("opauc", {"candidates": [{"name": "flat", "model": _noisy_mixture(1e300)}]}, "candidates[0].model"),
    ],
)
def test_information_free_predictor_exits_1(tmp_path, capsys, command, overrides, field):
    # at sigma = 1e300 every node reads Phi = 1/2, so the efficacy is flat in tau
    scn = _scenario(tmp_path, mu={"kind": "atoms", "atoms": [[0.2, 1.0]]}, **overrides)
    code = cli.main([command, "--scenario", str(scn)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"{field}.predictor.sigma: must be <= 1000.0" in captured.err


@pytest.mark.parametrize("sigma", [1e-12, 1e-9, 1000.0])
def test_noisy_threshold_runs_at_the_ends_of_the_sigma_range(tmp_path, capsys, sigma):
    scn = _scenario(tmp_path, model=_noisy_mixture(sigma))
    code, out = _run(capsys, "threshold", "--scenario", str(scn))
    assert code == 0
    kv = _parse_kv(out.splitlines()[0])
    assert all(math.isfinite(float(kv[k])) for k in ("tau_score", "tau_star", "p0_critical"))


def test_resource_caps_exit_1_with_field_path(tmp_path, capsys):
    from capthresh.scenario import MAX_POPULATION, MAX_TRIALS

    scn = _scenario(tmp_path, population={"n": MAX_POPULATION + 1, "m": 80})
    assert cli.main(["simulate", "--scenario", str(scn)]) == 1
    assert "population.n: must be <=" in capsys.readouterr().err
    scn = _scenario(tmp_path)
    assert cli.main(["simulate", "--scenario", str(scn), "--trials", str(MAX_TRIALS + 1)]) == 1
    assert "scenario.trials: must be <=" in capsys.readouterr().err
    # regression: a huge grid loaded and then failed allocating per-tau arrays (exit 2)
    scn = _scenario(tmp_path, oracle_grid=10**12)
    assert cli.main(["oracle", "--scenario", str(scn)]) == 1
    assert "scenario.oracle_grid: must be <=" in capsys.readouterr().err
    scn = _scenario(tmp_path, sweep={"axis": "p0", "lo": 0.0, "hi": 0.4, "points": 10**12})
    assert cli.main(["sweep", "--scenario", str(scn)]) == 1
    assert "sweep.points: must be <=" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"sweep": 3}, "scenario.sweep: expected an object"),
        (
            {"model": {"kind": "uniform", "predictor": 3}},
            "model.predictor: expected an object",
        ),
    ],
)
def test_non_object_block_exits_1_with_field_path(tmp_path, capsys, overrides, message):
    scn = _scenario(tmp_path, **overrides)
    for command in ("threshold", "simulate"):
        assert cli.main([command, "--scenario", str(scn)]) == 1
        assert message in capsys.readouterr().err


def test_negative_seed_exits_1(tmp_path, capsys):
    scn = _scenario(tmp_path, seed=-1)
    for command in ("threshold", "simulate"):
        assert cli.main([command, "--scenario", str(scn)]) == 1
        assert "scenario.seed: must be >= 0" in capsys.readouterr().err
    scn = _scenario(tmp_path)
    assert cli.main(["simulate", "--scenario", str(scn), "--seed", "-3"]) == 1
    assert "scenario.seed: must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["threshold", "simulate", "oracle"])
def test_zero_capacity_exits_1(tmp_path, capsys, command):
    scn = _scenario(tmp_path, population={"n": 400, "m": 0})
    assert cli.main([command, "--scenario", str(scn)]) == 1
    assert "population.m: must be >= 1" in capsys.readouterr().err


def test_rho_sweep_simulating_zero_capacity_exits_1(tmp_path, capsys):
    # round(0.001 * 400) = 0 slots at the first grid point
    sweep = {"axis": "rho", "lo": 0.001, "hi": 0.5, "points": 3, "simulate": True}
    scn = _scenario(tmp_path, population={"n": 400}, sweep=sweep)
    assert cli.main(["sweep", "--scenario", str(scn)]) == 1
    assert "sweep.lo: rho=0.001 leaves no capacity" in capsys.readouterr().err


def test_rho_sweep_simulating_infinite_capacity_exits_1(tmp_path, capsys):
    # 1e306 * 1000 slots overflows to infinity at the last grid point
    sweep = {"axis": "rho", "lo": 0.1, "hi": 1e306, "points": 3, "simulate": True}
    scn = _scenario(tmp_path, population={"n": 1000}, sweep=sweep)
    assert cli.main(["sweep", "--scenario", str(scn)]) == 1
    assert "sweep.hi: rho=1e+306 gives an infinite capacity" in capsys.readouterr().err


def test_oracle_with_two_beta1_entries_exits_1(tmp_path, capsys):
    scn = _scenario(tmp_path, beta1=[0.0, 1.0])
    assert cli.main(["oracle", "--scenario", str(scn)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "beta1: this subcommand runs one allocation mix, got 2" in captured.err


def test_simulating_sweep_with_two_beta1_entries_exits_1(tmp_path, capsys):
    sweep = {"axis": "rho", "lo": 0.1, "hi": 0.5, "points": 3, "simulate": True}
    scn = _scenario(tmp_path, population={"n": 400}, sweep=sweep, beta1=[0.0, 1.0])
    assert cli.main(["sweep", "--scenario", str(scn)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "beta1: this subcommand runs one allocation mix, got 2" in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "m, n_values, commands, message",
    [
        # round(0.2 * 2) = 0; only validate uses the n values, so threshold still runs
        (
            80, [2], {"validate": 1, "threshold": 0},
            "validate.n_values: n=2 at rho=0.2 leaves no capacity",
        ),
        # a bool is not n = 1
        (
            240, [True], {"validate": 1, "threshold": 1},
            "validate.n_values: expected positive integers",
        ),
    ],
)
def test_validate_n_values_exit_1(tmp_path, capsys, m, n_values, commands, message):
    scn = _scenario(
        tmp_path, population={"n": 400, "m": m}, validate={"n_values": n_values, "populations": 5}
    )
    for command, code in commands.items():
        assert cli.main([command, "--scenario", str(scn)]) == code
        assert (message in capsys.readouterr().err) == (code == 1)


def test_int_spelled_float_prints_as_float(tmp_path, capsys):
    outs = []
    for tau in (1, 1.0):
        scn = _scenario(tmp_path, policies=[{"kind": "fixed", "tau": tau}], trials=20)
        code, out = _run(capsys, "simulate", "--scenario", str(scn))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert " tau=1.0 " in outs[0]


def test_exit_code_runtime_error(tmp_path, capsys):
    # a labeled corpus without negatives passes the loader, and its AUC is undefined
    (tmp_path / "all_positive.csv").write_text("score,outcome\n0.2,1\n0.7,1\n0.9,1\n", encoding="utf-8")
    model = {"kind": "empirical_labeled", "path": "all_positive.csv"}
    scn = _scenario(tmp_path, model=model, mu={"kind": "atoms", "atoms": [[0.2, 1.0]]})
    assert cli.main(["opauc", "--scenario", str(scn)]) == 2
    assert "capthresh: error: AUC undefined" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, policies",
    [
        ("threshold", None),
        ("sweep", [{"kind": "fixed", "tau": 0.8}]),
        ("opauc", None),
        ("validate", None),
        ("simulate", None),
        ("simulate", [{"kind": "fixed", "tau": 0.8}, {"kind": "score_optimal"}]),
    ],
)
def test_zero_nudge_exits_1_where_the_score_optimal_threshold_is_needed(tmp_path, capsys, command, policies):
    # regression: each exited 2 with "nudge has no effect; score-optimal undefined"
    extra = {"policies": policies} if policies else {}
    if command == "sweep":
        extra.update(population={"n": 400}, sweep={"axis": "rho", "lo": 0.1, "hi": 0.5, "points": 3})
    scn = _scenario(
        tmp_path, behavioral={"p0": 0.2, "delta_p": 0.0}, mu={"kind": "atoms", "atoms": [[0.2, 1.0]]},
        validate={"n_values": [20], "populations": 5}, **extra,
    )
    assert cli.main([command, "--scenario", str(scn)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "scenario error: behavioral.delta_p: must be > 0" in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, policies",
    [("oracle", None), ("simulate", [{"kind": "fixed", "tau": 0.8}, {"kind": "capacity_matching"}])],
)
def test_zero_nudge_runs_where_no_score_optimal_threshold_is_needed(tmp_path, capsys, command, policies):
    extra = {"policies": policies} if policies else {}
    scn = _scenario(tmp_path, behavioral={"p0": 0.2, "delta_p": 0.0}, trials=20, **extra)
    code, out = _run(capsys, command, "--scenario", str(scn))
    assert code == 0 and out


@pytest.mark.parametrize(
    "mode, rows",
    [("labeled", "score,outcome\n0.2,0\n0.9,0\n"), ("joint", "score,true_score\n0.2,0\n0.9,0.0\n")],
    ids=["labeled", "joint"],
)
def test_corpus_without_positive_mass_exits_1(tmp_path, capsys, mode, rows):
    # regression: every subcommand planned and simulated zero value and exited 0
    (tmp_path / "zeros.csv").write_text(rows, encoding="utf-8")
    column = rows.split(",")[1].split("\n")[0]
    model = {"kind": f"empirical_{mode}", "path": "zeros.csv"}
    point = _scenario(tmp_path, model=model, mu={"kind": "atoms", "atoms": [[0.2, 1.0]]}, name="point.json")
    sweep = {"axis": "rho", "lo": 0.1, "hi": 0.5, "points": 3}
    rhos = _scenario(tmp_path, model=model, population={"n": 400}, sweep=sweep, name="rho.json")
    for command in ("threshold", "simulate", "oracle", "validate", "opauc", "sweep"):
        scn = rhos if command == "sweep" else point
        assert cli.main([command, "--scenario", str(scn)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"scenario error: zeros.csv: every {column} is 0" in captured.err


def test_flag_replaces_a_bad_file_value_unchecked(tmp_path, capsys):
    # the flag is laid over the document before the check, so trials = 0 is never seen
    scn = _scenario(tmp_path, trials=0)
    assert cli.main(["simulate", "--scenario", str(scn)]) == 1
    assert "scenario.trials: must be >= 1" in capsys.readouterr().err
    code, out = _run(capsys, "simulate", "--scenario", str(scn), "--trials", "5")
    assert code == 0 and " trials=5 " in out


def test_seed_flag_needs_a_seed_in_the_file(tmp_path, capsys):
    scn = _scenario(tmp_path)
    doc = json.loads(scn.read_text(encoding="utf-8"))
    del doc["seed"]
    scn.write_text(json.dumps(doc), encoding="utf-8")
    for extra in ([], ["--seed", "5"]):
        assert cli.main(["simulate", "--scenario", str(scn), *extra]) == 1
        assert "scenario: missing required key 'seed'" in capsys.readouterr().err


def test_console_entry_point(tmp_path, cli_env):
    scn = _scenario(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "capthresh", "threshold", "--scenario", str(scn)],
        capture_output=True, text=True, env=cli_env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("rho=")


def test_partial_outputs_never_left_behind(tmp_path, capsys):
    # the output "directory" is a regular file: writing fails, no .tmp litter
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way")
    scn = _scenario(
        tmp_path,
        population={"n": 400},
        sweep={"axis": "rho", "lo": 0.05, "hi": 0.5, "points": 4},
        output_prefix=str(blocker / "run"),
    )
    code, _ = _run(capsys, "sweep", "--scenario", str(scn))
    assert code == 1
    assert blocker.is_file()
    assert not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())
