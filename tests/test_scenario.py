import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capthresh import fluid as fl
from capthresh import metrics as mt
from capthresh import scenario as sio
from capthresh import score_model as sm

MINIMAL = {
    "version": 1,
    "seed": 3,
    "model": {"kind": "uniform", "predictor": {"kind": "perfect"}},
    "behavioral": {"p0": 0.1, "delta_p": 0.5},
    "population": {"n": 100, "m": 20},
}

FIG5_BLOCK = {
    "version": 1,
    "seed": 11,
    "model": {
        "kind": "beta_mixture",
        "components": [[0.7, 2, 10], [0.3, 8, 2]],
        "predictor": {"kind": "perfect"},
    },
    "behavioral": {"p0": 0.1, "delta_p": 0.5},
    "population": {"n": 1000, "m": 200},
    "sweep": {"axis": "p0", "lo": 0.0, "hi": 0.45, "points": 91, "simulate": False},
    "policies": [
        {"kind": "two_point"},
        {"kind": "capacity_matching"},
        {"kind": "fixed", "tau": 0.8},
    ],
    "beta1": [0.0],
    "trials": 8000,
    "output_prefix": "out/fig5",
}


def _write(tmp_path, doc, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# --- load_scenario -------------------------------------------------------------


def test_minimal_scenario_defaults(tmp_path):
    scn = sio.load_scenario(_write(tmp_path, MINIMAL))
    assert scn.trials == 8000
    assert scn.policies == (fl.TwoPointOptimal(),)
    assert scn.beta1 == (0.0,)
    assert scn.oracle_grid == 21
    assert isinstance(scn.model.build(), sm.Analytic)
    assert sio.load_scenario(_write(tmp_path, MINIMAL, "again.json")) == scn
    with pytest.raises(dataclasses.FrozenInstanceError):
        scn.seed = 4


def test_overrides_are_checked_as_file_values(tmp_path):
    path = _write(tmp_path, dict(MINIMAL, trials=0, beta1=[]))
    flags = {"seed": 9, "trials": 12, "beta1": [1], "output_prefix": "run"}
    scn = sio.load_scenario(path, flags)
    assert (scn.seed, scn.trials, scn.beta1, scn.output_prefix) == (9, 12, (1.0,), "run")
    assert scn == sio.load_scenario(_write(tmp_path, dict(MINIMAL, **flags), "flags.json"))
    for key, value, message in (
        ("seed", -3, "scenario.seed: must be >= 0"),
        ("trials", 0, "scenario.trials: must be >= 1"),
        ("beta1", [float("nan")], "beta1\\[0\\]: must be finite"),
        ("output_prefix", 5, "scenario.output_prefix: expected str"),
    ):
        with pytest.raises(sio.ScenarioError, match=f"^{message}$"):
            sio.load_scenario(path, dict(flags, **{key: value}))


def test_grid_oracle_policy_default_grid(tmp_path):
    doc = dict(MINIMAL, policies=[{"kind": "grid_oracle"}])
    scn = sio.load_scenario(_write(tmp_path, doc))
    assert scn.policies == (fl.GridOracle(2001),)


# Labels as sweep CSVs and simulate stdout print them; a new kind needs no entry.
POLICY_LABELS = {
    "fixed": "fixed(0.8)",
    "capacity_matching": "capacity_matching",
    "score_optimal": "score_optimal",
    "two_point": "two_point",
    "grid_oracle": "grid_oracle(2001)",
}
REQUIRED_POLICY_KEYS = {"fixed": {"tau": 0.8}}


POLICY_CLASSES = {cls.kind: cls for cls in fl.ThresholdPolicy.__subclasses__()}


@pytest.mark.parametrize("kind", sorted(POLICY_CLASSES))
def test_policy_kind_parses_resolves_and_labels(tmp_path, kind):
    cls = POLICY_CLASSES[kind]
    home = f"policy kind '{kind}' lives in one place, class {cls.__name__} in capthresh/fluid.py"
    # FIG5_BLOCK sits at the demo operating point
    doc = dict(FIG5_BLOCK, policies=[{"kind": kind, **REQUIRED_POLICY_KEYS.get(kind, {})}])
    scn = sio.load_scenario(_write(tmp_path, doc))
    (policy,) = scn.policies
    assert type(policy) is cls, f"{home}: the parser built {policy!r}"
    tau = policy.threshold(scn.m / scn.n, scn.model.build(), scn.behavioral)
    assert 0.0 <= tau <= 1.0, f"{home}: its threshold() gave tau={tau}"
    label = policy.label
    assert label.startswith(kind), f"{home}: its label {label!r} must start with the kind"
    assert label == POLICY_LABELS.get(kind, label), f"{home}: its label changed to {label!r}"


def test_behavioral_invariant_names_field(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["behavioral"]["delta_p"] = 1.1
    with pytest.raises(sio.ScenarioError, match=r"behavioral\.delta_p"):
        sio.load_scenario(_write(tmp_path, doc))


@pytest.mark.parametrize(
    "field, value, path",
    [
        ("n", sio.MAX_POPULATION + 1, r"population\.n: must be <= "),
        ("trials", sio.MAX_TRIALS + 1, r"scenario\.trials: must be <= "),
        ("populations", sio.MAX_POPULATIONS + 1, r"validate\.populations: must be <= "),
        ("n_values", [100, sio.MAX_POPULATION + 1], r"validate\.n_values: each value must be <= "),
        ("oracle_grid", sio.MAX_GRID_POINTS + 1, r"scenario\.oracle_grid: must be <= "),
        ("points", sio.MAX_GRID_POINTS + 1, r"sweep\.points: must be <= "),
    ],
)
def test_resource_caps(tmp_path, field, value, path):
    # loading allocates nothing of the capped sizes, so both sides of a cap are cheap
    def doc_with(v):
        doc = json.loads(json.dumps(MINIMAL))
        doc["validate"] = {"n_values": [100], "populations": 10}
        if field == "n":
            doc["population"] = {"n": v, "m": 20}
        elif field in ("trials", "oracle_grid"):
            doc[field] = v
        elif field == "points":
            doc["sweep"] = {"axis": "p0", "lo": 0.0, "hi": 0.45, "points": v}
        else:
            doc["validate"][field] = v
        return doc

    with pytest.raises(sio.ScenarioError, match=path):
        sio.load_scenario(_write(tmp_path, doc_with(value)))
    at_cap = [100, sio.MAX_POPULATION] if field == "n_values" else value - 1
    sio.load_scenario(_write(tmp_path, doc_with(at_cap)))


def test_resource_caps_admit_demo_scenarios():
    from pathlib import Path

    scenarios = Path(__file__).resolve().parents[1] / "demos" / "scenarios"
    for path in sorted(scenarios.glob("*.json")):
        scn = sio.load_scenario(path)
        assert scn.n <= sio.MAX_POPULATION and scn.trials <= sio.MAX_TRIALS


@pytest.mark.parametrize(
    "change, path",
    [
        (
            {"model": {"kind": "beta_mixture", "components": [[True, 2, 10]]}},
            r"model\.components\[0\]",
        ),
        ({"mu": {"kind": "atoms", "atoms": [[0.2, True]]}}, r"mu\.atoms\[0\]"),
        ({"policies": [{"kind": "fixed", "tau": True}]}, r"policies\[0\]\.tau: expected float"),
        ({"population": {"n": True, "m": 1}}, r"population\.n: expected int"),
    ],
)
def test_bool_is_never_a_number(tmp_path, change, path):
    with pytest.raises(sio.ScenarioError, match=path):
        sio.load_scenario(_write(tmp_path, dict(MINIMAL, **change)))


def test_unknown_keys_rejected(tmp_path):
    doc = dict(MINIMAL, extra=1)
    with pytest.raises(sio.ScenarioError, match="unknown key"):
        sio.load_scenario(_write(tmp_path, doc))
    doc = json.loads(json.dumps(MINIMAL))
    doc["model"]["bogus"] = True
    with pytest.raises(sio.ScenarioError, match="unknown key"):
        sio.load_scenario(_write(tmp_path, doc))


def test_seed_is_mandatory(tmp_path):
    doc = {k: v for k, v in MINIMAL.items() if k != "seed"}
    with pytest.raises(sio.ScenarioError, match="seed"):
        sio.load_scenario(_write(tmp_path, doc))


def test_sweep_axis_exclusivity(tmp_path):
    doc = json.loads(json.dumps(FIG5_BLOCK))
    doc["sweep"]["axis"] = "rho"
    doc["sweep"]["lo"] = 0.05
    with pytest.raises(sio.ScenarioError, match=r"population\.m"):
        sio.load_scenario(_write(tmp_path, doc))
    doc2 = {k: v for k, v in MINIMAL.items()}
    doc2["population"] = {"n": 100}
    with pytest.raises(sio.ScenarioError, match=r"population\.m"):
        sio.load_scenario(_write(tmp_path, doc2))


def test_p0_sweep_bounds_name_their_own_field(tmp_path):
    doc = json.loads(json.dumps(FIG5_BLOCK))
    doc["sweep"].update(lo=-0.1, hi=0.3)
    with pytest.raises(sio.ScenarioError) as info:
        sio.load_scenario(_write(tmp_path, doc))
    assert str(info.value) == "sweep.lo: baseline request probabilities must be nonnegative"
    doc["sweep"].update(lo=0.0, hi=0.6)
    with pytest.raises(sio.ScenarioError) as info:
        sio.load_scenario(_write(tmp_path, doc))
    assert str(info.value) == "sweep.hi: p0 grid must satisfy p0 + delta_p <= 1"


def test_parse_error_carries_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "version": 1,\n  oops\n}', encoding="utf-8")
    with pytest.raises(sio.ScenarioError, match="line 3"):
        sio.load_scenario(path)


def test_missing_corpus_path(tmp_path):
    doc = dict(MINIMAL, model={"kind": "empirical_joint", "path": "nowhere.csv"})
    with pytest.raises(sio.ScenarioError, match="file not found"):
        sio.load_scenario(_write(tmp_path, doc))


def test_mu_and_candidates_blocks(tmp_path):
    doc = dict(
        MINIMAL,
        mu={"kind": "uniform_ratio", "lo": 0.05, "hi": 0.15},
        candidates=[
            {"name": "a", "model": {"kind": "uniform", "predictor": {"kind": "perfect"}}},
            {
                "name": "b",
                "model": {
                    "kind": "uniform",
                    "predictor": {"kind": "gaussian_clipped", "sigma": 0.1},
                },
            },
        ],
    )
    scn = sio.load_scenario(_write(tmp_path, doc))
    assert isinstance(scn.mu, mt.UniformRatio)
    names = [name for name, _ in scn.candidates]
    assert names == ["a", "b"]


# --- empirical CSV --------------------------------------------------------------


def test_load_labeled_two_rows(tmp_path):
    path = tmp_path / "lab.csv"
    path.write_text("score,outcome\n0.9,1\n0.2,0\n", encoding="utf-8")
    model = sio.load_empirical_csv(path, "labeled")
    assert isinstance(model, sm.EmpiricalLabeled)
    assert sm.mean_true_score(model) == pytest.approx(0.5)


def test_load_labeled_bad_outcome_cites_row(tmp_path):
    rows = ["score,outcome"] + ["0.5,1"] * 5 + ["0.5,2"] + ["0.5,0"]
    path = tmp_path / "lab.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(sio.ScenarioError, match="row 7"):
        sio.load_empirical_csv(path, "labeled")


def test_load_joint_bad_header(tmp_path):
    path = tmp_path / "j.csv"
    path.write_text("score,true\n0.5,0.5\n", encoding="utf-8")
    with pytest.raises(sio.ScenarioError, match="bad header"):
        sio.load_empirical_csv(path, "joint")


def test_load_non_utf8_corpus_names_the_file(tmp_path):
    # regression: a bare UnicodeDecodeError escaped, which the CLI reports as exit 2
    path = tmp_path / "bad.csv"
    path.write_bytes(b"score,outcome\n0.5,1\n0.\xff,0\n")
    for mode in ("labeled", "joint"):
        with pytest.raises(sio.ScenarioError, match=r"^bad\.csv: not UTF-8 text"):
            sio.load_empirical_csv(path, mode)


def test_load_empty_file(tmp_path):
    path = tmp_path / "e.csv"
    for text in ("score,outcome\n", "score,outcome", "score,outcome\r\n \r\n\t", "score,outcome\n\x0c\n"):
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a body without data must not reach loadtxt, which warns
            with pytest.raises(sio.ScenarioError, match="no data rows"):
                sio.load_empirical_csv(path, "labeled")


def _corpus(tmp_path, mode, body):
    """The corpus file of ``body`` under its header line; a body that starts
    with the header is the whole file."""
    header = "score,true_score" if mode == "joint" else "score,outcome"
    path = tmp_path / f"{mode}.csv"
    text = body if body.startswith(header) else header + "\n" + body
    path.write_bytes(text.encode("utf-8"))
    return path


def _scan_reference(path):
    """Both columns by a per-row ``float()`` pass over the non-blank lines."""
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:] if line.strip()]
    return np.array([float(s) for s, _ in rows]), np.array([float(v) for _, v in rows])


def _columns(model):
    return model.predicted, model.true if isinstance(model, sm.EmpiricalJoint) else model.outcomes


@pytest.mark.parametrize(
    "mode, body, message",
    [
        ("joint", "0.5,0.5\n0.4\n", "row 3: expected 2 fields"),
        ("joint", "0.5,0.5,0.5\n", "row 2: expected 2 fields"),
        ("labeled", "0.5,1\n0.5,0,\n", "row 3: expected 2 fields"),
        ("joint", "0.5,0.5\n0.5,abc\n", "row 3: values must be numeric"),
        ("joint", "nan,0.5\n", "row 2: score nan out of \\[0, 1\\]"),
        ("joint", "0.5,0.5\n0.5,inf\n", "row 3: true_score inf out of \\[0, 1\\]"),
        ("labeled", "1.5,1\n", "row 2: score 1.5 out of \\[0, 1\\]"),
        ("joint", "0.5,-0.25\n", "row 2: true_score -0.25 out of \\[0, 1\\]"),
        ("labeled", "0.5,1\n0.5,0.5\n", "row 3: outcome 0.5 not in \\{0, 1\\}"),
        ("labeled", "0.5,1\n\n  \n0.5,2\n", "row 5: outcome 2 not in \\{0, 1\\}"),  # blank lines count
        ("labeled", "\n  \n", "no data rows"),
        # str.splitlines breaks lines at \x0c, \x85 and \u2028, where loadtxt reads whitespace
        ("joint", "0.5\x0c,1\n", "row 2: expected 2 fields"),
        ("joint", "0.5,\u20281\n", "row 2: values must be numeric"),
        ("joint", "0.5,0.5\x850.5,abc\n", "row 3: values must be numeric"),
        ("labeled", " \x0c \n\x85\n", "no data rows"),
        ("labeled", "score,outcome\r\n0.5,1\r\n0.5,2", "row 3: outcome 2 not in \\{0, 1\\}"),
        ("labeled", "score,outcome\r0.5,1\r\r0.5,2\r", "row 4: outcome 2 not in \\{0, 1\\}"),
        ("labeled", "0.5,1\n0.5,2", "row 3: outcome 2 not in \\{0, 1\\}"),
    ],
)
def test_load_rejects_bad_rows_by_file_line(tmp_path, mode, body, message):
    path = _corpus(tmp_path, mode, body)
    with pytest.raises(sio.ScenarioError, match=f"^{mode}.csv: {message}$"):
        sio.load_empirical_csv(path, mode)


@pytest.mark.parametrize(
    "body, scores, seconds",
    [
        ("0.5,1\n\n   \n0.25,0\n", [0.5, 0.25], [1.0, 0.0]),  # blank lines are skipped
        ("0.5,1\r\n0.25,0\r\n", [0.5, 0.25], [1.0, 0.0]),
        (" 0.5 , 1\n\t0.25,0 \n", [0.5, 0.25], [1.0, 0.0]),
        ("-0,-0\n", [-0.0], [-0.0]),
        ("0.1_5,1\n", [0.15], [1.0]),  # float() accepts digit separators
        # str.splitlines breaks lines at these characters too
        ("\x0c0.5,1\n0.25,0\n", [0.5, 0.25], [1.0, 0.0]),
        ("0.5,1\x0c0.25,0\n", [0.5, 0.25], [1.0, 0.0]),
        ("0.5,1\x0b0.25,0\x1c0.75,1\x1d\x1e", [0.5, 0.25, 0.75], [1.0, 0.0, 1.0]),
        ("0.5,1\x850.25,0\u20280.75,1\u2029", [0.5, 0.25, 0.75], [1.0, 0.0, 1.0]),
        ("0.5,1\n\xa00.25\xa0,0\n", [0.5, 0.25], [1.0, 0.0]),  # no line break, only whitespace
        ("0.5,1\r0.25,0\r", [0.5, 0.25], [1.0, 0.0]),
        ("score,outcome\r\n0.5,1\r\n0.25,0", [0.5, 0.25], [1.0, 0.0]),
        ("score,outcome\r0.5,1\r0.25,0\r", [0.5, 0.25], [1.0, 0.0]),
        ("0.5,1\n0.25,0", [0.5, 0.25], [1.0, 0.0]),
    ],
)
def test_load_accepts_what_float_accepts(tmp_path, body, scores, seconds):
    model = sio.load_empirical_csv(_corpus(tmp_path, "labeled", body), "labeled")
    for arr, want in zip(_columns(model), (scores, seconds)):
        assert arr.tobytes() == np.array(want).tobytes()  # bitwise, so -0.0 stays -0.0


@pytest.mark.parametrize("mode", ["joint", "labeled"])
def test_load_bitwise_equals_per_row_float(tmp_path, mode):
    rng = np.random.default_rng(21)
    n = 20_000
    scores = rng.random(n)
    seconds = rng.random(n) if mode == "joint" else (rng.random(n) < scores).astype(float)
    formats = ("{:.6f}", "{!r}", "{:.17g}", "{:.3e}", "{:.2f}")
    rows = [
        f"{formats[i % 5].format(s)},{formats[(i // 5) % 5].format(v) if mode == 'joint' else int(v)}"
        for i, (s, v) in enumerate(zip(scores.tolist(), seconds.tolist()))
    ]
    path = _corpus(tmp_path, mode, "\n".join(rows) + "\n")
    model = sio.load_empirical_csv(path, mode)
    for got, want in zip(_columns(model), _scan_reference(path)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", ["joint", "labeled"])
def test_scenario_rejects_a_corpus_without_positive_mass(tmp_path, mode):
    path = _corpus(tmp_path, mode, "0.2,0\n0.9,-0\n")
    assert sm.mean_true_score(sio.load_empirical_csv(path, mode)) == 0.0  # the reader accepts it
    doc = dict(MINIMAL, model={"kind": f"empirical_{mode}", "path": path.name})
    spec = sio.load_scenario(_write(tmp_path, doc)).model
    column = "true_score" if mode == "joint" else "outcome"
    with pytest.raises(sio.ScenarioError, match=f"^{mode}.csv: every {column} is 0"):
        spec.build()


def test_scenario_tie_seed_reaches_the_sort(tmp_path):
    rng = np.random.default_rng(4)
    pred = np.round(rng.random(300), 1)  # ties everywhere
    signed_zeros = np.where(rng.random(50) < 0.5, -0.0, 0.0)
    signed_zeros[::5] = 0.75
    corpora = (
        pred, np.full(40, 0.5), np.array([0.3]), signed_zeros,
        np.clip(np.round(rng.random(500) * 1.6 - 0.3, 3), 0.0, 1.0),  # atoms at 0 and 1
        np.round(rng.random(2000), 2), rng.permutation(pred),  # tied rows in another order
    )
    for pred in corpora:
        (tmp_path / "c.csv").write_text(
            "score,outcome\n" + "".join(f"{s},{int(s >= 0.3)}\n" for s in pred), encoding="utf-8"
        )
        for tie_seed in (0, 9):
            doc = dict(MINIMAL, model={"kind": "empirical_labeled", "path": "c.csv", "tie_seed": tie_seed})
            model = sio.load_scenario(_write(tmp_path, doc)).model.build()
            assert model.tie_seed == tie_seed and model.predicted.tobytes() == pred.tobytes()
            tie = np.random.default_rng(tie_seed).permutation(pred.size)
            np.testing.assert_array_equal(sm._engine(model).desc_order, np.lexsort((tie, -pred)))


def test_load_large_labeled_matches_auc_oracle(tmp_path):
    rng = np.random.default_rng(8)
    r = rng.random(10**5)
    y = (rng.random(10**5) < r).astype(int)
    path = tmp_path / "big.csv"
    path.write_text(
        "score,outcome\n" + "\n".join(f"{s:.6f},{o}" for s, o in zip(r, y)) + "\n",
        encoding="utf-8",
    )
    model = sio.load_empirical_csv(path, "labeled")
    assert mt.auc_rank(model.predicted, model.outcomes) == pytest.approx(5 / 6, abs=0.01)


# --- sweep CSV -------------------------------------------------------------------


def _row(x, policy="two_point"):
    return sio.SweepRow(
        axis_value=x, policy=policy, tau=0.5, fluid_w=1.25,
        sim_mean=None, sim_se=None, gap=0.0, rel_gap=0.0,
    )


def test_write_sweep_csv_empty(tmp_path):
    path = tmp_path / "t.csv"
    sio.write_sweep_csv(sio.SweepTable(rows=()), path)
    assert path.read_text() == sio.CSV_HEADER + "\n"


def test_write_sweep_csv_one_row_exact_bytes(tmp_path):
    path = tmp_path / "t.csv"
    sio.write_sweep_csv(sio.SweepTable(rows=(_row(0.25),)), path)
    assert path.read_bytes() == (
        b"axis,policy,tau,fluid_w,sim_mean,sim_se,gap,rel_gap\n"
        b"0.25,two_point,0.5,1.25,,,0,0\n"
    )


@given(
    xs=st.lists(
        st.floats(0.01, 0.99, allow_nan=False).map(lambda v: round(v, 6)),
        min_size=1, max_size=8, unique=True,
    )
)
@settings(max_examples=30, deadline=None)
def test_sweep_csv_round_trip_semantics(tmp_path_factory, xs):
    tmp = tmp_path_factory.mktemp("csv")
    rows = tuple(_row(x) for x in xs)
    path = tmp / "t.csv"
    sio.write_sweep_csv(sio.SweepTable(rows=rows), path)
    back = [float(line.split(",")[0]) for line in path.read_text().splitlines()[1:]]
    assert back == sorted(xs)


def test_sweep_rows_sorted(tmp_path):
    table = sio.SweepTable(rows=(_row(0.9), _row(0.1, "zzz"), _row(0.1, "aaa")))
    assert [(r.axis_value, r.policy) for r in table.rows] == [
        (0.1, "aaa"), (0.1, "zzz"), (0.9, "two_point"),
    ]


# --- SVG ------------------------------------------------------------------------


def test_svg_polyline_per_policy(tmp_path):
    rows = tuple(_row(x, p) for x in (0.1, 0.2, 0.3) for p in ("a", "b"))
    path = tmp_path / "plot.svg"
    sio.render_sweep_svg(sio.SweepTable(rows=rows), "rho", path)
    text = path.read_text()
    assert text.count("<polyline") == 6  # 2 policies x 3 panels
    assert "rho" in text


def test_svg_deterministic(tmp_path):
    rows = tuple(_row(x) for x in np.linspace(0.05, 0.6, 12))
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    sio.render_sweep_svg(sio.SweepTable(rows=rows), "rho", a)
    sio.render_sweep_svg(sio.SweepTable(rows=rows), "rho", b)
    assert a.read_bytes() == b.read_bytes()


def test_svg_two_rows_exact_text(tmp_path):
    rows = (
        _row(0.1, "a"),
        dataclasses.replace(_row(0.3, "a"), tau=0.75, fluid_w=1.5, gap=0.125, rel_gap=0.25),
    )
    path = tmp_path / "plot.svg"
    sio.render_sweep_svg(sio.SweepTable(rows=rows), "rho", path)
    assert path.read_bytes().decode("utf-8").split("\n") == [
        '<svg xmlns="http://www.w3.org/2000/svg" width="1112" height="392" viewBox="0 0 1112 392">',
        '<rect width="100%" height="100%" fill="white"/>',
        '<rect x="48" y="48" width="320" height="260" fill="none" stroke="#444444" stroke-width="1"/>',
        '<text x="208.00" y="38" text-anchor="middle" font-family="monospace" font-size="13">threshold tau</text>',
        '<text x="208.00" y="338" text-anchor="middle" font-family="monospace" font-size="12">rho</text>',
        '<text x="42" y="60" text-anchor="end" font-family="monospace" font-size="10">0.7625</text>',
        '<text x="42" y="308" text-anchor="end" font-family="monospace" font-size="10">0.4875</text>',
        '<polyline points="48.00,296.18 368.00,59.82" fill="none" stroke="#1f77b4" stroke-width="1.5"/>',
        '<rect x="396" y="48" width="320" height="260" fill="none" stroke="#444444" stroke-width="1"/>',
        '<text x="556.00" y="38" text-anchor="middle" font-family="monospace" font-size="13">fluid objective</text>',
        '<text x="556.00" y="338" text-anchor="middle" font-family="monospace" font-size="12">rho</text>',
        '<text x="390" y="60" text-anchor="end" font-family="monospace" font-size="10">1.512</text>',
        '<text x="390" y="308" text-anchor="end" font-family="monospace" font-size="10">1.238</text>',
        '<polyline points="396.00,296.18 716.00,59.82" fill="none" stroke="#1f77b4" stroke-width="1.5"/>',
        '<rect x="744" y="48" width="320" height="260" fill="none" stroke="#444444" stroke-width="1"/>',
        '<text x="904.00" y="38" text-anchor="middle" font-family="monospace" font-size="13">relative gap</text>',
        '<text x="904.00" y="338" text-anchor="middle" font-family="monospace" font-size="12">rho</text>',
        '<text x="738" y="60" text-anchor="end" font-family="monospace" font-size="10">0.2625</text>',
        '<text x="738" y="308" text-anchor="end" font-family="monospace" font-size="10">-0.0125</text>',
        '<polyline points="744.00,296.18 1064.00,59.82" fill="none" stroke="#1f77b4" stroke-width="1.5"/>',
        '<line x1="48" y1="354" x2="72" y2="354" stroke="#1f77b4" stroke-width="2"/>',
        '<text x="78" y="358" font-family="monospace" font-size="12">a</text>',
        '</svg>',
        "",
    ]


def test_svg_empty_table_rejected(tmp_path):
    with pytest.raises(sio.ScenarioError):
        sio.render_sweep_svg(sio.SweepTable(rows=()), "rho", tmp_path / "x.svg")


# --- selection report -------------------------------------------------------------


def test_write_selection_report(tmp_path):
    report = mt.SelectionReport(
        candidates=(
            mt.CandidateReport(
                name="a", auc=0.8, opauc=0.3, table=((0.1, 1.0, 0.7, 0.5, 0.3),)
            ),
            mt.CandidateReport(
                name="b", auc=0.9, opauc=0.2, table=((0.1, 1.0, 0.6, 0.4, 0.2),)
            ),
        ),
        winner_by_auc="b",
        winner_by_opauc="a",
    )
    csv_path, json_path = sio.write_selection_report(report, tmp_path / "run")
    assert csv_path.name == "run_opauc.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "candidate,rho,weight,tau_star,tpr,integrand"
    assert len(lines) == 3
    summary = json.loads(json_path.read_text())
    assert summary["winner_by_opauc"] == "a"
