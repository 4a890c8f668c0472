import json
import math
import os

import numpy as np
import pytest

from extinctd.cli import (
    _csv_text,
    config_from_dict,
    dumps_report,
    emit_config,
    main,
    parse_config,
    run_experiment,
)
from extinctd.errors import MissingField, NonFiniteParameter, ParseError, UnknownKey, UnknownModel
from extinctd.integrators import simulate, simulate_lanes
from extinctd.process_core import RngStream, StateVector, make_bundle, replica_streams


def sis_config(out, experiment="criterion", **extra):
    cfg = {
        "model": {"name": "sis", "params": {"adjacency": [[0, 1], [1, 0]],
                                            "beta": 0.3, "delta": 1.0}},
        "experiment": experiment,
        "sim": {"dt": 0.001, "t_final": 20.0, "floor_epsilon": 1e-10},
        "replicas": 2,
        "seed": 42,
        "output": str(out),
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_parse_minimal_config(tmp_path):
    path = write_config(tmp_path, sis_config(tmp_path / "out"))
    cfg = parse_config(path)
    assert cfg.model_name == "sis" and cfg.experiment == "criterion"
    assert cfg.seed == 42 and cfg.replicas == 2


def test_parse_rejects_misspelled_key(tmp_path):
    raw = sis_config(tmp_path / "out")
    raw["replcas"] = 4
    del raw["replicas"]
    with pytest.raises(UnknownKey):
        config_from_dict(raw)


def test_parse_rejects_the_unread_tol_option(tmp_path):
    raw = sis_config(tmp_path / "out")
    raw["options"] = {"tol": 0.05}  # no runner reads a tolerance
    with pytest.raises(UnknownKey, match="tol"):
        config_from_dict(raw)


def test_parse_requires_seed(tmp_path):
    raw = sis_config(tmp_path / "out")
    del raw["seed"]
    with pytest.raises(MissingField):
        config_from_dict(raw)


def test_parse_unknown_model():
    with pytest.raises(UnknownModel):
        config_from_dict({"model": {"name": "tokamak"}, "experiment": "slope",
                          "sim": {"dt": 0.1, "t_final": 1.0}, "seed": 1,
                          "output": "x"})


def test_parse_error_carries_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"model": \n  oops}')
    with pytest.raises(ParseError) as err:
        parse_config(str(path))
    assert err.value.line == 2


def test_roundtrip(tmp_path):
    raw = sis_config(tmp_path / "out", ics=[[0.4, 0.5]],
                     options={"window": 0.5})
    cfg = config_from_dict(raw)
    assert config_from_dict(emit_config(cfg)) == cfg


def test_criterion_experiment_report(tmp_path):
    cfg = config_from_dict(sis_config(tmp_path / "out"))
    report = run_experiment(cfg)
    assert report["index"] == pytest.approx(0.7)
    assert report["extinct"] is True
    on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
    assert on_disk["index"] == pytest.approx(0.7)


def test_slope_experiment_linear(tmp_path):
    raw = {
        "model": {"name": "linear", "params": {"A": [[-1.0, 0.0], [0.0, -3.0]]}},
        "experiment": "slope",
        "sim": {"dt": 0.001, "t_final": 20.0, "floor_epsilon": 1e-12},
        "replicas": 2,
        "seed": 3,
        "ics": [[0.7, 0.7]],
        "output": str(tmp_path / "out"),
    }
    report = run_experiment(config_from_dict(raw))
    assert report["slope"] == pytest.approx(1.0, rel=0.05)
    lines = (tmp_path / "out" / "exponents.csv").read_text().splitlines()
    assert lines[0] == "label,method,point,ci_low,ci_high"
    assert len(lines) == 4  # 2 replicas + mean


@pytest.mark.parametrize("sigma", [None, [[0.2, 0.0], [0.0, 0.1]]])
def test_slope_experiment_simulates_a_noise_free_path_once_per_ic(monkeypatch, tmp_path,
                                                                  sigma):
    # every replica of a noise-free model follows one path, so it runs once
    # per ic and each replica's row keeps the slope its own run would give
    import extinctd.cli as cli
    from extinctd.exponents import trajectory_slope

    params = {"A": [[-1.0, 0.0], [0.0, -3.0]], **({} if sigma is None else {"Sigma": sigma})}
    raw = {"model": {"name": "linear", "params": params}, "experiment": "slope",
           "sim": {"dt": 0.001, "t_final": 2.0}, "replicas": 3, "seed": 7,
           "ics": [[0.7, 0.7], [0.2, -0.5]], "output": str(tmp_path / "out")}
    calls = []
    monkeypatch.setattr(cli, "simulate", lambda *a: calls.append(a[1]) or simulate(*a))
    cfg = config_from_dict(raw)
    run_experiment(cfg)
    assert len(calls) == (2 if sigma is None else 6)
    b, sim = make_bundle("linear", params), cfg.sim_config()
    want = [trajectory_slope(simulate(b.model, ic, sim, rng), b.suite.V).point
            for _, ic, rng in replica_streams(cfg.state_vectors(None), 3, 7)]
    rows = (tmp_path / "out" / "exponents.csv").read_text().splitlines()[1:7]
    assert [float(r.split(",")[2]) for r in rows] == want
    assert len(set(want)) == (2 if sigma is None else 6)


def test_simulate_experiment_writes_trajectories(tmp_path):
    cfg = config_from_dict(sis_config(tmp_path / "out", experiment="simulate",
                                      ics=[[0.4, 0.5]]))
    report = run_experiment(cfg)
    assert len(report["replicas"]) == 2
    header = (tmp_path / "out" / "trajectories.csv").read_text().splitlines()[0]
    assert header == "replica_id,t,x_0,x_1,regime"


def test_simulate_experiment_follows_the_replica_rule(tmp_path):
    # replica k = i * replicas + r starts from ics[i] on RngStream(seed, k),
    # and the rows of each replica are simulate()'s path bit for bit, regime
    # jump points included
    two_regime = {"adjacency": [[0, 1], [1, 0]], "beta": [0.2, 0.5],
                  "delta": [1.2, 0.8], "Q": [[-1.0, 1.0], [2.0, -2.0]]}
    for name, params, ics in (
            ("one", None, [[0.4, 0.5], [0.2, 0.7]]),
            ("two", two_regime, [{"x": [0.4, 0.5], "regime": 0},
                                 {"x": [0.2, 0.7], "regime": 1}])):
        raw = sis_config(tmp_path / name, experiment="simulate",
                         sim={"dt": 0.001, "t_final": 2.0}, ics=ics)
        if params is not None:
            raw["model"]["params"] = params
        cfg = config_from_dict(raw)
        run_experiment(cfg)
        data = np.loadtxt(tmp_path / name / "trajectories.csv", delimiter=",",
                          skiprows=1, ndmin=2)
        assert sorted(set(data[:, 0])) == [0, 1, 2, 3]
        bundle = make_bundle(cfg.model_name, cfg.model_params)
        starts = cfg.state_vectors(None)
        for rid in range(4):
            traj = simulate(bundle.model, starts[rid // cfg.replicas], cfg.sim_config(),
                            RngStream(raw["seed"], rid))
            rows = data[data[:, 0] == rid]
            np.testing.assert_array_equal(rows[:, 1], traj.times)
            np.testing.assert_array_equal(rows[:, 2:4], traj.states)
            np.testing.assert_array_equal(
                rows[:, 4], -1 if traj.regimes is None else traj.regimes)
        inserted = len(data) - 4 * 2001
        assert inserted == 0 if params is None else inserted > 0


def _fmt_float_per_value(x) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(float(x), ".17g")


def csv_text_per_value(header, rows) -> str:
    """The row-by-row CSV writer that the column writer replaced: the oracle."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join([_fmt_float_per_value(v) if isinstance(v, (float, np.floating))
                               else str(v) for v in row]))
    return "\n".join(lines) + "\n"


WRITER_COLUMNS = {
    "int64": np.array([0, -1, 7, 2**62, -(2**63), 2**63 - 1, 12, 3]),
    "python_int": [10**30, -(10**25), 0, 1, 2**64, 5, -7, 2**63],
    "float64": np.array([-0.0, 5e-324, 1e308, 0.1, 1 / 3, -1.5e-300, 2.0**60, -2.5e-8]),
    "float_list": [0.1, 0.2, 0.30000000000000004, 1e-7, 123456789.123, -0.0, 1e22, 1e16],
    "float32": np.array([0.1, -2.5, 3e38, 1e-45, 0.0, 7.0, -0.0, 1e-8], dtype=np.float32),
    "str": ["a", "mean", "alpha0=0.05", "", "replica_12", "x y", "-1", "trajectory_slope"],
    "bool": [True, False, True, True, False, False, True, False],
}


def test_column_writer_gives_the_bytes_of_the_per_value_writer():
    header = list(WRITER_COLUMNS)
    columns = list(WRITER_COLUMNS.values())
    text = _csv_text(header, columns)
    assert text == csv_text_per_value(header, zip(*columns))
    assert text.splitlines()[1].split(",")[:4] == ["0", str(10**30), "-0", "0.10000000000000001"]
    # tuples of a few rows, transposed, as the exponents writers pass them
    rows = [("replica_0", "trajectory_slope", 0.1, 0.1, 0.1), ("mean", "m", 1e308, -0.0, 5e-324)]
    assert _csv_text(list("abcde"), zip(*rows)) == csv_text_per_value(list("abcde"), rows)
    assert _csv_text(["t"], [np.empty(0)]) == csv_text_per_value(["t"], []) == "t\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_column_writer_rejects_non_finite_floats_like_the_per_value_writer(bad):
    for column in ("float64", "float_list", "float32"):
        columns = dict(WRITER_COLUMNS)
        values = np.array(columns[column], dtype=np.asarray(columns[column]).dtype)
        values[5] = bad
        columns[column] = values
        with pytest.raises(ValueError) as expected:  # the runners passed tolist() values
            csv_text_per_value(list(columns), zip(*[np.asarray(c).tolist()
                                                    for c in columns.values()]))
        with pytest.raises(ValueError) as got:
            _csv_text(list(columns), columns.values())
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("regimes", [1, 2])
def test_simulate_writes_the_rows_of_the_per_value_writer(regimes, tmp_path):
    # without regimes the last column is -1 on every row, with them the
    # regime of each point; the bytes are those of the per-value rows
    raw = sis_config(tmp_path / "out", experiment="simulate", sim={"dt": 0.001, "t_final": 1.0},
                     ics=[[0.4, 0.5], [0.2, 0.7]])
    if regimes == 2:
        raw["model"]["params"] = {"adjacency": [[0, 1], [1, 0]], "beta": [0.2, 0.5],
                                  "delta": [1.2, 0.8], "Q": [[-3.0, 3.0], [4.0, -4.0]]}
        raw["ics"] = [{"x": [0.4, 0.5], "regime": 0}, {"x": [0.2, 0.7], "regime": 1}]
    cfg = config_from_dict(raw)
    run_experiment(cfg)
    bundle = make_bundle(cfg.model_name, cfg.model_params)
    replicas = replica_streams(cfg.state_vectors(None), cfg.replicas, cfg.seed)
    rows = []
    for (rid, _, _), traj in zip(replicas, simulate_lanes(bundle.model, replicas,
                                                          cfg.sim_config())):
        marks = [-1] * len(traj.times) if traj.regimes is None else traj.regimes.tolist()
        rows += [[rid, t, *x, reg] for t, x, reg
                 in zip(traj.times.tolist(), traj.states.tolist(), marks)]
    text = (tmp_path / "out" / "trajectories.csv").read_text()
    expected = csv_text_per_value(["replica_id", "t", "x_0", "x_1", "regime"], rows)
    # equal line by line, so that a failure shows the first differing line,
    # not pytest's (very slow) diff of two 4000-line texts
    lines = list(zip(text.splitlines(), expected.splitlines()))
    assert next((pair for pair in lines if pair[0] != pair[1]), None) is None
    assert text.count("\n") == expected.count("\n") == len(lines) and text[-1] == "\n"
    last = {line.rsplit(",", 1)[1] for line in text.splitlines()[1:]}
    assert last == ({"-1"} if regimes == 1 else {"0", "1"})


NON_FINITE_PARAMS = {
    "lorenz-eta": ("lorenz", {"gamma": 1.0, "z_star": 0.5, "eta": math.nan}, "eta"),
    "lorenz-z_star": ("lorenz", {"z_star": math.nan}, "z_star"),
    "lorenz-alpha0": ("lorenz", {"alpha0": math.inf}, "alpha0"),
    "sis-beta": ("sis", {"adjacency": [[0, 1], [1, 0]], "beta": math.nan, "delta": 1.0}, "beta"),
    "sis-Q": ("sis", {"adjacency": [[0, 1], [1, 0]], "beta": [0.2, 0.5], "delta": [1.2, 0.8],
                      "Q": [[-1.0, 1.0], [-math.inf, 2.0]]}, "Q"),
    "eco-discrete-r": ("eco-discrete", {"r": math.nan, "sigma": 0.2}, "r"),
    "kolmogorov-sigma": ("kolmogorov", {"r": 0.5, "sigma": -math.inf}, "sigma"),
    "linear-A": ("linear", {"A": [[-1.0, 0.0], [0.0, math.nan]]}, "A"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_PARAMS))
def test_config_rejects_non_finite_model_parameters(case, tmp_path, capsys):
    name, params, bad = NON_FINITE_PARAMS[case]
    raw = sis_config(tmp_path / "out")
    raw["model"] = {"name": name, "params": params}
    with pytest.raises(NonFiniteParameter, match=f"parameter '{bad}'"):
        config_from_dict(raw)
    path = write_config(tmp_path, raw)  # json writes NaN and Infinity, and reads them back
    assert main(["validate", path]) == 1
    assert f"parameter '{bad}' is not finite" in capsys.readouterr().err
    finite = json.loads(json.dumps(raw).replace("-Infinity", "-1.0").replace("Infinity", "0.1")
                        .replace("NaN", "0.1"))
    config_from_dict(finite)


@pytest.mark.parametrize("name,params,param", [
    ("sis", {"adjacency": [[0, 1], [1, 0]], "beta": 0.3, "delta": 1.0}, "beta"),
    ("lorenz", {}, "alpha0"),
])
def test_config_rejects_non_finite_scan_values(name, params, param, tmp_path, capsys):
    # at run time a NaN value would fail only at step 0, as a non-finite state
    raw = sis_config(tmp_path / "out", experiment="robustness-scan",
                     options={"scan_parameter": param, "scan_values": [0.1, math.nan]})
    raw["model"] = {"name": name, "params": params}
    with pytest.raises(NonFiniteParameter, match=f"parameter '{param}' are not all finite"):
        config_from_dict(raw)
    assert main(["validate", write_config(tmp_path, raw)]) == 1
    assert f"parameter '{param}' are not all finite" in capsys.readouterr().err
    raw["options"]["scan_values"] = [0.1, 0.2]
    config_from_dict(raw)


def test_boundary_exponent_experiment(tmp_path):
    raw = sis_config(tmp_path / "out", experiment="boundary-exponent",
                     sim={"dt": 0.001, "t_final": 60.0})
    raw["replicas"] = 1
    report = run_experiment(config_from_dict(raw))
    assert report["estimate"]["point"] == pytest.approx(0.7, abs=0.02)


def test_diagnostics_experiment(tmp_path):
    raw = sis_config(tmp_path / "out", experiment="diagnostics",
                     ics=[[0.5, 0.5]],
                     sim={"dt": 0.01, "t_final": 10.0})
    report = run_experiment(config_from_dict(raw))
    assert report["suite"]["passed"] is True
    header = (tmp_path / "out" / "residuals.csv").read_text().splitlines()[0]
    assert header == "replica_id,t,dynkin,qv"


def test_scan_experiment(tmp_path):
    raw = {
        "model": {"name": "sis", "params": {"adjacency": [[0, 1], [1, 0]],
                                            "beta": 0.3, "delta": 1.0}},
        "experiment": "robustness-scan",
        "sim": {"dt": 0.001, "t_final": 40.0},
        "replicas": 1,
        "seed": 5,
        "output": str(tmp_path / "out"),
        "options": {"scan_parameter": "beta", "scan_values": [0.2, 0.4]},
    }
    report = run_experiment(config_from_dict(raw))
    points = [e["point"] for e in report["estimates"]]
    assert points[0] == pytest.approx(0.8, abs=0.03)
    assert points[1] == pytest.approx(0.6, abs=0.03)


# name: (scanned parameter, values, alpha0, ics, replicas, t_final)
LORENZ_SCANS = {
    "alpha0-with-0": ("alpha0", [0.0, 0.05, 0.1], 0.0, [[0.9, 0.5], [2.0, 1.0]], 2, 10.0),
    "z_star-2ics-3reps": ("z_star", [0.5, 1.0, 1.5], 0.1, [[0.9, 0.5], [2.0, 1.0]], 3, 10.0),
    "gamma-deterministic": ("gamma", [0.5, 1, 2.0], 0.0, [[0.9, 0.5], [2.0, 1.0]], 3, 10.0),
    # 12 values x 2 ics x 3 replicas = 72 lanes, in two blocks
    "alpha0-72-lanes": ("alpha0", [0.02 * i for i in range(1, 13)], 0.0,
                        [[0.9, 0.5], [2.0, 1.0]], 3, 2.0),
}


@pytest.mark.parametrize("case", sorted(LORENZ_SCANS))
def test_lorenz_scan_runs_as_lanes_with_the_bytes_of_the_per_value_scan(case, tmp_path,
                                                                        monkeypatch):
    import extinctd.cli as cli
    from extinctd.exponents import robustness_scan

    param, values, alpha0, ics, reps, t_final = LORENZ_SCANS[case]
    raw = {
        "model": {"name": "lorenz", "params": {"gamma": 1.0, "z_star": 0.5, "eta": 1.0,
                                               "alpha0": alpha0}},
        "experiment": "robustness-scan",
        "sim": {"dt": 0.002, "t_final": t_final},
        "replicas": reps,
        "seed": 22,
        "ics": ics,
        "output": "out",
        "options": {"burn_in": 0.1 * t_final, "scan_parameter": param, "scan_values": values},
    }
    builders = []

    def per_value(*args, lanes=None, **kwargs):
        builders.append(lanes)
        return robustness_scan(*args, **kwargs)

    outputs = []
    for name in ("lanes", "per_value"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)  # the report names its output path
        run_experiment(config_from_dict(raw))
        outputs.append({f: (tmp_path / name / "out" / f).read_bytes()
                        for f in ("report.json", "exponents.csv")})
        monkeypatch.setattr(cli, "robustness_scan", per_value)
    assert len(builders) == 1 and builders[0] is not None  # the runner passed a builder
    assert outputs[0] == outputs[1]


def test_cli_rejects_the_threads_flag(tmp_path, capsys):
    path = write_config(tmp_path, sis_config(tmp_path / "out"))
    with pytest.raises(SystemExit):
        main(["run", path, "--threads", "2"])
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_report_bytes_identical_across_runs_and_threads(tmp_path):
    cfg = config_from_dict(sis_config(tmp_path / "out", experiment="slope",
                                      ics=[[0.4, 0.5]]))
    run_experiment(cfg, threads=1)
    first = (tmp_path / "out" / "report.json").read_bytes()
    run_experiment(cfg, threads=1)
    assert (tmp_path / "out" / "report.json").read_bytes() == first
    run_experiment(cfg, threads=8)
    assert (tmp_path / "out" / "report.json").read_bytes() == first


def test_cli_main_run_and_overrides(tmp_path, capsys):
    path = write_config(tmp_path, sis_config(tmp_path / "out"))
    assert main(["run", path, "--replicas", "1",
                 "--out", str(tmp_path / "other")]) == 0
    assert (tmp_path / "other" / "report.json").exists()
    assert main(["validate", path]) == 0
    assert main(["list-models"]) == 0
    out = capsys.readouterr().out
    assert "sis" in out and "lorenz" in out


def test_cli_exit_code_on_bad_config(tmp_path, capsys):
    raw = sis_config(tmp_path / "out")
    del raw["seed"]
    path = write_config(tmp_path, raw)
    assert main(["run", path]) == 1
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # no partial outputs


def test_cli_extinct_false_is_not_an_error(tmp_path):
    raw = sis_config(tmp_path / "out")
    raw["model"]["params"]["beta"] = 2.0  # supercritical: no extinction
    path = write_config(tmp_path, raw)
    assert main(["run", path]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["extinct"] is False


def test_dumps_report_fixed_format():
    text = dumps_report({"b": 0.1, "a": [1, True, None, "s"]})
    assert text.index('"a"') < text.index('"b"')
    assert "0.10000000000000001" in text
    json.loads(text)  # stays valid JSON
    with pytest.raises(ValueError):
        dumps_report({"x": float("nan")})


def test_criterion_experiment_other_families(tmp_path):
    # eco-discrete: invasion criterion certifies extinction for r < 0
    raw = {
        "model": {"name": "eco-discrete", "params": {"r": -0.3, "sigma": 0.2}},
        "experiment": "criterion",
        "sim": {"dt": 1.0, "t_final": 60.0},
        "replicas": 1, "seed": 9, "output": str(tmp_path / "eco"),
    }
    rep = run_experiment(config_from_dict(raw))
    assert rep["extinct"] is True
    assert rep["index"] == pytest.approx(0.3, abs=0.02)

    raw = {
        "model": {"name": "kolmogorov", "params": {"r": -0.16875, "sigma": 0.25}},
        "experiment": "criterion",
        "sim": {"dt": 0.01, "t_final": 30.0},
        "replicas": 1, "seed": 9, "output": str(tmp_path / "kol"),
    }
    rep = run_experiment(config_from_dict(raw))
    assert rep["extinct"] is True
    assert rep["index"] == pytest.approx(0.2, abs=0.02)

    raw = {
        "model": {"name": "lorenz",
                  "params": {"gamma": 1.0, "z_star": 0.5, "eta": 1.0, "alpha0": 0.0}},
        "experiment": "criterion",
        "sim": {"dt": 0.002, "t_final": 400.0},
        "replicas": 1, "seed": 9, "output": str(tmp_path / "lor"),
        "options": {"burn_in": 50.0},
    }
    rep = run_experiment(config_from_dict(raw))
    # at alpha0 = 0 the suite's closed form -lambda0(z*) = 1 is the index
    assert rep["extinct"] is True
    assert rep["index"] == 1.0
    assert "estimate" not in rep


def test_lorenz_criterion_runs_from_the_configured_ics(tmp_path):
    from extinctd.exponents import boundary_exponent

    ic = [2.0, 1.5]  # (theta, z) on the cylinder, away from the default (0.9, z*)
    raw = {
        "model": {"name": "lorenz",
                  "params": {"gamma": 1.0, "z_star": 0.5, "eta": 1.0, "alpha0": 0.05}},
        "experiment": "criterion",
        "sim": {"dt": 0.01, "t_final": 20.0},
        "replicas": 2, "seed": 5, "ics": [ic], "output": str(tmp_path / "lor"),
        "options": {"burn_in": 2.0},
    }
    cfg = config_from_dict(raw)
    rep = run_experiment(cfg)
    b = make_bundle("lorenz", raw["model"]["params"])
    est = boundary_exponent(b.boundary, b.boundary_H, [StateVector(np.array(ic))],
                            cfg.sim_config(), 2, seed=5, burn_in=2.0)
    assert rep["estimate"] == est.to_dict()
    assert rep["index"] == est.point
    assert type(est.ci_low) is float
    assert rep["extinct"] is (est.ci_low > 0.0)


def test_shipped_configs_parse_and_validate():
    import glob

    paths = sorted(glob.glob("configs/*.json"))
    assert len(paths) >= 3
    for path in paths:
        cfg = parse_config(path)
        assert cfg.seed is not None
