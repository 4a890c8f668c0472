import json
import os

import numpy as np
import pytest

from extinctd.cli import (
    config_from_dict,
    dumps_report,
    emit_config,
    main,
    parse_config,
    run_experiment,
)
from extinctd.errors import MissingField, ParseError, UnknownKey, UnknownModel
from extinctd.integrators import simulate
from extinctd.process_core import RngStream, StateVector, make_bundle


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


def test_simulate_experiment_writes_trajectories(tmp_path):
    cfg = config_from_dict(sis_config(tmp_path / "out", experiment="simulate",
                                      ics=[[0.4, 0.5]]))
    report = run_experiment(cfg)
    assert len(report["replicas"]) == 2
    header = (tmp_path / "out" / "trajectories.csv").read_text().splitlines()[0]
    assert header == "replica_id,t,x_0,x_1,regime"


def test_simulate_experiment_follows_the_replica_rule(tmp_path):
    # replica k = i * replicas + r starts from ics[i] on RngStream(seed, k)
    raw = sis_config(tmp_path / "out", experiment="simulate",
                     sim={"dt": 0.001, "t_final": 2.0},
                     ics=[[0.4, 0.5], [0.2, 0.7]])
    cfg = config_from_dict(raw)
    run_experiment(cfg)
    data = np.loadtxt(tmp_path / "out" / "trajectories.csv", delimiter=",",
                      skiprows=1, ndmin=2)
    assert sorted(set(data[:, 0])) == [0, 1, 2, 3]
    bundle = make_bundle(cfg.model_name, cfg.model_params)
    for rid, x0 in ((1, [0.4, 0.5]), (3, [0.2, 0.7])):
        traj = simulate(bundle.model, StateVector(np.array(x0)),
                        cfg.sim_config(), RngStream(raw["seed"], rid))
        rows = data[data[:, 0] == rid]
        np.testing.assert_array_equal(rows[:, 1], traj.times)
        np.testing.assert_array_equal(rows[:, 2:4], traj.states)
        np.testing.assert_array_equal(rows[:, 4], -1)


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
    assert rep["extinct"] is True
    assert rep["lambda"]["point"] == pytest.approx(-1.0, abs=0.03)
    assert rep["lambda0_closed_form"] == -1.0


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
    assert rep["lambda"]["point"] == -est.point
    assert rep["lambda"]["ci_low"] == -est.ci_high
    assert rep["index"] == est.point
    assert "lambda0_closed_form" not in rep


def test_shipped_configs_parse_and_validate():
    import glob

    paths = sorted(glob.glob("configs/*.json"))
    assert len(paths) >= 3
    for path in paths:
        cfg = parse_config(path)
        assert cfg.seed is not None


def test_threads_env_fallback(monkeypatch):
    from extinctd.cli import _resolve_threads

    monkeypatch.delenv("EXTINCTD_THREADS", raising=False)
    assert _resolve_threads(None) == 1
    monkeypatch.setenv("EXTINCTD_THREADS", "6")
    assert _resolve_threads(None) == 6
    assert _resolve_threads(2) == 2  # flag wins over the environment
