"""Tests of the benchmark itself: the output checks, the spans and the
command's behaviour without sources.  Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS, CheckFailed

SEED = 987  # not one of the seeds the benchmark's figures were taken on

cli = run.load_extinctd()


def _run(name: str, out: Path, tiny: bool = True) -> dict:
    w = WORKLOADS[name]
    raw = w.config(SEED, str(out), tiny=tiny)
    cli.run_experiment(cli.config_from_dict(raw), threads=w.threads)
    return raw


def _edit_report(out: Path, edit):
    path = out / "report.json"
    rep = json.loads(path.read_text())
    edit(rep)
    path.write_text(json.dumps(rep))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_passes_its_check_at_a_tiny_size(name, tmp_path):
    raw = _run(name, tmp_path)
    WORKLOADS[name].check(raw, str(tmp_path))


def test_same_seed_gives_same_config():
    for w in WORKLOADS.values():
        assert w.config(3, "o") == w.config(3, "o")
        assert w.config(3, "o") != w.config(4, "o")


def _halve_slope(rep):
    rep["slope"] /= 2


def _double_jumps(rep):
    for s in rep["replicas"]:
        s["n_jumps"] *= 2


def _shift_alpha0_zero(rep):
    rep["estimates"][0]["point"] += 0.05
    rep["estimates"][0]["ci_high"] += 0.05


def _index_half(rep):
    rep["index"] = 0.5


@pytest.mark.parametrize("name, edit, tiny", [
    ("sis-slope", _halve_slope, True),
    # doubling is only detectable once the expected jump count exceeds 16
    ("switching-simulate", _double_jumps, False),
    ("lorenz-scan", _shift_alpha0_zero, True),
    ("ricker-invasion", _index_half, True),
])
def test_checks_reject_a_wrong_output(name, edit, tiny, tmp_path):
    raw = _run(name, tmp_path, tiny=tiny)
    WORKLOADS[name].check(raw, str(tmp_path))
    _edit_report(tmp_path, edit)
    with pytest.raises(CheckFailed):
        WORKLOADS[name].check(raw, str(tmp_path))


def test_check_rejects_a_truncated_trajectory_csv(tmp_path):
    raw = _run("switching-simulate", tmp_path)
    csv = tmp_path / "trajectories.csv"
    csv.write_text("".join(csv.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(CheckFailed):
        WORKLOADS["switching-simulate"].check(raw, str(tmp_path))


def test_self_time_subtracts_the_union_of_children():
    tree = [spans.Span("run", 0.0, -1, 10.0),
            spans.Span("a", 1.0, 0, 3.0), spans.Span("b", 2.0, 0, 5.0),
            spans.Span("c", 7.0, 0, 8.0), spans.Span("d", 2.5, 2, 3.0)]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 2.5, 1.0, 0.5])


def test_tracer_counts_layers_and_restores_the_modules(tmp_path):
    import extinctd.cli
    import extinctd.exponents
    import extinctd.integrators

    original = extinctd.integrators.simulate
    w = WORKLOADS["sis-slope"]
    cfg = cli.config_from_dict(w.config(SEED, str(tmp_path), tiny=True))
    tracer = spans.Tracer()
    assert tracer.install() == {}
    assert extinctd.cli.simulate is not original
    assert extinctd.exponents.simulate is extinctd.cli.simulate
    root = tracer.open(spans.ROOT)
    cli.run_experiment(cfg, threads=2)
    tracer.close(root)
    tracer.uninstall()
    assert extinctd.cli.simulate is original
    assert extinctd.integrators.simulate is original

    m = spans.layer_metrics(tracer.spans, 1)
    assert m["integrators.simulate.calls"] == (2, "count")
    assert m["integrators.simulate.floor_hits"] == (2, "count")
    assert m["exponents.trajectory_slope.self_s"][0] > 0.0
    assert m["cli.csv.rows"] == (3, "count")
    assert m["cli.write.bytes"][0] == sum(p.stat().st_size for p in tmp_path.iterdir())
    assert m["cli.fanout.busy_s"][0] >= m["integrators.simulate.self_s"][0] > 0.0
    assert all(s.end >= s.start for s in tracer.spans)


def test_a_missing_wrap_target_drops_its_metrics(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS[:-1] + (
        ("extinctd.cli", "_no_such_fanout", "cli.fanout", None),))
    tracer = spans.Tracer()
    missing = tracer.install()
    tracer.uninstall()
    assert missing == {"cli.fanout": "extinctd.cli._no_such_fanout"}
    m = spans.layer_metrics([], 1, tuple(missing))
    assert "cli.fanout.s" not in m and "cli.fanout.busy_s" not in m
    assert m["integrators.simulate.calls"] == (0, "count")


def test_command_fails_without_the_program(tmp_path):
    here = Path(run.__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sis-slope",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
