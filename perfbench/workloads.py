"""The benchmark's workloads: config generators and output checks.

Each workload turns a seed into a JSON-able extinctd config, names the
thread count it runs at, and checks the files a run leaves behind against a
value computed here, apart from extinctd, or against a property the method
must have.  A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _read_report(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


def _read_exponents(out_dir: str) -> list:
    with open(os.path.join(out_dir, "exponents.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows[0] == ["label", "method", "point", "ci_low", "ci_high"],
             f"exponents.csv header is {rows[0]}")
    return [(r[0], r[1], float(r[2]), float(r[3]), float(r[4])) for r in rows[1:]]


def _seeded(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, 0x70657266])


# -- sis-slope: SIS on the 2-node network, criterion 3 --------------------------

SIS_ADJ = [[0, 1], [1, 0]]
SIS_BETA, SIS_DELTA = 0.3, 1.0


def sis_slope_config(seed: int, output: str, tiny: bool = False) -> dict:
    return {
        "model": {"name": "sis", "params": {"adjacency": SIS_ADJ, "beta": SIS_BETA,
                                            "delta": SIS_DELTA}},
        "experiment": "slope",
        "sim": {"dt": 0.002, "t_final": 100.0, "floor_epsilon": 1e-3},
        "replicas": 2 if tiny else 10,
        "seed": int(_seeded(seed).integers(2**31)),
        "ics": [[0.6, 0.25]],
        "output": output,
    }


def check_sis_slope(raw: dict, out_dir: str):
    rep = _read_report(out_dir)
    p = raw["model"]["params"]
    lam = float(np.linalg.eigvalsh(np.asarray(p["adjacency"], dtype=float)).max())
    index = p["delta"] - p["beta"] * lam
    _require(abs(rep["alpha_candidate"] - index) <= 1e-12,
             f"alpha_candidate {rep['alpha_candidate']} != delta - beta*lambda_max = {index}")
    slope = rep["slope"]
    _require(abs(slope - index) <= 0.05 * index,
             f"mean slope {slope} is not within 5% of the index {index}")
    _require(rep["ci_low"] <= slope <= rep["ci_high"],
             f"CI [{rep['ci_low']}, {rep['ci_high']}] does not bracket slope {slope}")
    _require(rep["n_replicas"] == raw["replicas"],
             f"n_replicas {rep['n_replicas']} != {raw['replicas']}")
    rows = _read_exponents(out_dir)
    n = raw["replicas"]
    _require(len(rows) == n + 1, f"exponents.csv has {len(rows)} rows, want {n + 1}")
    _require([r[0] for r in rows] == [f"replica_{i}" for i in range(n)] + ["mean"],
             "exponents.csv labels are not replica_0.. plus mean")
    slopes = np.array([r[2] for r in rows[:-1]])
    _require(bool(np.all(slopes >= 0.9 * index)),
             f"replica slope {slopes.min()} is below 0.9 x index {index}")
    _require(math.isclose(slopes.mean(), slope, rel_tol=1e-12),
             f"mean of replica slopes {slopes.mean()} != reported slope {slope}")
    _require(rows[-1][2:] == (slope, rep["ci_low"], rep["ci_high"]),
             "exponents.csv mean row differs from report.json")


# -- switching-simulate: two-regime switching SIS, criterion 4 ------------------

SW_Q = [[-1.0, 1.0], [2.0, -2.0]]
SW_X0 = [0.5, 0.5]


def switching_simulate_config(seed: int, output: str, tiny: bool = False) -> dict:
    return {
        "model": {"name": "sis", "params": {"adjacency": SIS_ADJ, "beta": [0.2, 0.5],
                                            "delta": [1.2, 0.8], "Q": SW_Q}},
        "experiment": "simulate",
        "sim": {"dt": 0.001, "t_final": 1.0 if tiny else 8.0},
        "replicas": 2 if tiny else 4,
        "seed": int(_seeded(seed).integers(2**31)),
        "ics": [{"x": SW_X0, "regime": 0}],
        "output": output,
    }


def check_switching_simulate(raw: dict, out_dir: str):
    rep = _read_report(out_dir)
    sim, n = raw["sim"], raw["replicas"]
    t_final, dt = sim["t_final"], sim["dt"]
    summary = rep["replicas"]
    _require([s["replica_id"] for s in summary] == list(range(n)),
             "report replica ids are not 0..replicas-1")
    data = np.loadtxt(os.path.join(out_dir, "trajectories.csv"), delimiter=",",
                      skiprows=1, ndmin=2)
    n_points = [s["n_points"] for s in summary]
    _require(data.shape == (sum(n_points), 5),
             f"trajectories.csv is {data.shape}, want ({sum(n_points)}, 5)")
    n_steps = round(t_final / dt)
    d0 = math.hypot(*raw["ics"][0]["x"])
    start = 0
    for s, count in zip(summary, n_points):
        block = data[start:start + count]
        start += count
        rid = s["replica_id"]
        _require(bool(np.all(block[:, 0] == rid)), f"replica {rid}: rows out of order")
        t = block[:, 1]
        _require(t[0] == 0.0 and bool(np.all(np.diff(t) > 0.0)),
                 f"replica {rid}: times do not start at 0 and increase strictly")
        _require(abs(t[-1] - t_final) <= 1e-9 * t_final and s["duration"] == t[-1],
                 f"replica {rid}: path ends at {t[-1]}, want {t_final}")
        x = block[:, 2:4]
        _require(bool(np.all((x >= 0.0) & (x <= 1.0))), f"replica {rid}: state outside [0,1]")
        _require(bool(np.all(np.isin(block[:, 4], (0.0, 1.0)))),
                 f"replica {rid}: regime outside {{0,1}}")
        inserted = count - (n_steps + 1)
        _require(0 <= inserted <= s["n_jumps"],
                 f"replica {rid}: {inserted} inserted jump points, {s['n_jumps']} jumps")
        _require(math.isclose(s["final_distance"], math.hypot(*x[-1]), rel_tol=1e-12),
                 f"replica {rid}: final_distance disagrees with the last CSV row")
        _require(s["final_distance"] < d0,
                 f"replica {rid}: final distance {s['final_distance']} >= initial {d0}")
    q = np.asarray(SW_Q)
    rho = np.array([q[1, 0], q[0, 1]]) / (q[0, 1] + q[1, 0])
    expected = n * t_final * float(rho @ -np.diag(q))
    jumps = sum(s["n_jumps"] for s in summary)
    _require(abs(jumps - expected) <= 4.0 * math.sqrt(expected),
             f"{jumps} regime jumps, expected {expected:.1f} +- {4 * math.sqrt(expected):.1f}")


# -- lorenz-scan: alpha0 robustness scan, configs/lorenz_scan.json shortened ----

LZ_SCAN = [0.0, 0.05, 0.1, 0.2]


def lorenz_scan_config(seed: int, output: str, tiny: bool = False) -> dict:
    gen = _seeded(seed)
    return {
        "model": {"name": "lorenz", "params": {"gamma": 1.0, "z_star": 0.5, "eta": 1.0,
                                               "alpha0": 0.0}},
        "experiment": "robustness-scan",
        "sim": {"dt": 0.002, "t_final": 30.0 if tiny else 40.0},
        "replicas": 2,
        "seed": int(gen.integers(2**31)),
        "ics": [[float(gen.uniform(0.0, math.pi)), 0.5]],
        "output": output,
        "options": {"burn_in": 4.0, "scan_parameter": "alpha0", "scan_values": LZ_SCAN},
    }


def check_lorenz_scan(raw: dict, out_dir: str):
    # with z held at z* < 1 the theta-flow's average of sin(2 theta) vanishes
    # by symmetry, so H = 1 - (z/2) sin(2 theta) averages to exactly 1
    rep = _read_report(out_dir)
    est = rep["estimates"]
    values = raw["options"]["scan_values"]
    _require([e["theta"] for e in est] == values, "scan entries do not follow scan_values")
    for e in est:
        tol = 0.02 if e["theta"] == 0.0 else 0.1
        _require(abs(e["point"] - 1.0) <= tol,
                 f"alpha0={e['theta']}: estimate {e['point']} not within {tol} of 1")
        _require(e["ci_low"] <= e["point"] <= e["ci_high"],
                 f"alpha0={e['theta']}: CI does not bracket the estimate")
        _require(e["n_replicas"] == raw["replicas"], "n_replicas differs from the config")
    points = [e["point"] for e in est]
    gap = max(abs(a - b) for a, b in zip(points, points[1:]))
    _require(math.isclose(rep["max_adjacent_gap"], gap, rel_tol=1e-12, abs_tol=1e-15),
             f"max_adjacent_gap {rep['max_adjacent_gap']} != {gap}")
    rows = _read_exponents(out_dir)
    _require([(r[0], r[2]) for r in rows] == [(f"alpha0={v}", p) for v, p in zip(values, points)],
             "exponents.csv rows differ from report.json")


# -- ricker-invasion: eco-discrete invasion criterion ---------------------------

RK_R, RK_SIGMA = -0.3, 0.2


def ricker_invasion_config(seed: int, output: str, tiny: bool = False) -> dict:
    return {
        "model": {"name": "eco-discrete", "params": {"r": RK_R, "sigma": RK_SIGMA}},
        "experiment": "criterion",
        "sim": {"dt": 1.0, "t_final": 200.0 if tiny else 12000.0},
        "replicas": 2,
        "seed": int(_seeded(seed).integers(2**31)),
        "output": output,
    }


def check_ricker_invasion(raw: dict, out_dir: str):
    # at the boundary x = 0, log F(0, xi) = r + sigma xi with E xi = 0
    rep = _read_report(out_dir)
    r = raw["model"]["params"]["r"]
    rates = rep["invasion_rates"]
    _require(len(rates) == 1, f"{len(rates)} invasion rates for one species")
    _require(abs(rates[0]["point"] - r) <= 0.01,
             f"invasion rate {rates[0]['point']} not within 0.01 of E log F(0, xi) = {r}")
    _require(abs(rep["index"] - (-r)) <= 0.01, f"index {rep['index']} not within 0.01 of {-r}")
    _require(rep["extinct"] is True, "extinct is not true")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int
    config: Callable  # (seed, output, tiny=False) -> raw config dict
    check: Callable  # (raw config, output dir) -> None, raises CheckFailed


WORKLOADS = {w.name: w for w in (
    Workload("sis-slope",
             "many replicas that stop at the floor: step kernel and floor check, little output",
             1, sis_slope_config, check_sis_slope),
    Workload("switching-simulate",
             "regime thinning, whole-path recording, CSV output and the 2-thread fan-out",
             2, switching_simulate_config, check_switching_simulate),
    Workload("lorenz-scan",
             "two long boundary paths per scan value: occupation averages, bundle rebuilds",
             1, lorenz_scan_config, check_lorenz_scan),
    Workload("ricker-invasion",
             "suite calibration and noise bank in set-up, discrete chain and H over the bank",
             1, ricker_invasion_config, check_ricker_invasion),
)}
