"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import math
import time

import numpy as np
import pytest

from extinctd.cli import config_from_dict, run_experiment
from extinctd.criteria import (
    CtmcGenerator,
    ctmc_stationary,
    invasion_rate,
    lorenz_lambda0,
    lorenz_lambda_mc,
    sis_extinction_index,
    top_eigenvalue,
)
from extinctd.exponents import (
    boundary_exponent,
    extinction_fraction,
    linear_sde_exponent,
    slope_experiment,
    trajectory_slope,
)
from extinctd.integrators import SimConfig, simulate, simulate_lanes
from extinctd.lyapunov import (
    LyapunovSuite,
    cumulative_integral,
    dynkin_residual,
    eval_along,
    occupation_average,
    tightness_check,
)
from extinctd.models import make_linear_sde, make_lorenz, make_ricker, make_sis
from extinctd.models.kolmogorov import make_logistic
from extinctd.process_core import ModelSpec, RngStream, StateVector, Trajectory, replica_streams


def check(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_linear_benchmark():
    start = time.monotonic()
    A = np.diag([-1.0, -3.0])
    bundle = make_linear_sde(A)
    cfg = SimConfig(dt=1e-3, t_final=20.0, floor_epsilon=1e-12)
    traj = simulate(bundle.model, StateVector(np.array([0.8, 0.8])), cfg, RngStream(1))
    slope = trajectory_slope(traj, bundle.suite.V).point
    oracle = linear_sde_exponent(A)
    elapsed = time.monotonic() - start
    check("criterion 1: linear benchmark A=diag(-1,-3)",
          abs(slope - oracle) <= 0.05 * oracle and elapsed < 10.0,
          f"slope={slope:.4f} oracle={oracle} time={elapsed:.1f}s")


def test_criterion_02_scalar_gbm():
    a, sig = -0.3, 0.4
    bundle = make_linear_sde([[a]], [[sig]])
    expected = -a + sig ** 2 / 2.0
    cfg = SimConfig(dt=1e-2, t_final=50.0, floor_epsilon=1e-12)
    est = slope_experiment(bundle.model, bundle.suite.V,
                           StateVector(np.array([1.0])), cfg, reps=200, seed=2)
    check("criterion 2: scalar GBM slope = -a + sigma^2/2",
          abs(est.point - expected) <= 0.10 * expected,
          f"slope={est.point:.4f} expected={expected:.4f} "
          f"ci=({est.ci_low:.4f},{est.ci_high:.4f})")


def test_criterion_03_sis_constant_network():
    start = time.monotonic()
    bundle = make_sis([[0, 1], [1, 0]], beta=0.3, delta=1.0)
    lam1, _ = top_eigenvalue([[0.0, 1.0], [1.0, 0.0]])
    index = sis_extinction_index([1.0], [0.3], [lam1], [1.0])
    ok_index = index == pytest.approx(0.7, abs=1e-12)

    cfg_b = SimConfig(dt=1e-3, t_final=120.0)
    v0 = np.array([0.9, 0.435])
    est_b = boundary_exponent(bundle.boundary, bundle.boundary_H,
                              [StateVector(v0 / np.linalg.norm(v0))],
                              cfg_b, reps=1, seed=3)
    ok_boundary = abs(est_b.point - 0.7) <= 0.05 * 0.7

    cfg = SimConfig(dt=1e-3, t_final=100.0, floor_epsilon=1e-9)
    est_s = slope_experiment(bundle.model, bundle.suite.V,
                             StateVector(np.array([0.6, 0.25])), cfg,
                             reps=100, seed=4)
    ok_slope = est_s.point >= 0.7 * 0.9
    elapsed = time.monotonic() - start
    check("criterion 3: SIS constant K2 network",
          ok_index and ok_boundary and ok_slope and elapsed < 120.0,
          f"index={index} boundary={est_b.point:.4f} slope={est_s.point:.4f} "
          f"time={elapsed:.1f}s")


def test_criterion_04_sis_switching():
    q = [[-1.0, 1.0], [2.0, -2.0]]
    rho = ctmc_stationary(CtmcGenerator(q))
    assert rho == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-12)
    bundle = make_sis([[0, 1], [1, 0]], beta=[0.2, 0.5], delta=[1.2, 0.8], Q=q)
    index = bundle.suite.alpha_candidate
    assert index == pytest.approx(2.0 / 3.0 * 1.0 + 1.0 / 3.0 * 0.3, abs=1e-12)

    # regime occupation against rho within 3 standard errors (replica spread)
    cfg_occ = SimConfig(dt=1e-2, t_final=200.0)
    reps = 12
    x0 = StateVector(np.array([0.5, 0.5]), 0)
    # start on the boundary so the run keeps switching for the full horizon;
    # replica r draws from RngStream(5, r)
    occ = np.asarray(simulate_lanes(
        bundle.boundary, replica_streams([StateVector(np.array([0.6, 0.8]), 0)], reps, 5),
        cfg_occ, lambda traj: occupation_average(
            traj, lambda x, s: (np.asarray(s) == 0).astype(float))))
    se = occ.std(ddof=1) / math.sqrt(reps)
    ok_occ = abs(occ.mean() - rho[0]) <= 3.0 * se

    cfg = SimConfig(dt=1e-3, t_final=100.0, floor_epsilon=1e-9)
    est = slope_experiment(bundle.model, bundle.suite.V, x0, cfg, reps=30, seed=6)
    ok_slope = est.point >= index * 0.9
    check("criterion 4: SIS 2-regime switching",
          ok_occ and ok_slope,
          f"occ={occ.mean():.4f} rho0={rho[0]:.4f} (3se={3 * se:.4f}) "
          f"slope={est.point:.4f} index={index:.4f}")


def test_criterion_05_lorenz():
    start = time.monotonic()
    cfg = SimConfig(dt=2e-3, t_final=1500.0)
    est0 = lorenz_lambda_mc(1.0, 0.5, 1.0, 0.0, cfg, reps=1, seed=7, burn_in=100.0)
    lam0 = lorenz_lambda0(0.5)
    ok_det = abs(est0.point - (-1.0)) <= 0.02 and abs(est0.point - lam0) <= 0.02

    est_eps = lorenz_lambda_mc(1.0, 0.5, 1.0, 0.05, cfg, reps=4, seed=8,
                               burn_in=100.0)
    ok_cont = abs(est_eps.point - (-1.0)) <= 0.1

    bundle = make_lorenz(gamma=1.0, z_star=0.5, eta=1.0, alpha0=0.05)
    cfg_full = SimConfig(dt=1e-3, t_final=25.0, floor_epsilon=1e-12)
    est_slope = slope_experiment(bundle.model, bundle.suite.V,
                                 bundle.default_ic, cfg_full, reps=3, seed=9)
    ok_slope = abs(est_slope.point - (-est_eps.point)) <= 0.15 * abs(est_eps.point)
    elapsed = time.monotonic() - start
    check("criterion 5: Lorenz cylinder exponent and slope",
          ok_det and ok_cont and ok_slope and elapsed < 180.0,
          f"lambda_mc(0)={est0.point:.4f} lambda0={lam0} "
          f"lambda_mc(0.05)={est_eps.point:.4f} slope={est_slope.point:.4f} "
          f"time={elapsed:.1f}s")


def test_criterion_06_ricker():
    bundle = make_ricker(r=-0.3, sigma=0.2)
    cfg_b = SimConfig(dt=1.0, t_final=60.0)
    inv = invasion_rate(bundle.boundary, 0, bundle.species_H(0),
                        [StateVector(np.zeros(1))], cfg_b, reps=1, seed=10)
    ok_inv = abs(inv.point - (-0.3)) <= 0.01

    cfg = SimConfig(dt=1.0, t_final=220.0, floor_epsilon=1e-30)
    x0 = StateVector(np.array([0.5]))
    frac = extinction_fraction(bundle.model, bundle.suite, [x0], cfg,
                               reps=60, tol=0.1, seed=11)
    ok_frac = frac >= 0.95

    est = slope_experiment(bundle.model, bundle.suite.V, x0, cfg, reps=40, seed=12)
    ok_slope = abs(est.point - 0.3) <= 0.10 * 0.3
    check("criterion 6: ecological Ricker r=-0.3",
          ok_inv and ok_frac and ok_slope,
          f"invasion={inv.point:.4f} fraction={frac:.3f} slope={est.point:.4f}")


def test_criterion_07_kolmogorov_logistic():
    sig = 0.25
    r = sig ** 2 / 2.0 - 0.2
    bundle = make_logistic(r=r, sigma=sig)
    assert bundle.suite.alpha_candidate == pytest.approx(0.2)
    cfg = SimConfig(dt=2e-3, t_final=60.0, floor_epsilon=1e-12)
    est = slope_experiment(bundle.model, bundle.suite.V,
                           StateVector(np.array([0.5])), cfg, reps=40, seed=13)
    check("criterion 7: Kolmogorov logistic rate sigma^2/2 - r = 0.2",
          abs(est.point - 0.2) <= 0.10 * 0.2,
          f"slope={est.point:.4f} ci=({est.ci_low:.4f},{est.ci_high:.4f})")


def test_criterion_08_martingale_suite():
    n, steps = 10_000, 1000
    dt = 1.0 / steps
    gen = RngStream(2025).generator()
    dw = gen.standard_normal((n, steps)) * math.sqrt(dt)
    paths = np.concatenate([np.zeros((n, 1)), np.cumsum(dw, axis=1)], axis=1)
    times = np.arange(steps + 1) * dt
    f = lambda x, s: np.asarray(x)[..., 0] ** 2
    lf = lambda x, s: np.ones(np.shape(x)[:-1])
    gf = lambda x, s: 4.0 * np.asarray(x)[..., 0] ** 2
    finals = np.empty(n)
    gammas = np.empty(n)
    for i in range(n):
        traj = Trajectory(times, paths[i][:, None])
        finals[i] = dynkin_residual(traj, f, lf)[-1]
        gammas[i] = cumulative_integral(traj, eval_along(gf, traj))[-1]
    mean = finals.mean()
    se = finals.std(ddof=1) / math.sqrt(n)
    ok_mean = abs(mean) <= 4.0 * se
    var = float(finals.var(ddof=1))
    mean_gamma = float(gammas.mean())
    ok_var = abs(var - mean_gamma) <= 0.15 * mean_gamma
    check("criterion 8: martingale property suite (Brownian, f=x^2)",
          ok_mean and ok_var,
          f"mean={mean:.4f} (4se={4 * se:.4f}) var={var:.3f} "
          f"mean_int_gamma={mean_gamma:.3f}")


def test_criterion_09_occupation_tightness():
    model = ModelSpec(family="sde", dim=1, noise_dim=1,
                      drift=lambda x, s: -x,
                      diffusion=lambda x, s: np.array([[math.sqrt(2.0)]]),
                      extinction_distance=lambda x, s=None: np.full(np.shape(x)[:-1], np.inf))
    cfg = SimConfig(dt=1e-2, t_final=1500.0)
    traj = simulate(model, StateVector(np.array([0.0])), cfg, RngStream(14))
    wprime = lambda x, s: 1.0 + np.asarray(x)[..., 0] ** 2
    zero = lambda x, s: np.zeros(np.shape(x)[:-1])
    suite = LyapunovSuite(V=zero, H=zero, gammaV=zero, W=wprime, Wprime=wprime,
                          U=wprime, Uprime=wprime, K=2.5)
    rep = tightness_check(traj, suite, tail_fraction=1.0 / 3.0)
    late = rep.running_average[rep.times >= 1000.0]
    check("criterion 9: occupation tightness mu_t(1+x^2) <= K for OU",
          rep.passed and bool(np.all(late <= 2.5)),
          f"tail_average={rep.tail_average:.3f} K={rep.k} "
          f"max_late={late.max():.3f}")


def test_criterion_10_oracle_equivalence():
    gen = np.random.default_rng(314)
    ok_all = True
    details = []
    for g in range(5):
        m = int(gen.integers(2, 7))
        q = gen.uniform(0.2, 1.5, size=(m, m))
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        rho = ctmc_stationary(CtmcGenerator(q))
        model = ModelSpec(family="switching_diffusion", dim=1, noise_dim=0,
                          drift=lambda x, s: np.zeros_like(x),
                          switch_rates=lambda x, _q=q: _q, n_regimes=m,
                          extinction_distance=lambda x, s=None: np.ones(np.shape(x)[:-1]))
        cfg = SimConfig(dt=1e-2, t_final=400.0)
        reps = 10
        # replica r draws from RngStream(1000 + g, r)
        occ = np.array(simulate_lanes(
            model, replica_streams([StateVector(np.zeros(1), 0)], reps, 1000 + g), cfg,
            lambda traj: [occupation_average(
                traj, lambda x, ss, _s=s: (np.asarray(ss) == _s).astype(float))
                for s in range(m)]))
        se = occ.std(axis=0, ddof=1) / math.sqrt(reps)
        z = np.abs(occ.mean(axis=0) - rho) / np.maximum(se, 1e-12)
        ok_all = ok_all and bool(np.all(z <= 3.0))
        details.append(f"m={m} max_z={z.max():.2f}")

    max_gap = 0.0
    for _ in range(20):
        nn = int(gen.integers(2, 51))
        a = gen.standard_normal((nn, nn))
        a = (a + a.T) / 2.0
        lam, _ = top_eigenvalue(a)
        dense = float(np.max(np.linalg.eigvalsh(a)))
        max_gap = max(max_gap, abs(lam - dense) / max(1.0, abs(dense)))
    ok_eig = max_gap <= 1e-9
    check("criterion 10: oracle equivalence (CTMC occupation, power iteration)",
          ok_all and ok_eig,
          "; ".join(details) + f"; eig_gap={max_gap:.2e}")


def _shared_noise_gap(bundle, x0, dt, t_final, seed):
    cfg = SimConfig(dt=dt, t_final=t_final, floor_epsilon=1e-14)
    direct = simulate(bundle.model, x0, cfg, RngStream(seed))
    lifted = simulate(bundle.blowup,
                      StateVector(bundle.quad_map.inverse(x0.x), x0.regime),
                      cfg, RngStream(seed))
    n = min(len(direct.times), len(lifted.times))
    fwd = bundle.quad_map.forward(lifted.states[:n])
    return float(np.max(np.linalg.norm(fwd - direct.states[:n], axis=1)))


def test_criterion_11_quadruple_intertwining():
    # small noise keeps the O(dt) coordinate-change error dominant over the
    # O(sqrt(dt)) second-order noise term, so the gap ratio tracks the dt ratio
    cases = [
        ("sis", make_sis([[0, 1], [1, 0]], beta=0.3, delta=1.0, sigma_scale=0.05),
         StateVector(np.array([0.3, 0.45]))),
        ("linear", make_linear_sde([[-1.0, 0.3], [0.0, -2.0]],
                                   [[0.05, 0.0], [0.0, 0.05]]),
         StateVector(np.array([1.0, 0.7]))),
    ]
    ok = True
    details = []
    for name, bundle, x0 in cases:
        g_coarse = _shared_noise_gap(bundle, x0, 4e-3, 10.0, seed=21)
        g_fine = _shared_noise_gap(bundle, x0, 1e-3, 10.0, seed=21)
        ratio = g_coarse / g_fine
        ok = ok and g_coarse <= 1.0 * 4e-3 and g_fine <= 1.0 * 1e-3 \
            and 2.5 <= ratio <= 6.5
        details.append(f"{name}: gap(4e-3)={g_coarse:.2e} gap(1e-3)={g_fine:.2e} "
                       f"ratio={ratio:.2f}")
    check("criterion 11: quadruple-map intertwining, gap ~ C dt",
          ok, "; ".join(details))


def test_criterion_12_determinism(tmp_path):
    raw = {
        "model": {"name": "sis", "params": {"adjacency": [[0, 1], [1, 0]],
                                            "beta": 0.3, "delta": 1.0}},
        "experiment": "slope",
        "sim": {"dt": 0.001, "t_final": 15.0, "floor_epsilon": 1e-10},
        "replicas": 8,
        "seed": 77,
        "ics": [[0.4, 0.5]],
        "output": str(tmp_path / "out"),
    }
    cfg = config_from_dict(raw)
    run_experiment(cfg, threads=1)
    first = (tmp_path / "out" / "report.json").read_bytes()
    run_experiment(cfg, threads=1)
    second = (tmp_path / "out" / "report.json").read_bytes()
    run_experiment(cfg, threads=8)
    third = (tmp_path / "out" / "report.json").read_bytes()
    check("criterion 12: byte-identical report.json across runs and threads",
          first == second == third,
          f"bytes={len(first)} rerun_equal={first == second} "
          f"threads8_equal={first == third}")
