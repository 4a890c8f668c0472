import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extinctd.errors import NonSquare, WindowTooShort
from extinctd.exponents import (
    ExponentEstimate,
    _estimate,
    boundary_exponent,
    extinction_fraction,
    linear_sde_exponent,
    robustness_scan,
    slope_experiment,
    t975,
    trajectory_slope,
)
from extinctd.integrators import SimConfig, simulate, simulate_lanes
from extinctd.process_core import ModelSpec, RngStream, StateVector, Trajectory


def line_traj(a, b, t_end=10.0, n=1001):
    times = np.linspace(0.0, t_end, n)
    return Trajectory(times, (a * times + b)[:, None])


IDENT = lambda x, s: np.asarray(x)[..., 0]


def test_estimate_invariants():
    with pytest.raises(ValueError):
        ExponentEstimate(point=1.0, ci_low=1.1, ci_high=1.2, n_replicas=1,
                         horizon=1.0, method="closed_form")
    with pytest.raises(ValueError):
        ExponentEstimate(point=1.0, ci_low=1.0, ci_high=1.0, n_replicas=0,
                         horizon=1.0, method="closed_form")
    d = ExponentEstimate(point=1.0, ci_low=0.5, ci_high=1.5, n_replicas=3,
                         horizon=2.0, method="boundary_average").to_dict()
    assert set(d) == {"method", "point", "ci_low", "ci_high", "n_replicas", "horizon"}
    # Student-t half-width at n - 1 degrees of freedom; one replica has none
    two = _estimate([0.0, 1.0], 1.0, "boundary_average")
    assert two.point == 0.5
    assert two.ci_high - two.point == pytest.approx(12.706204736174694 * 0.5, rel=1e-15)
    one = _estimate([0.3], 1.0, "boundary_average")
    assert one.ci_low == one.point == one.ci_high == 0.3


def test_estimate_ends_are_python_floats_with_the_numpy_bits():
    # a verdict est.ci_low > 0 is then a Python bool, with no bool(...) wrapper
    for values in ([0.0, 1.0], [0.3], [0.2, 0.25, 0.31, 0.4]):
        est = _estimate(values, 1.0, "boundary_average")
        assert type(est.point) is type(est.ci_low) is type(est.ci_high) is float
        v = np.asarray(values)
        half = t975(v.size - 1) * float(v.std(ddof=1)) / np.sqrt(v.size) if v.size > 1 else 0.0
        assert (est.ci_low, est.ci_high) == (est.point - half, est.point + half)
        assert type(est.ci_low > 0.0) is bool


def test_t975_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for nu in range(1, 201):
        assert t975(nu) == pytest.approx(stats.t.ppf(0.975, nu), abs=2e-6), nu


def test_slope_exact_exponential_decay():
    # d(X_t) = exp(-2t) so V = -log d is the line 2t
    times = np.linspace(0.0, 10.0, 2001)
    traj = Trajectory(times, np.exp(-2.0 * times)[:, None])
    v = lambda x, s: -np.log(np.asarray(x)[..., 0])
    est = trajectory_slope(traj, v)
    assert est.point == pytest.approx(2.0, abs=1e-9)


@given(st.floats(min_value=-100, max_value=100),
       st.floats(min_value=-100, max_value=100))
@settings(max_examples=40, deadline=None)
def test_slope_recovers_any_line(a, b):
    est = trajectory_slope(line_traj(a, b), IDENT)
    assert abs(est.point - a) <= 1e-12 * max(1.0, abs(a), abs(b))


def test_slope_window_too_short():
    with pytest.raises(WindowTooShort):
        trajectory_slope(line_traj(1.0, 0.0, n=150), IDENT, window=0.5)


def test_slope_linear_ode():
    m = ModelSpec(family="sde", dim=1, noise_dim=0, drift=lambda x, s: -x,
                  extinction_distance=lambda x, s=None: np.abs(np.asarray(x)[..., 0]))
    traj = simulate(m, StateVector(np.array([1.0])),
                    SimConfig(dt=1e-3, t_final=10.0, floor_epsilon=1e-12),
                    RngStream(0))
    v = lambda x, s: -np.log(np.abs(np.asarray(x)[..., 0]))
    assert trajectory_slope(traj, v).point == pytest.approx(1.0, abs=0.01)


def test_slope_slowest_mode_dominates(linear_det):
    # A = diag(-1, -3): slope matches the eigen-oracle within 5%
    cfg = SimConfig(dt=1e-3, t_final=20.0, floor_epsilon=1e-12)
    est = slope_experiment(linear_det.model, linear_det.suite.V,
                           linear_det.default_ic, cfg, reps=1, seed=1)
    oracle = linear_sde_exponent(np.diag([-1.0, -3.0]))
    assert oracle == 1.0
    assert est.point == pytest.approx(oracle, rel=0.05)


def test_slope_experiment_simulates_a_noise_free_path_once(monkeypatch, linear_det):
    import extinctd.exponents as exponents

    lanes = []
    step = exponents.simulate_lanes
    monkeypatch.setattr(exponents, "simulate_lanes",
                        lambda m, reps, *a: lanes.append(len(reps)) or step(m, reps, *a))
    cfg = SimConfig(dt=1e-3, t_final=2.0)
    est = slope_experiment(linear_det.model, linear_det.suite.V, linear_det.default_ic, cfg,
                           reps=4, seed=1)
    assert lanes == [1]
    slope = trajectory_slope(simulate(linear_det.model, linear_det.default_ic, cfg,
                                      RngStream(1, 3)), linear_det.suite.V).point
    assert est == _estimate([slope] * 4, cfg.t_final, "trajectory_slope")
    assert est.n_replicas == 4 and est.ci_low == est.point == est.ci_high == slope


def test_boundary_exponent_constant_H():
    m = ModelSpec(family="sde", dim=1, noise_dim=0, drift=lambda x, s: np.zeros(1),
                  extinction_distance=lambda x, s=None: np.zeros(np.shape(x)[:-1]))
    h = lambda x, s: np.full(np.shape(x)[:-1], 3.25)
    est = boundary_exponent(m, h, [StateVector(np.zeros(1))],
                            SimConfig(dt=0.1, t_final=10.0), reps=2, seed=0)
    assert est.point == pytest.approx(3.25, abs=1e-12)
    assert est.ci_low == est.ci_high == est.point


def test_boundary_exponent_sis_sphere(sis_k2):
    cfg = SimConfig(dt=1e-3, t_final=100.0)
    ics = [StateVector(np.array([0.95, 0.3122498999199199]))]  # unit norm
    est = boundary_exponent(sis_k2.boundary, sis_k2.boundary_H, ics, cfg,
                            reps=1, seed=4)
    assert est.point == pytest.approx(0.7, abs=0.02)


def test_boundary_exponent_reorder_invariance(sis_k2):
    cfg = SimConfig(dt=1e-3, t_final=40.0)
    v1 = np.array([1.0, 0.0])
    v2 = np.array([0.6, 0.8])
    a = boundary_exponent(sis_k2.boundary, sis_k2.boundary_H,
                          [StateVector(v1), StateVector(v2)], cfg, 1, seed=0)
    b = boundary_exponent(sis_k2.boundary, sis_k2.boundary_H,
                          [StateVector(v2), StateVector(v1)], cfg, 1, seed=0)
    assert a.point == b.point  # deterministic boundary: exact invariance


def test_boundary_exponent_runs_a_deterministic_path_once_per_ic(sis_k2, sis_switching,
                                                                 monkeypatch):
    import extinctd.exponents as exponents

    cfg = SimConfig(dt=1e-2, t_final=20.0)
    sims = []

    def counted(model, replicas, cfg, reduce=None):
        sims.extend(rng.stream_id for _, _, rng in replicas)
        return simulate_lanes(model, replicas, cfg, reduce)

    monkeypatch.setattr(exponents, "simulate_lanes", counted)
    ics = [StateVector(np.array([1.0, 0.0])), StateVector(np.array([0.6, 0.8]))]
    est = boundary_exponent(sis_k2.boundary, sis_k2.boundary_H, ics, cfg, 3, seed=0)
    assert sims == [0, 3]
    assert est.n_replicas == 3 and est.ci_low == est.point == est.ci_high
    assert est.point == min(boundary_exponent(sis_k2.boundary, sis_k2.boundary_H,
                                              [ic], cfg, 1, seed=0).point for ic in ics)
    # a switching boundary draws regime jumps, so every replica runs
    sims.clear()
    sw_ics = [StateVector(np.array([0.6, 0.8]), 0)]
    boundary_exponent(sis_switching.boundary, sis_switching.boundary_H, sw_ics, cfg,
                      3, seed=0)
    assert sims == [0, 1, 2]


def test_extinction_fraction_deterministic_contraction():
    m = ModelSpec(family="sde", dim=1, noise_dim=0, drift=lambda x, s: -0.5 * x,
                  extinction_distance=lambda x, s=None: np.abs(np.asarray(x)[..., 0]))
    v = lambda x, s: -np.log(np.abs(np.asarray(x)[..., 0]))
    from extinctd.lyapunov import constant_suite

    suite = constant_suite(V=v, H=lambda x, s: np.full(np.shape(x)[:-1], 0.5),
                           gammaV=lambda x, s: np.zeros(np.shape(x)[:-1]),
                           K=1.0, alpha_candidate=0.5)
    frac = extinction_fraction(m, suite, [StateVector(np.array([1.0]))],
                               SimConfig(dt=1e-3, t_final=30.0, floor_epsilon=1e-12),
                               reps=3, tol=0.05, seed=0)
    assert frac == 1.0


def test_extinction_fraction_persistence_side():
    # supercritical SIS: beta lambda_1 >> delta, trajectories bounce off zero
    from extinctd.models import make_sis

    b = make_sis([[0, 1], [1, 0]], beta=2.0, delta=0.5)
    suite = dataclasses.replace(b.suite, alpha_candidate=0.3)
    frac = extinction_fraction(b.model, suite, [StateVector(np.array([0.4, 0.4]))],
                               SimConfig(dt=1e-3, t_final=30.0, floor_epsilon=1e-10),
                               reps=10, tol=0.1, seed=6)
    assert frac <= 0.05


def test_robustness_scan_constant_family():
    m = ModelSpec(family="sde", dim=1, noise_dim=0, drift=lambda x, s: np.zeros(1),
                  extinction_distance=lambda x, s=None: np.zeros(np.shape(x)[:-1]))
    h = lambda x, s: np.full(np.shape(x)[:-1], 1.0)
    rep = robustness_scan(lambda theta: (m, h), [0.0, 0.5, 1.0],
                          [StateVector(np.zeros(1))],
                          SimConfig(dt=0.1, t_final=5.0), reps=1, seed=0)
    assert rep.monotone_envelope_ok
    assert rep.max_adjacent_gap == pytest.approx(0.0, abs=1e-12)


def test_robustness_scan_sis_beta_linear():
    # exponent = delta - beta * lambda_1 is linear in beta for constant K2
    from extinctd.models import make_sis

    def family(beta):
        b = make_sis([[0, 1], [1, 0]], beta=beta, delta=1.0)
        return b.boundary, b.boundary_H

    betas = [0.2, 0.4, 0.6]
    ics = [StateVector(np.array([0.8, 0.6]))]
    rep = robustness_scan(family, betas, ics,
                          SimConfig(dt=1e-3, t_final=60.0), reps=1, seed=0,
                          gap_tol=0.25)
    points = [e.point for _, e in rep.entries]
    for beta, p in zip(betas, points):
        assert p == pytest.approx(1.0 - beta, abs=0.02)


def test_linear_sde_exponent_cases():
    assert linear_sde_exponent(-np.eye(2)) == pytest.approx(1.0)
    assert linear_sde_exponent([[0.0, 1.0], [-1.0, 0.0]]) == pytest.approx(0.0, abs=1e-12)
    assert linear_sde_exponent([[-1.0, 5.0], [0.0, -3.0]]) == pytest.approx(1.0)
    with pytest.raises(NonSquare):
        linear_sde_exponent(np.zeros((2, 3)))


def test_robustness_scan_lorenz_alpha0():
    # cylinder exponent stays near 1 and moves continuously in the noise level
    from extinctd.models import make_lorenz

    def family(alpha0):
        b = make_lorenz(gamma=1.0, z_star=0.5, eta=1.0, alpha0=alpha0)
        return b.boundary, b.boundary_H

    ics = [StateVector(np.array([0.9, 0.5]))]
    lanes = functools.partial(make_lorenz(1.0, 0.5, 1.0, 0.0).boundary_lanes, "alpha0")
    rep = robustness_scan(family, [0.0, 0.05, 0.1, 0.2], ics,
                          SimConfig(dt=2e-3, t_final=600.0), reps=2, seed=20,
                          burn_in=50.0, gap_tol=0.05, lanes=lanes)
    points = [e.point for _, e in rep.entries]
    assert points[0] == pytest.approx(1.0, abs=0.02)
    assert all(0.8 <= p <= 1.05 for p in points)
    assert rep.monotone_envelope_ok, rep.discontinuities


LORENZ = {"gamma": 1.0, "z_star": 0.5, "eta": 1.0, "alpha0": 0.0}

# name: (scanned parameter, grid, other parameters, ics, replicas, t_final,
# whether H varies with the parameter)
LANE_SCANS = {
    # noise-free and noisy lanes share one block
    "alpha0-with-0": ("alpha0", [0.0, 0.05, 0.1, 0.2], {}, [(0.9, 0.5)], 2, 20.0, False),
    "z_star-2ics-3reps": ("z_star", [0.5, 1.0, 1.5], {"alpha0": 0.1},
                          [(0.9, 0.5), (2.0, 1.0)], 3, 10.0, False),
    "gamma-deterministic": ("gamma", [0.5, 1.0, 2.0], {}, [(0.9, 0.5), (2.0, 1.0)], 3,
                            10.0, False),
    # 12 values x 2 ics x 3 replicas = 72 lanes, two blocks of 36
    "alpha0-72-lanes": ("alpha0", [0.02 * i for i in range(1, 13)], {},
                        [(0.9, 0.5), (2.0, 1.0)], 3, 2.0, False),
    # each lane must be reduced with its own value's H
    "alpha0-own-H": ("alpha0", [0.0, 0.05, 0.1], {}, [(0.9, 0.5), (2.0, 1.0)], 2, 10.0, True),
    # one value steps as lanes too
    "alpha0-one-value": ("alpha0", [0.1], {}, [(0.9, 0.5), (2.0, 1.0)], 2, 10.0, False),
    "alpha0-one-value-0": ("alpha0", [0.0], {}, [(0.9, 0.5), (2.0, 1.0)], 2, 10.0, False),
}


def _lorenz_scan(case, lanes):
    from extinctd.models import make_lorenz

    param, grid, extra, ics, reps, t_final, own_H = LANE_SCANS[case]
    base = {**LORENZ, **extra}

    def family(theta):
        b = make_lorenz(**{**base, param: theta})
        if own_H:
            return b.boundary, lambda u, s=None: (1.0 + theta) * b.boundary_H(u, s)
        return b.boundary, b.boundary_H

    builder = functools.partial(make_lorenz(**base).boundary_lanes, param) if lanes else None
    return robustness_scan(family, grid, [StateVector(np.array(ic)) for ic in ics],
                           SimConfig(dt=2e-3, t_final=t_final), reps, seed=11,
                           burn_in=0.1 * t_final, lanes=builder)


def _estimate_bits(est):
    return [float(getattr(est, f)).hex() if isinstance(getattr(est, f), float)
            else getattr(est, f) for f in ("point", "ci_low", "ci_high", "n_replicas",
                                           "horizon", "method")]


@pytest.mark.parametrize("case", sorted(LANE_SCANS))
def test_lane_scan_gives_the_estimates_of_the_per_value_scan_bit_for_bit(case):
    block, serial = _lorenz_scan(case, True), _lorenz_scan(case, False)
    assert [t for t, _ in block.entries] == LANE_SCANS[case][1]
    assert ([(t, _estimate_bits(e)) for t, e in block.entries]
            == [(t, _estimate_bits(e)) for t, e in serial.entries])
    assert block.max_adjacent_gap == serial.max_adjacent_gap
    assert block.discontinuities == serial.discontinuities


def test_lane_scan_steps_all_values_as_lanes_of_one_block(monkeypatch):
    import extinctd.exponents as exponents

    calls = []

    def spy(model, replicas, cfg, reduce=None):
        calls.append((model.noise_dim, [k for k, _, _ in replicas]))
        return simulate_lanes(model, replicas, cfg, reduce)

    monkeypatch.setattr(exponents, "simulate_lanes", spy)
    _lorenz_scan("alpha0-with-0", True)
    # value-major: alpha0 = 0 runs once, each noisy value twice
    assert calls == [(1, [0, 0, 1, 0, 1, 0, 1])]
    calls.clear()
    _lorenz_scan("alpha0-72-lanes", True)
    assert [len(ks) for _, ks in calls] == [36, 36]
