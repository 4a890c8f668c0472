import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extinctd.errors import EmptyWindow, NonFiniteObservable
from extinctd.integrators import SimConfig, simulate
from extinctd.lyapunov import (
    LyapunovSuite,
    constant_suite,
    dynkin_residual,
    gamma_apply,
    generator_apply,
    occupation_average,
    qv_residual,
    strong_law_check,
    suite_diagnostics,
    tightness_check,
)
from extinctd.process_core import ModelSpec, RngStream, StateVector, Trajectory

X = lambda x, s: np.asarray(x)[..., 0]
X2 = lambda x, s: np.asarray(x)[..., 0] ** 2
ONE = lambda x, s: np.ones(np.shape(x)[:-1])
ZERO = lambda x, s: np.zeros(np.shape(x)[:-1])


def ou_model():
    return ModelSpec(family="sde", dim=1, noise_dim=1,
                     drift=lambda x, s: -x,
                     diffusion=lambda x, s: np.array([[math.sqrt(2.0)]]),
                     extinction_distance=lambda x, s=None: np.full(np.shape(x)[:-1], np.inf))


def brownian_paths(n, steps, dt, seed):
    gen = RngStream(seed).generator()
    dw = gen.standard_normal((n, steps)) * math.sqrt(dt)
    paths = np.concatenate([np.zeros((n, 1)), np.cumsum(dw, axis=1)], axis=1)
    times = np.arange(steps + 1) * dt
    return [Trajectory(times, p[:, None]) for p in paths]


def test_dynkin_ode_residual_small():
    m = ModelSpec(family="sde", dim=1, noise_dim=0, drift=lambda x, s: -x,
                  extinction_distance=lambda x, s=None: np.ones(np.shape(x)[:-1]))
    traj = simulate(m, StateVector(np.array([1.0])), SimConfig(dt=1e-3, t_final=2.0),
                    RngStream(0))
    res = dynkin_residual(traj, X, lambda x, s: -np.asarray(x)[..., 0])
    assert np.max(np.abs(res)) < 5e-3  # O(dt)


def test_dynkin_constant_trajectory_exact_zero():
    traj = Trajectory(np.linspace(0, 1, 11), np.full((11, 1), 2.0))
    res = dynkin_residual(traj, X2, ZERO)
    assert np.all(res == 0.0)


def test_dynkin_brownian_square_is_centered():
    trajs = brownian_paths(3000, 500, 1.0 / 500, seed=77)
    finals = [dynkin_residual(t, X2, ONE)[-1] for t in trajs]
    mean = float(np.mean(finals))
    se = float(np.std(finals, ddof=1)) / math.sqrt(len(finals))
    assert abs(mean) <= 4.0 * se
    # residual at t=1 is B_1^2 - 1 up to quadrature error
    b1 = trajs[0].states[-1, 0]
    assert finals[0] == pytest.approx(b1 ** 2 - 1.0, abs=1e-9)


def test_qv_brownian_and_variance_identity():
    trajs = brownian_paths(3000, 500, 1.0 / 500, seed=78)
    qv_finals = [qv_residual(t, X, ZERO, ONE)[-1] for t in trajs]
    mean = float(np.mean(qv_finals))
    se = float(np.std(qv_finals, ddof=1)) / math.sqrt(len(qv_finals))
    assert abs(mean) <= 4.0 * se

    # replica variance of M_1 = B_1 matches the mean of int Gamma = 1
    m_finals = np.array([dynkin_residual(t, X, ZERO)[-1] for t in trajs])
    assert float(np.var(m_finals)) == pytest.approx(1.0, rel=0.1)


def test_qv_ou_variance():
    # OU with f = x: Gamma f = 2, so Var(M_1) ~ 2
    m = ou_model()
    cfg = SimConfig(dt=2e-3, t_final=1.0)
    finals = []
    for r in range(3000):
        traj = simulate(m, StateVector(np.array([0.5])), cfg, RngStream(80, r))
        finals.append(dynkin_residual(traj, X,
                                      lambda x, s: -np.asarray(x)[..., 0])[-1])
    assert float(np.var(finals)) == pytest.approx(2.0, rel=0.1)


@given(st.floats(min_value=-50, max_value=50))
@settings(max_examples=20, deadline=None)
def test_occupation_average_constant_exact(c):
    traj = Trajectory(np.linspace(0, 3, 31), np.random.rand(31, 1))
    g = lambda x, s: np.full(np.shape(x)[:-1], c)
    assert occupation_average(traj, g) == pytest.approx(c, abs=1e-12)


def test_occupation_average_ou_second_moment():
    cfg = SimConfig(dt=1e-2, t_final=3000.0)
    traj = simulate(ou_model(), StateVector(np.array([0.0])), cfg, RngStream(81))
    assert occupation_average(traj, X2, burn_in=50.0) == pytest.approx(1.0, abs=0.05)


def test_occupation_average_empty_window():
    traj = Trajectory(np.linspace(0, 1, 11), np.zeros((11, 1)))
    with pytest.raises(EmptyWindow):
        occupation_average(traj, X, burn_in=2.0)


def test_occupation_average_refinement_invariant_piecewise_constant():
    # value changes only at jump indices; refining the reporting grid
    # between jumps must not change the average
    times = np.array([0.0, 1.0, 2.5, 4.0])
    states = np.array([[1.0], [3.0], [3.0], [-2.0]])
    coarse = Trajectory(times, states, jumps=np.array([1, 3]))
    # refine: insert midpoints carrying the left value (cadlag)
    ft = np.array([0.0, 0.5, 1.0, 1.75, 2.5, 3.25, 4.0])
    fs = np.array([[1.0], [1.0], [3.0], [3.0], [3.0], [3.0], [-2.0]])
    fine = Trajectory(ft, fs, jumps=np.array([2, 6]))
    a = occupation_average(coarse, X)
    b = occupation_average(fine, X)
    assert a == pytest.approx(b, abs=1e-12)
    assert a == pytest.approx((1.0 * 1.0 + 3.0 * 3.0) / 4.0, abs=1e-12)


def test_tightness_compact_and_violation():
    traj = brownian_paths(1, 2000, 0.01, seed=6)[0]
    suite = constant_suite(V=X, H=ZERO, gammaV=ONE, K=1.0)
    rep = tightness_check(traj, suite)
    assert rep.passed and rep.tail_average == pytest.approx(1.0, abs=1e-9)

    # diverging deterministic model dx = x dt with W' = 1 + x^2 gets flagged
    m = ModelSpec(family="sde", dim=1, noise_dim=0, drift=lambda x, s: x,
                  extinction_distance=lambda x, s=None: np.ones(np.shape(x)[:-1]))
    traj2 = simulate(m, StateVector(np.array([1.0])), SimConfig(dt=1e-3, t_final=8.0),
                     RngStream(1))
    wprime = lambda x, s: 1.0 + np.asarray(x)[..., 0] ** 2
    bad = LyapunovSuite(V=X, H=ZERO, gammaV=ZERO, W=wprime, Wprime=wprime,
                        U=wprime, Uprime=wprime, K=5.0)
    assert not tightness_check(traj2, bad).passed


def test_tightness_ou():
    cfg = SimConfig(dt=1e-2, t_final=1500.0)
    traj = simulate(ou_model(), StateVector(np.array([0.0])), cfg, RngStream(82))
    wprime = lambda x, s: 1.0 + np.asarray(x)[..., 0] ** 2
    suite = LyapunovSuite(V=X, H=ZERO, gammaV=ZERO, W=wprime, Wprime=wprime,
                          U=wprime, Uprime=wprime, K=2.5)
    rep = tightness_check(traj, suite, tail_fraction=1.0 / 3.0)
    assert rep.passed
    assert rep.tail_average == pytest.approx(2.0, abs=0.1)


def test_generator_apply_matches_ou_closed_forms():
    m = ou_model()
    for x0 in (0.3, -1.2, 2.0):
        p = StateVector(np.array([x0]))
        # L(x^2) = -2x^2 + 2, Gamma(x^2) = 8x^2, L(x) = -x, Gamma(x) = 2
        assert generator_apply(m, X2, p) == pytest.approx(2.0 - 2.0 * x0 ** 2, abs=1e-5)
        assert gamma_apply(m, X2, p) == pytest.approx(8.0 * x0 ** 2, abs=1e-5)
        assert generator_apply(m, X, p) == pytest.approx(-x0, abs=1e-7)
        assert gamma_apply(m, X, p) == pytest.approx(2.0, abs=1e-7)


def test_generator_apply_switching_jump_part():
    q = np.array([[-1.0, 1.0], [2.0, -2.0]])
    m = ModelSpec(family="switching_diffusion", dim=1, noise_dim=0,
                  drift=lambda x, s: np.zeros(1),
                  switch_rates=lambda x: q, n_regimes=2,
                  extinction_distance=lambda x, s=None: np.ones(np.shape(x)[:-1]))
    f = lambda x, s: np.where(np.asarray(s) == 0, 1.0, 5.0)
    # Lf(., 0) = q01 (f1 - f0) = 4; Gamma = q01 (f1-f0)^2 = 16
    assert generator_apply(m, f, StateVector(np.zeros(1), 0)) == pytest.approx(4.0)
    assert gamma_apply(m, f, StateVector(np.zeros(1), 0)) == pytest.approx(16.0)
    assert generator_apply(m, f, StateVector(np.zeros(1), 1)) == pytest.approx(-8.0)


def test_generator_apply_chain_monte_carlo(ricker_extinct):
    # H_1(x) = -E[log F] = x - r for the Ricker chain
    p = StateVector(np.array([0.7]))
    lv = generator_apply(ricker_extinct.model, ricker_extinct.suite.V, p,
                         rng=RngStream(9), n_mc=40_000)
    assert lv == pytest.approx(0.7 + 0.3, abs=0.01)


def test_suite_diagnostics_pass_and_fail(sis_k2):
    gen = np.random.default_rng(31)
    pts = [StateVector(gen.uniform(0.05, 0.95, 2)) for _ in range(25)]
    rep = suite_diagnostics(sis_k2.model, sis_k2.suite, pts)
    assert rep.passed

    import dataclasses

    broken = dataclasses.replace(sis_k2.suite, K=0.0)
    rep2 = suite_diagnostics(sis_k2.model, broken, pts)
    assert not rep2.passed
    assert rep2.violations["LW <= K - W'"] == pytest.approx(1.0, abs=1e-6)


def test_suite_diagnostics_lorenz_ball(lorenz_noisy):
    gen = np.random.default_rng(32)
    pts = [StateVector(gen.uniform(-3.0, 3.0, 3)) for _ in range(100)]
    rep = suite_diagnostics(lorenz_noisy.model, lorenz_noisy.suite, pts)
    assert rep.passed, rep.violations


def test_lorenz_lu_finite_difference_vs_symbolic(lorenz_noisy):
    # independent symbolic check of L(exp(eps q)) for the shipped quadratic
    gamma, z_star, eta, alpha0 = 1.0, 0.5, 1.0, 0.05
    eps, a = 0.05, 2.0 * eta - 1.0 + 2.0 * eta ** 2

    def ubar(x, s=None):
        x = np.asarray(x, dtype=float)
        q = a * x[..., 0] ** 2 + (x[..., 0] + eta * x[..., 1]) ** 2 + eta * x[..., 2] ** 2
        return np.exp(eps * q)

    def lu_symbolic(u):
        x, y, z = u
        w = x + eta * y
        dq = np.array([2 * a * x + 2 * w, 2 * eta * w, 2 * eta * z])
        drift = np.array([y, x * (z - 2) - 2 * y, -(gamma * (z - z_star)) - x * w])
        return ubar(u) * (eps * float(drift @ dq)
                          + 0.5 * alpha0 ** 2 * (2 * eps * eta + (eps * dq[2]) ** 2))

    gen = np.random.default_rng(33)
    for _ in range(20):
        p = StateVector(gen.uniform(-2, 2, 3))
        fd = generator_apply(lorenz_noisy.model, ubar, p)
        assert fd == pytest.approx(lu_symbolic(p.x), rel=1e-5, abs=1e-7)


def test_strong_law_brownian_and_ode():
    trajs = brownian_paths(40, 800, 0.5, seed=41)  # horizon 400
    rep = strong_law_check(trajs, X, ZERO)
    assert rep.shrinking
    assert 0.2 < rep.ratio < 0.8  # sqrt(T) scaling gives ~0.5

    m = ModelSpec(family="sde", dim=1, noise_dim=0, drift=lambda x, s: -x,
                  extinction_distance=lambda x, s=None: np.ones(np.shape(x)[:-1]))
    cfg = SimConfig(dt=1e-2, t_final=100.0)
    dets = [simulate(m, StateVector(np.array([1.0])), cfg, RngStream(1, r))
            for r in range(30)]
    rep2 = strong_law_check(dets, X, lambda x, s: -np.asarray(x)[..., 0])
    assert rep2.max_full < 1e-4


def test_strong_law_needs_replicas():
    trajs = brownian_paths(5, 10, 0.1, seed=2)
    with pytest.raises(ValueError):
        strong_law_check(trajs, X, ZERO)


def test_nonfinite_observable_raises():
    traj = Trajectory(np.linspace(0, 1, 5), np.zeros((5, 1)))
    bad = lambda x, s: np.full(np.shape(x)[:-1], np.nan)
    with pytest.raises(NonFiniteObservable):
        dynkin_residual(traj, bad, ZERO)


def test_strong_law_ou_decreasing():
    m = ou_model()
    cfg = SimConfig(dt=1e-2, t_final=200.0)
    trajs = [simulate(m, StateVector(np.array([0.5])), cfg, RngStream(90, r))
             for r in range(30)]
    rep = strong_law_check(trajs, X, lambda x, s: -np.asarray(x)[..., 0])
    assert rep.max_full < rep.max_half  # bounded QV rate: |M_T|/T decreases


def test_qv_residual_ode_is_quadratically_small():
    m = ModelSpec(family="sde", dim=1, noise_dim=0, drift=lambda x, s: -x,
                  extinction_distance=lambda x, s=None: np.ones(np.shape(x)[:-1]))
    traj = simulate(m, StateVector(np.array([1.0])), SimConfig(dt=1e-3, t_final=2.0),
                    RngStream(0))
    qv = qv_residual(traj, X, lambda x, s: -np.asarray(x)[..., 0], ZERO)
    assert np.max(np.abs(qv)) < 3e-5  # square of the O(dt) Dynkin residual
