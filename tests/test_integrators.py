import math
import re

import numpy as np
import pytest

from extinctd.errors import NonFiniteState, RateBoundViolated
from extinctd.integrators import (
    SimConfig,
    discrete_step,
    em_step,
    poissonize,
    simulate,
    switch_step,
)
from extinctd.lyapunov import occupation_average
from extinctd.process_core import ModelSpec, RngStream, StateVector


def ou_model(theta=1.0, sigma=math.sqrt(2.0)):
    return ModelSpec(
        family="sde", dim=1, noise_dim=1,
        drift=lambda x, s: -theta * x,
        diffusion=lambda x, s: np.array([[sigma]]),
        extinction_distance=lambda x, s=None: np.full(np.shape(x)[:-1], np.inf),
    )


def jump_model(q):
    q = np.asarray(q, dtype=float)
    return ModelSpec(
        family="switching_diffusion", dim=1, noise_dim=0,
        drift=lambda x, s: np.zeros(1),
        switch_rates=lambda x: q, n_regimes=q.shape[0],
        extinction_distance=lambda x, s=None: np.ones(np.shape(x)[:-1]),
    )


REGIME0 = lambda x, s: (np.asarray(s) == 0).astype(float)


def test_em_step_identity_dynamics():
    m = ModelSpec(family="sde", dim=2, noise_dim=0,
                  drift=lambda x, s: np.zeros(2),
                  extinction_distance=lambda x, s=None: np.ones(np.shape(x)[:-1]))
    out = em_step(m, StateVector(np.array([1.5, -2.0])), 0.3)
    assert np.array_equal(out.x, [1.5, -2.0])


def test_em_step_explicit_euler():
    m = ModelSpec(family="sde", dim=1, noise_dim=0,
                  drift=lambda x, s: -x,
                  extinction_distance=lambda x, s=None: np.abs(np.asarray(x)[..., 0]))
    out = em_step(m, StateVector(np.array([1.0])), 0.1)
    assert out.x[0] == pytest.approx(0.9)


def test_em_step_nonfinite_raises():
    m = ModelSpec(family="sde", dim=1, noise_dim=0,
                  drift=lambda x, s: np.array([np.inf]),
                  extinction_distance=lambda x, s=None: np.ones(np.shape(x)[:-1]))
    with pytest.raises(NonFiniteState):
        em_step(m, StateVector(np.array([1.0])), 0.1)


def test_simulate_nonfinite_names_the_step_and_time():
    # x climbs by dt = 0.5 per step; step 4 starts at x = 2 and blows up
    m = ModelSpec(family="sde", dim=1, noise_dim=0,
                  drift=lambda x, s: np.where(x >= 2.0, np.inf, 1.0),
                  extinction_distance=lambda x, s=None: np.ones(np.shape(x)[:-1]))
    cfg = SimConfig(dt=0.5, t_final=5.0)
    with pytest.raises(NonFiniteState, match=r"at step 4, t = 2\.5\b"):
        simulate(m, StateVector(np.array([0.0])), cfg, RngStream(0))


def test_simulate_failures_name_the_replica_step_and_time():
    m = ModelSpec(family="sde", dim=1, noise_dim=0,
                  drift=lambda x, s: np.where(x >= 2.0, np.inf, 1.0),
                  extinction_distance=lambda x, s=None: np.ones(np.shape(x)[:-1]))
    cfg = SimConfig(dt=0.5, t_final=5.0)
    with pytest.raises(NonFiniteState, match=r"^replica 3: non-finite state at step 4, t = 2\.5\b"):
        simulate(m, StateVector(np.array([0.0])), cfg, RngStream(7, 3))
    with pytest.raises(NonFiniteState, match=r"^non-finite state at step 4\b"):
        simulate(m, StateVector(np.array([0.0])), cfg, RngStream(7, 3).generator())

    jumpy = jump_model([[-3.0, 3.0], [3.0, -3.0]])
    cfg = SimConfig(dt=0.01, t_final=50.0, max_rate_bound=1.0)
    with pytest.raises(RateBoundViolated,
                       match=r"^replica 2: \|q_ii\(x\)\| = 3 exceeds rate bound 1 "
                             r"in step (\d+) \(rates frozen at t = [0-9.e-]+\)$") as info:
        simulate(jumpy, StateVector(np.zeros(1), 0), cfg, RngStream(1, 2))
    step, t = re.search(r"in step (\d+) \(rates frozen at t = (.+)\)", str(info.value)).groups()
    assert float(t) == int(step) * 0.01


def test_ou_stationary_variance():
    # dx = -x dt + sqrt(2) dW has stationary variance 1
    cfg = SimConfig(dt=1e-2, t_final=3000.0)
    traj = simulate(ou_model(), StateVector(np.array([0.0])), cfg, RngStream(21))
    var = occupation_average(traj, lambda x, s: np.asarray(x)[..., 0] ** 2,
                             burn_in=20.0)
    assert var == pytest.approx(1.0, abs=0.05)


def test_switch_step_zero_rates_never_switch():
    m = jump_model(np.zeros((2, 2)))
    sv = StateVector(np.zeros(1), 1)
    gen = RngStream(3).generator()
    for _ in range(50):
        sv = switch_step(m, sv, 0.1, gen)
    assert sv.regime == 1


def test_switch_occupation_symmetric():
    m = jump_model([[-1.0, 1.0], [1.0, -1.0]])
    cfg = SimConfig(dt=0.02, t_final=10_000.0)
    traj = simulate(m, StateVector(np.zeros(1), 0), cfg, RngStream(9))
    assert occupation_average(traj, REGIME0) == pytest.approx(0.5, abs=0.02)


def test_switch_occupation_asymmetric():
    # rho solves rho Q = 0: rho = (2/3, 1/3) by hand
    m = jump_model([[-1.0, 1.0], [2.0, -2.0]])
    cfg = SimConfig(dt=0.02, t_final=10_000.0)
    traj = simulate(m, StateVector(np.zeros(1), 0), cfg, RngStream(10))
    assert occupation_average(traj, REGIME0) == pytest.approx(2.0 / 3.0, abs=0.02)


def test_rate_bound_violation():
    m = jump_model([[-3.0, 3.0], [3.0, -3.0]])
    cfg = SimConfig(dt=0.01, t_final=50.0, max_rate_bound=1.0)
    with pytest.raises(RateBoundViolated):
        simulate(m, StateVector(np.zeros(1), 0), cfg, RngStream(1))


def test_discrete_step_examples(ricker_extinct):
    chain = ricker_extinct.model
    gen = RngStream(4).generator()
    out = discrete_step(chain, StateVector(np.zeros(1)), gen)
    assert out.x[0] == 0.0  # extinction set invariant

    from extinctd.models import make_ricker

    det = make_ricker(r=0.5, sigma=0.0)
    assert discrete_step(det.model, StateVector(np.array([0.5])), gen).x[0] == \
        pytest.approx(0.5)  # fixed point r = X
    assert discrete_step(det.model, StateVector(np.array([0.1])), gen).x[0] == \
        pytest.approx(0.1 * math.exp(0.4))


def test_poissonize_counts_and_constant_chain():
    ident = ModelSpec(family="discrete_chain", dim=1,
                      step_map=lambda x, xi: x,
                      noise_sampler=lambda gen: 0.0,
                      extinction_distance=lambda x, s=None: np.ones(np.shape(x)[:-1]))
    t_final = 10_000.0
    traj = poissonize(ident, StateVector(np.array([2.5])), RngStream(12), t_final)
    n_arrivals = traj.jumps.size
    assert abs(n_arrivals - t_final) <= 3.0 * math.sqrt(t_final)
    assert np.all(traj.states == 2.5)


def test_poissonize_time_average_matches_step_average():
    from extinctd.models import make_ricker

    b = make_ricker(r=0.5, sigma=0.2)
    g = lambda x, s: np.asarray(x)[..., 0]
    x0 = StateVector(np.array([0.5]))
    ptraj = poissonize(b.model, x0, RngStream(14), 10_000.0)
    ctraj = simulate(b.model, x0, SimConfig(dt=1.0, t_final=10_000.0),
                     RngStream(15))
    pavg = occupation_average(ptraj, g)
    cavg = occupation_average(ctraj, g)
    assert abs(pavg - cavg) / abs(cavg) < 0.02


def test_simulate_linear_ode_endpoint():
    m = ModelSpec(family="sde", dim=1, noise_dim=0,
                  drift=lambda x, s: -x,
                  extinction_distance=lambda x, s=None: np.abs(np.asarray(x)[..., 0]))
    cfg = SimConfig(dt=1e-3, t_final=1.0)
    traj = simulate(m, StateVector(np.array([1.0])), cfg, RngStream(0))
    assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=0.01)


def test_simulate_extinction_set_invariance(sis_k2, ricker_extinct):
    cfg = SimConfig(dt=1e-2, t_final=5.0)
    traj = simulate(sis_k2.model, StateVector(np.zeros(2)), cfg, RngStream(7))
    assert np.all(traj.states == 0.0)
    assert traj.duration == 5.0  # the floor must not stop boundary runs
    ctraj = simulate(ricker_extinct.model, StateVector(np.zeros(1)),
                     SimConfig(dt=1.0, t_final=40.0), RngStream(8))
    assert np.all(ctraj.states == 0.0)


def test_simulate_floor_early_stop():
    m = ModelSpec(family="sde", dim=1, noise_dim=0,
                  drift=lambda x, s: -5.0 * x,
                  extinction_distance=lambda x, s=None: np.abs(np.asarray(x)[..., 0]))
    cfg = SimConfig(dt=1e-3, t_final=50.0, floor_epsilon=1e-8)
    traj = simulate(m, StateVector(np.array([1.0])), cfg, RngStream(0))
    assert traj.duration < 50.0
    assert abs(traj.states[-1, 0]) <= 1e-8


def test_weak_order_bias_halves():
    # EM mean for the OU process is exactly x0 (1 - dt)^(t/dt); halving dt
    # at least halves the bias against x0 e^(-t), within Monte Carlo noise
    x0, n = 5.0, 20_000
    exact = x0 * math.exp(-1.0)

    def mean_at_one(dt, seed):
        m = ou_model()
        cfg = SimConfig(dt=dt, t_final=1.0)
        vals = [simulate(m, StateVector(np.array([x0])), cfg, RngStream(seed, r)
                         ).states[-1, 0] for r in range(n)]
        return float(np.mean(vals))

    bias_a = abs(mean_at_one(0.2, 100) - exact)
    bias_b = abs(mean_at_one(0.1, 200) - exact)
    se = 0.93 / math.sqrt(n)
    assert bias_b <= 0.5 * bias_a + 3.0 * math.sqrt(2.0) * se


def test_jump_times_recorded_on_grid():
    m = jump_model([[-2.0, 2.0], [2.0, -2.0]])
    cfg = SimConfig(dt=0.05, t_final=50.0)
    traj = simulate(m, StateVector(np.zeros(1), 0), cfg, RngStream(33))
    assert traj.jumps.size > 20
    # regime constant between consecutive jumps, changes exactly at them
    changed = np.flatnonzero(np.diff(traj.regimes)) + 1
    assert np.isin(changed, traj.jumps).all()
    # jump times are genuine off-grid insertions
    off_grid = [t for t in traj.times[traj.jumps]
                if abs(t / cfg.dt - round(t / cfg.dt)) > 1e-6]
    assert len(off_grid) > 0


def test_switch_step_first_order_jump_law():
    # P(jump in [0, dt)) = |q_ii| dt + o(dt) for the frozen-state clock
    m = jump_model([[-1.0, 1.0], [2.0, -2.0]])
    gen = RngStream(60).generator()
    dt, n = 0.05, 20_000
    jumps = sum(switch_step(m, StateVector(np.zeros(1), 0), dt, gen).regime != 0
                for _ in range(n))
    p_exact = 1.0 - math.exp(-dt)  # q_01 = 1
    se = math.sqrt(n * p_exact * (1 - p_exact))
    assert abs(jumps - n * p_exact) <= 4.0 * se


def test_linear_origin_invariant():
    from extinctd.models import make_linear_sde

    b = make_linear_sde([[-0.5, 0.2], [0.1, -1.0]], [[0.3, 0.0], [0.0, 0.3]])
    traj = simulate(b.model, StateVector(np.zeros(2)),
                    SimConfig(dt=1e-2, t_final=2.0), RngStream(61))
    assert np.all(traj.states == 0.0)
