import dataclasses
import math
import re

import numpy as np
import pytest

from extinctd.errors import NonFiniteState, RateBoundViolated
from extinctd.integrators import (
    _CHUNK,
    _FLOOR_EVERY,
    SimConfig,
    _advance,
    _clock,
    _jump_step,
    discrete_step,
    em_step,
    poissonize,
    simulate,
    simulate_lanes,
    switch_step,
)
from extinctd.lyapunov import occupation_average
from extinctd.models import make_linear_sde
from extinctd.process_core import ModelSpec, RngStream, StateVector, Trajectory, replica_streams


def ou_model(theta=1.0, sigma=math.sqrt(2.0)):
    return ModelSpec(
        family="sde", dim=1, noise_dim=1,
        drift=lambda x, s: -theta * x,
        diffusion=lambda x, s: np.array([[sigma]]),
        extinction_distance=lambda x, s=None: np.full(np.shape(x)[:-1], np.inf),
    )


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["dt", "t_final", "max_rate_bound", "floor_epsilon"])
def test_sim_config_rejects_non_finite_values(name, value):
    # a NaN max_rate_bound used to pass, and a two-regime SIS run with it made
    # no regime jump; a NaN floor_epsilon turned the floor off
    with pytest.raises(ValueError, match=name):
        SimConfig(**{"dt": 0.001, "t_final": 1.0, name: value})
    SimConfig(dt=0.001, t_final=1.0, max_rate_bound=None)


def jump_model(q):
    q = np.asarray(q, dtype=float)
    return ModelSpec(
        family="switching_diffusion", dim=1, noise_dim=0,
        drift=lambda x, s: np.zeros(1),
        switch_rates=lambda x: q, n_regimes=q.shape[0],
        extinction_distance=lambda x, s=None: np.ones(np.shape(x)[:-1]),
    )


def fast_switching_model():
    """Two regimes switching at rates 30 and 40, so a step of 0.02 often
    holds several jumps, with x decaying towards the floor at 0."""
    q = np.array([[-30.0, 30.0], [40.0, -40.0]])
    return ModelSpec(family="switching_diffusion", dim=1, noise_dim=1,
                     drift=lambda x, s: -x * (1.0 + np.asarray(s, dtype=float)[..., None]),
                     diffusion_diag=lambda x, s: 0.3 * x,
                     switch_rates=lambda x: q, n_regimes=2,
                     extinction_distance=lambda x, s=None: np.abs(np.asarray(x)[..., 0]))


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


def test_em_step_rejects_misshapen_noise_and_state():
    # one normal used to be broadcast to both noise coordinates
    m = ModelSpec(family="sde", dim=2, noise_dim=2,
                  drift=lambda x, s: np.zeros_like(x),
                  diffusion_diag=lambda x, s: 0.5 * x,
                  extinction_distance=lambda x, s=None: np.ones(np.shape(x)[:-1]))
    x = StateVector(np.array([1.0, 2.0]))
    for noise in ([1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]], 1.0):
        with pytest.raises(ValueError, match="noise has shape"):
            em_step(m, x, 0.01, noise)
    with pytest.raises(ValueError, match="state has dim 3, model wants 2"):
        em_step(m, StateVector(np.ones(3)), 0.01, [1.0, 0.0])
    assert np.array_equal(em_step(m, x, 0.01, [1.0, 0.0]).x, [1.05, 2.0])


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


def _assert_same_paths(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.states, b.states)
        assert (a.regimes is None) == (b.regimes is None)
        if b.regimes is not None:
            np.testing.assert_array_equal(a.regimes, b.regimes)
        np.testing.assert_array_equal(a.jumps, b.jumps)


def _diffusion_reference(model, ic, cfg, rng):
    """The serial Euler-Maruyama loop that diffusions ran before ``simulate``
    stepped a block of one lane: one state, chunks of normals and regime
    clock counts drawn in turn, a split step for each nonzero count, and the
    floor stop."""
    gen = rng.generator()
    dt, nd = cfg.dt, model.noise_dim
    s, lam = _clock(model, ic, cfg)
    x = ic.x.copy()
    times, states, regimes, jumps = [0.0], [x], [s], []

    def push(t, xj, sj, jump=True):
        if jump:
            jumps.append(len(times))
        times.append(t)
        states.append(xj)
        regimes.append(sj)

    floor_on = float(model.extinction_distance(x, s)) > cfg.floor_epsilon
    for k in range(int(round(cfg.t_final / dt))):
        if k % _CHUNK == 0:
            zb = gen.standard_normal((_CHUNK, nd)) if nd > 0 else None
            cb = gen.poisson(lam * dt, _CHUNK) if lam > 0.0 else None
        z = None if zb is None else zb[k % _CHUNK]
        if cb is not None and cb[k % _CHUNK] > 0:
            x, s, pending = _jump_step(model, x, s, k, dt, z, gen, lam, cb[k % _CHUNK], push)
        else:
            x, pending = _advance(model, x, s, dt, None if z is None else math.sqrt(dt) * z), False
        push((k + 1) * dt, x, s, pending)
        if floor_on and float(model.extinction_distance(x, s)) < cfg.floor_epsilon:
            break
    return Trajectory(np.array(times), np.array(states),
                      None if s is None else np.array(regimes), np.array(jumps, dtype=np.int64))


def _assert_simulate_and_lanes_follow_the_reference(model, replicas, cfg):
    want = [_diffusion_reference(model, ic, cfg, rng) for _, ic, rng in replicas]
    _assert_same_paths([simulate(model, ic, cfg, rng) for _, ic, rng in replicas], want)
    _assert_same_paths(simulate_lanes(model, replicas, cfg), want)
    return want


def test_simulate_lanes_equals_simulate_across_floor_stops(sis_k2):
    ics = [StateVector(np.array(x)) for x in ([0.6, 0.25], [0.1, 0.05], [0.3, 0.3])]
    cfg = SimConfig(dt=1e-3, t_final=30.0, floor_epsilon=1e-3)
    replicas = replica_streams(ics, 2, 4)
    want = _assert_simulate_and_lanes_follow_the_reference(sis_k2.model, replicas, cfg)
    assert len({len(t.times) for t in want}) == len(want)  # every lane stops at its own step
    assert all(t.duration < cfg.t_final for t in want)


def test_simulate_lanes_splices_inserted_and_folded_jumps(monkeypatch):
    # a wide time guard folds many jumps into grid points; fast switching
    # inserts several points into one step
    import extinctd.integrators as integrators

    monkeypatch.setattr(integrators, "_TIME_GUARD", 0.3)
    m = fast_switching_model()
    cfg = SimConfig(dt=0.02, t_final=4.0, max_rate_bound=200.0)
    replicas = replica_streams([StateVector(np.array([1.0]), 0),
                                StateVector(np.array([0.5]), 1)], 2, 9)
    want = _assert_simulate_and_lanes_follow_the_reference(m, replicas, cfg)
    on_grid = [np.isin(t.times[t.jumps], np.arange(201) * cfg.dt) for t in want]
    assert all(g.any() and not g.all() for g in on_grid)


def test_simulate_follows_the_reference_on_every_registered_spec(monkeypatch):
    # simulate is a block of one lane that calls the model on its 1-d row;
    # it must give the serial loop's path on every shipped spec
    import extinctd.integrators as integrators
    from extinctd.process_core import make_bundle, registered_models
    from test_models import REGISTERED_PARAMS

    cfg = SimConfig(dt=0.01, t_final=2.0)
    checked = 0
    for name in registered_models():
        bundle = make_bundle(name, REGISTERED_PARAMS[name])
        x0 = bundle.default_ic
        ics = (x0, bundle.boundary_ic, None if bundle.quad_map is None else
               StateVector(bundle.quad_map.inverse(x0.x), x0.regime))
        for spec, ic in zip((bundle.model, bundle.boundary, bundle.blowup), ics):
            if spec is None:
                continue
            for _, ic, rng in replica_streams([ic], 2, 6):
                if spec.family == "discrete_chain":
                    chain_cfg = SimConfig(dt=1.0, t_final=200.0)
                    want = _chain_reference(spec, ic, chain_cfg, rng)
                    _assert_same_paths([simulate(spec, ic, chain_cfg, rng)], [want])
                else:
                    want = _diffusion_reference(spec, ic, cfg, rng)
                    _assert_same_paths([simulate(spec, ic, cfg, rng)], [want])
            checked += 1
    assert checked == 13  # the 11 diffusion specs and eco-discrete's chain and boundary

    # a switching path that inserts and folds jumps and stops at the floor
    monkeypatch.setattr(integrators, "_TIME_GUARD", 0.3)
    m = fast_switching_model()
    cfg = SimConfig(dt=0.02, t_final=4.0, max_rate_bound=200.0, floor_epsilon=0.05)
    ic, rng = StateVector(np.array([1.0]), 0), RngStream(5, 1)
    want = _diffusion_reference(m, ic, cfg, rng)
    assert want.duration < cfg.t_final
    on_grid = np.isin(want.times[want.jumps], np.arange(201) * cfg.dt)
    assert on_grid.any() and not on_grid.all()
    _assert_same_paths([simulate(m, ic, cfg, rng)], [want])


def _serial_failure(model, replicas, cfg, exc_type):
    with pytest.raises(exc_type) as info:
        for _, ic, rng in replicas:
            simulate(model, ic, cfg, rng)
    return str(info.value)


def _assert_lanes_raise_the_serial_failure(model, replicas, cfg, exc_type):
    """``simulate_lanes`` raises exactly the error that running the replicas
    one after another raises; returns its message."""
    message = _serial_failure(model, replicas, cfg, exc_type)
    with pytest.raises(exc_type) as info:
        simulate_lanes(model, replicas, cfg)
    assert str(info.value) == message
    return message


def test_simulate_lanes_raises_the_failure_serial_order_would():
    # lane 3 blows up at step 2, lane 1 at step 4; replicas run one after
    # another raise lane 1's error, and so must the lockstep block
    m = ModelSpec(family="sde", dim=1, noise_dim=0,
                  drift=lambda x, s: np.where(x >= 2.0, np.inf, 1.0),
                  extinction_distance=lambda x, s=None: np.ones(np.shape(x)[:-1]))
    cfg = SimConfig(dt=0.5, t_final=5.0)
    ics = [StateVector(np.array([x])) for x in (-100.0, 0.0, -100.0, 1.0)]
    replicas = replica_streams(ics, 1, 7)
    message = _assert_lanes_raise_the_serial_failure(m, replicas, cfg, NonFiniteState)
    assert re.match(r"^replica 1: non-finite state at step 4, t = 2\.5\b", message)

    # the same rule for a rate bound that lane 3 breaks first
    q = np.array([[-0.5, 0.5], [0.5, -0.5]])
    jumpy = ModelSpec(family="switching_diffusion", dim=1, noise_dim=0,
                      drift=lambda x, s: np.ones_like(x),
                      switch_rates=lambda x: q * (1.0 if x[0] < 1.0 else 10.0), n_regimes=2,
                      extinction_distance=lambda x, s=None: np.ones(np.shape(x)[:-1]))
    cfg = SimConfig(dt=0.01, t_final=50.0, max_rate_bound=1.0)
    ics = [StateVector(np.array([x]), 0) for x in (-1e6, -1.0, -1e6, 2.0)]
    replicas = replica_streams(ics, 1, 3)
    message = _assert_lanes_raise_the_serial_failure(jumpy, replicas, cfg, RateBoundViolated)
    step = lambda text: int(re.search(r"in step (\d+) ", text).group(1))
    lane3 = _serial_failure(jumpy, replicas[3:], cfg, RateBoundViolated)
    assert message.startswith("replica 1: ") and lane3.startswith("replica 3: ")
    assert step(lane3) < step(message)

    # a drift that raises for lane 1 from step 0, while lane 0 overflows at
    # step 12: the block step raises, and the lanes step alone
    raised = []

    def drift(x, s):
        if np.any(x >= 2.0):
            raised.append(x)
            raise ValueError("drift at x >= 2")
        return -50.0 * x * x

    m = ModelSpec(family="sde", dim=1, noise_dim=0, drift=drift,
                  extinction_distance=lambda x, s=None: np.ones(np.shape(x)[:-1]))
    replicas = replica_streams([StateVector(np.array([x])) for x in (-1.0, 2.0)], 1, 7)
    with np.errstate(over="ignore"):
        message = _assert_lanes_raise_the_serial_failure(
            m, replicas, SimConfig(dt=0.01, t_final=5.0), NonFiniteState)
    assert re.match(r"^replica 0: non-finite state at step 12, t = 0\.13\b", message)
    # serial order never runs replica 1; in the block, the drift raises in
    # step 0 and in lane 1's step alone, and then never sees lane 1's row
    assert len(raised) == 2

    # switch_rates raises for lane 3 (x > 5), in a jump step once its regime
    # clock fires, or at set-up when the rate bound comes from x0; lane 1
    # blows up at step 4
    def rates(x):
        if x[0] > 5.0:
            raise ValueError("switch_rates at x > 5")
        return q

    seen = []

    def drift(x, s):
        seen.append(np.max(x))
        return np.where((x >= 2.0) & (x < 5.0), np.inf, 1.0)

    jumpy = ModelSpec(family="switching_diffusion", dim=1, noise_dim=0, drift=drift,
                      switch_rates=rates, n_regimes=2,
                      extinction_distance=lambda x, s=None: np.ones(np.shape(x)[:-1]))
    ics = [StateVector(np.array([x]), 0) for x in (-100.0, 0.0, -100.0, 10.0)]
    replicas = replica_streams(ics, 1, 3)
    for bound in (1.0, None):
        seen.clear()
        cfg = SimConfig(dt=0.5, t_final=5.0, max_rate_bound=bound)
        with pytest.raises(ValueError, match="switch_rates"):
            simulate(jumpy, replicas[3][1], cfg, replicas[3][2])
        message = _assert_lanes_raise_the_serial_failure(jumpy, replicas, cfg, NonFiniteState)
        assert re.match(r"^replica 1: non-finite state at step 4, t = 2\.5\b", message)
    assert max(seen) < 5.0  # lane 3 never steps, and the drift never sees its row

    # lane 1's drift raises at x0 and its rates break the bound there; its
    # regime clock fires in step 0, so it takes that step by thinning, which
    # raises the rate bound first, in its block as alone
    def drift(x, s):
        if np.any(x >= 2.0):
            raise ValueError("drift at x >= 2")
        return np.ones_like(x)

    jumpy = ModelSpec(family="switching_diffusion", dim=1, noise_dim=0, drift=drift,
                      switch_rates=lambda x: q * (1.0 if x[0] < 2.0 else 10.0), n_regimes=2,
                      extinction_distance=lambda x, s=None: np.ones(np.shape(x)[:-1]))
    replicas = replica_streams([StateVector(np.array([x]), 0) for x in (-100.0, 2.0)], 1, 2)
    cfg = SimConfig(dt=0.5, t_final=5.0, max_rate_bound=1.0)
    message = _assert_lanes_raise_the_serial_failure(jumpy, replicas, cfg, RateBoundViolated)
    assert message.startswith("replica 1: ") and step(message) == 0


def test_a_toolkit_error_from_a_drift_names_its_replica_step_and_time():
    # lane 3's drift raises at step 2 and lane 1's at step 4: the error is
    # lane 1's, named by replica, step and time, alone as in a block
    from extinctd.errors import NonPositiveF

    def drift(x, s):
        if np.any(x >= 2.0):
            raise NonPositiveF("drift met x >= 2")
        return np.ones_like(x)

    m = ModelSpec(family="sde", dim=1, noise_dim=0, drift=drift,
                  extinction_distance=lambda x, s=None: np.ones(np.shape(x)[:-1]))
    replicas = replica_streams([StateVector(np.array([x])) for x in (-100.0, 0.0, -100.0, 1.0)],
                               1, 7)
    message = _assert_lanes_raise_the_serial_failure(m, replicas, SimConfig(dt=0.5, t_final=5.0),
                                                     NonPositiveF)
    assert message == "replica 1: drift met x >= 2 at step 4, t = 2.5"

    # the same drift in a step that the regime clock splits at every jump
    q = np.array([[-50.0, 50.0], [50.0, -50.0]])
    jumpy = ModelSpec(family="switching_diffusion", dim=1, noise_dim=0, drift=drift,
                      switch_rates=lambda x: q, n_regimes=2,
                      extinction_distance=lambda x, s=None: np.ones(np.shape(x)[:-1]))
    replicas = replica_streams([StateVector(np.array([x]), 0) for x in (-100.0, 0.0, -100.0, 1.0)],
                               1, 7)
    cfg = SimConfig(dt=0.5, t_final=5.0, max_rate_bound=50.0)
    message = _assert_lanes_raise_the_serial_failure(jumpy, replicas, cfg, NonPositiveF)
    assert re.match(r"^replica 1: drift met x >= 2 at step [45], t = [0-9.]+$", message)


def test_simulate_lanes_reduces_the_paths_below_a_failure_before_raising():
    # replica 1 blows up at step 4; replica 0 runs to the end, and its path
    # is too short for a slope, so serial order raises WindowTooShort first
    from extinctd.errors import WindowTooShort
    from extinctd.exponents import trajectory_slope

    m = ModelSpec(family="sde", dim=1, noise_dim=0,
                  drift=lambda x, s: np.where(x >= 2.0, np.inf, 1.0),
                  extinction_distance=lambda x, s=None: np.ones(np.shape(x)[:-1]))
    cfg = SimConfig(dt=0.5, t_final=5.0)
    replicas = replica_streams([StateVector(np.array([x])) for x in (-100.0, 0.0)], 1, 7)
    slope = lambda traj: trajectory_slope(traj, lambda x, s=None: x[..., 0]).point
    with pytest.raises(WindowTooShort) as serial:
        [slope(simulate(m, ic, cfg, rng)) for _, ic, rng in replicas]
    with pytest.raises(WindowTooShort) as info:
        simulate_lanes(m, replicas, cfg, slope)
    assert str(info.value) == str(serial.value)
    assert [len(t.times) for t in simulate_lanes(m, replicas[:1], cfg)] == [11]


def test_simulate_lanes_raises_the_lowest_failing_chain_lane():
    # F turns nonpositive once x reaches 8, which x0 = 2 does at step 2 and
    # x0 = 0.5 at step 4; the block's step_map raises at step 2, and the
    # error serial order gives is replica 1's at step 4
    from extinctd.errors import NonPositiveF
    from extinctd.models import make_ecological_discrete

    chain = make_ecological_discrete(1, lambda x, xi: np.where(x >= 8.0, -1.0, 2.0),
                                     lambda gen, size=None: gen.standard_normal(size),
                                     inner_mc=8).model
    cfg = SimConfig(dt=1.0, t_final=10.0)
    replicas = replica_streams([StateVector(np.array([x])) for x in (1e-3, 0.5, 1e-3, 2.0)],
                               1, 7)
    message = _assert_lanes_raise_the_serial_failure(chain, replicas, cfg, NonPositiveF)
    assert message == "replica 1: multipliers F_i must be strictly positive at step 4, t = 5.0"


def _chain_reference(model, ic, cfg, rng):
    """The per-step loop, one draw per step, that chains ran before they
    stepped as blocks."""
    gen = rng.generator()
    x, times, states = ic.x.copy(), [0.0], [ic.x.copy()]
    floor_on = model.extinction_distance(x, None) > cfg.floor_epsilon
    for k in range(int(round(cfg.t_final))):
        x = model.domain_projection(
            np.asarray(model.step_map(x, model.noise_sampler(gen)), dtype=float), None)
        times.append(float(k + 1))
        states.append(x)
        if floor_on and model.extinction_distance(x, None) < cfg.floor_epsilon:
            break
    return Trajectory(np.array(times), np.array(states))


def test_simulate_lanes_steps_chains_as_blocks_bit_for_bit(monkeypatch, ricker_extinct):
    import extinctd.integrators as integrators
    from extinctd.models import make_ricker

    persist = make_ricker(r=0.4, sigma=1.0).model
    extinct = ricker_extinct.model
    blocks = []
    step_block = integrators._simulate_block
    monkeypatch.setattr(integrators, "_simulate_block",
                        lambda m, reps, c: blocks.append(len(reps)) or step_block(m, reps, c))
    lanes = integrators._LANES
    cases = [
        # the boundary chain stays at 0 and its floor is off; 5000 steps
        # take two noise chunks
        (extinct, [ricker_extinct.boundary_ic], 3, SimConfig(dt=1.0, t_final=5000.0), [3]),
        # interior chains that stop at the floor at their own steps, or not
        (persist, [StateVector(np.array([x])) for x in (0.5, 2e-3, 1.2e-3)], 4,
         SimConfig(dt=1.0, t_final=400.0, floor_epsilon=1e-3), [12]),
        (extinct, [StateVector(np.array([0.5]))], lanes + 6,
         SimConfig(dt=1.0, t_final=300.0, floor_epsilon=1e-3), [35, 35]),
    ]
    lengths = []
    for chain, ics, reps, cfg, sizes in cases:
        replicas = replica_streams(ics, reps, 3)
        want = [_chain_reference(chain, ic, cfg, rng) for _, ic, rng in replicas]
        blocks.clear()
        _assert_same_paths(simulate_lanes(chain, replicas, cfg), want)
        assert blocks == sizes
        _assert_same_paths([simulate(chain, ic, cfg, rng) for _, ic, rng in replicas[:2]],
                           want[:2])
        final = simulate_lanes(chain, replicas, cfg, lambda t: (len(t.times), t.states[-1, 0]))
        assert final == [(len(t.times), t.states[-1, 0]) for t in want]
        lengths.append(sorted({len(t.times) for t in want}))
    assert lengths[0] == [5001]
    assert len(lengths[1]) > 3 and lengths[1][-1] == 401
    assert len(lengths[2]) > 10 and lengths[2][-1] < 301
    # a lane's noise chunks stop at its last step: a caller's generator ends
    # where 5000 single draws leave it
    gen, single = np.random.default_rng(4), np.random.default_rng(4)
    simulate(extinct, ricker_extinct.boundary_ic, SimConfig(dt=1.0, t_final=5000.0), gen)
    for _ in range(5000):
        extinct.noise_sampler(single)
    assert gen.bit_generator.state == single.bit_generator.state


def test_simulate_lanes_freezes_a_lane_at_the_floor():
    # lane 0 stops at the floor near x = 0.1, where the drift is infinite;
    # stepping it on would raise an error that no replica raises alone
    m = ModelSpec(family="sde", dim=1, noise_dim=0,
                  drift=lambda x, s: np.where(x < 0.15, np.inf, -1.0),
                  extinction_distance=lambda x, s=None: np.abs(np.asarray(x)[..., 0]))
    cfg = SimConfig(dt=0.1, t_final=2.0, floor_epsilon=0.15)
    replicas = replica_streams([StateVector(np.array([x])) for x in (0.3, 10.0)], 1, 0)
    want = _assert_simulate_and_lanes_follow_the_reference(m, replicas, cfg)
    assert len(want[0].times) == 3 and len(want[1].times) == 21


def test_simulate_lanes_steps_blocks_in_replica_order(monkeypatch, sis_k2):
    # replicas go in near-equal blocks, lowest first; reduce sees each path
    import extinctd.integrators as integrators

    blocks = []
    step_block = integrators._simulate_block

    def spy(model, replicas, cfg):
        blocks.append([k for k, _, _ in replicas])
        return step_block(model, replicas, cfg)

    monkeypatch.setattr(integrators, "_simulate_block", spy)
    monkeypatch.setattr(integrators, "_LANES", 3)
    cfg = SimConfig(dt=1e-3, t_final=1.0)
    replicas = replica_streams([StateVector(np.array([0.6, 0.25]))], 7, 2)
    want = [_diffusion_reference(sis_k2.model, ic, cfg, rng) for _, ic, rng in replicas]
    _assert_same_paths(simulate_lanes(sis_k2.model, replicas, cfg), want)
    assert blocks == [[0, 1], [2, 3], [4, 5, 6]]
    final = simulate_lanes(sis_k2.model, replicas, cfg, lambda t: t.states[-1].tolist())
    assert final == [t.states[-1].tolist() for t in want]


def test_simulate_lanes_steps_the_spheres_and_blowups_as_blocks(monkeypatch, sis_switching,
                                                                lorenz_noisy):
    # the sphere boundaries and the Lorenz blow-up step as blocks; a sphere
    # projection that shared one norm across lanes would fail here
    import extinctd.integrators as integrators

    linear = make_linear_sde([[-1.0, 0.7], [-0.4, -2.0]], [[0.3, 0.2], [-0.1, 0.4]])
    cfg = SimConfig(dt=0.01, t_final=2.0)
    blocks = []
    step_block = integrators._simulate_block
    monkeypatch.setattr(integrators, "_simulate_block",
                        lambda m, reps, c: blocks.append(len(reps)) or step_block(m, reps, c))
    for spec, ic in ((sis_switching.boundary, sis_switching.boundary_ic),
                     (linear.boundary, linear.boundary_ic),
                     (lorenz_noisy.blowup, StateVector(np.array([0.9, 0.3, 0.5])))):
        replicas = replica_streams([ic], 2, 5)
        want = [_diffusion_reference(spec, ic, cfg, rng) for _, ic, rng in replicas]
        _assert_same_paths([simulate(spec, ic, cfg, rng) for _, ic, rng in replicas], want)
        blocks.clear()
        _assert_same_paths(simulate_lanes(spec, replicas, cfg), want)
        assert blocks == [2], spec.name


@pytest.mark.parametrize("alpha0", [0.05, 0.0])
def test_simulate_lanes_steps_the_lorenz_cylinder_as_lanes(monkeypatch, alpha0):
    import extinctd.integrators as integrators
    from extinctd.models import make_lorenz

    cyl = make_lorenz(gamma=1.0, z_star=1.5, eta=1.0, alpha0=alpha0).boundary
    cfg = SimConfig(dt=0.01, t_final=5.0)
    replicas = replica_streams([StateVector(np.array([0.9, 1.5])),
                                StateVector(np.array([-2.0, 0.3]))], 2, 8)
    want = [_diffusion_reference(cyl, ic, cfg, rng) for _, ic, rng in replicas]
    _assert_same_paths([simulate(cyl, ic, cfg, rng) for _, ic, rng in replicas], want)
    blocks = []
    step_block = integrators._simulate_block
    monkeypatch.setattr(integrators, "_simulate_block",
                        lambda m, reps, c: blocks.append(len(reps)) or step_block(m, reps, c))
    _assert_same_paths(simulate_lanes(cyl, replicas, cfg), want)
    assert blocks == [4]


def test_the_floor_is_checked_on_whole_windows_of_every_chunk():
    # a chunk edge is always a floor check, so no lane draws a chunk past its floor
    assert _CHUNK % _FLOOR_EVERY == 0 and 1 < _FLOOR_EVERY < _CHUNK


def ramp_model(below=None):
    """x falls by 1 per unit step towards the floor |x| < 1, which it meets
    at its first x = 0.5, from x0 = m + 0.5; ``below`` is the drift at
    x < 0: "rise" climbs back above the floor, "raise" raises and "nan"
    returns NaN."""
    def drift(x, s):
        if below == "raise" and np.any(x < 0.0):
            raise ValueError("drift below the floor")
        return np.where(x < 0.0, {"rise": 5.0, "nan": np.nan}.get(below, -1.0), -1.0)

    return ModelSpec(family="sde", dim=1, noise_dim=1, drift=drift,
                     diffusion_diag=lambda x, s: 0.0 * x,
                     extinction_distance=lambda x, s=None: np.abs(np.asarray(x)[..., 0]))


def test_lanes_stop_at_their_first_floor_row_mid_window_and_across_the_chunk_edge():
    # floor rows 30 (mid-window), 4095 and 4096 (the window over the chunk
    # edge) and 4100; past it a lane climbs back above the floor and meets
    # it again, so only its first row below the floor may end its path
    cfg = SimConfig(dt=1.0, t_final=5000.0, floor_epsilon=1.0)
    rows = [30, 4095, 4096, 4100]
    ics = [StateVector(np.array([g + 0.5])) for g in rows]
    replicas = replica_streams(ics, 1, 2)
    m = ramp_model("rise")
    want = [_diffusion_reference(m, ic, cfg, rng) for _, ic, rng in replicas]
    assert [len(t.times) - 1 for t in want] == rows
    assert all(t.states[-1, 0] == 0.5 for t in want)
    _assert_same_paths([simulate(m, ic, cfg, rng) for _, ic, rng in replicas], want)
    _assert_same_paths(simulate_lanes(m, replicas[:1] + replicas[2:], cfg), want[:1] + want[2:])
    # a lane draws the chunks of the steps it takes and no more: a caller's
    # generator ends where those draws leave it
    for g, ic in zip(rows, ics):
        gen, single = np.random.default_rng(g), np.random.default_rng(g)
        simulate(m, ic, cfg, gen)
        single.standard_normal((_CHUNK, 1))
        if g > _CHUNK:
            single.standard_normal((5000 - _CHUNK, 1))
        assert gen.bit_generator.state == single.bit_generator.state


@pytest.mark.parametrize("below", ["raise", "nan"])
def test_a_drift_that_fails_below_the_floor_leaves_no_trace(below):
    # each lane steps past its floor row until the next floor check, into
    # x < 0 where the drift fails; alone or in a block, every path must end
    # at its floor row as if the lane had stopped there, with no error
    cfg = SimConfig(dt=1.0, t_final=200.0, floor_epsilon=1.0)
    rows = [10, 100, 3]  # lane 2 fails in the block first, beside live lanes
    replicas = replica_streams([StateVector(np.array([g + 0.5])) for g in rows], 1, 5)
    m = ramp_model(below)
    want = [_diffusion_reference(m, ic, cfg, rng) for _, ic, rng in replicas]
    assert [len(t.times) - 1 for t in want] == rows
    _assert_simulate_and_lanes_follow_the_reference(m, replicas, cfg)


def test_a_chain_that_fails_below_the_floor_leaves_no_trace():
    # lane 0 meets the floor first and its step_map raises past it; the
    # block step raises, and the lanes above it must still take that step
    def step_map(x, xi):
        if np.any(x < 0.0):
            raise ValueError("step_map below the floor")
        return x - 1.0

    chain = ModelSpec(family="discrete_chain", dim=1, step_map=step_map,
                      noise_sampler=lambda gen, size=None: gen.standard_normal(size),
                      extinction_distance=lambda x, s=None: np.abs(np.asarray(x)[..., 0]))
    cfg = SimConfig(dt=1.0, t_final=100.0, floor_epsilon=1.0)
    replicas = replica_streams([StateVector(np.array([g + 0.5])) for g in (2, 20, 5)], 1, 6)
    want = [_chain_reference(chain, ic, cfg, rng) for _, ic, rng in replicas]
    assert [len(t.times) - 1 for t in want] == [2, 20, 5]
    _assert_same_paths([simulate(chain, ic, cfg, rng) for _, ic, rng in replicas], want)
    _assert_same_paths(simulate_lanes(chain, replicas, cfg), want)


@pytest.mark.parametrize("below", ["jumps", "raise", "rate"])
def test_a_switching_lane_keeps_no_jump_after_its_floor_row(monkeypatch, below):
    # fast switching inserts and folds jumps; a lane that meets the floor
    # takes jump steps past it until the next floor check, whose points,
    # folds and failures ("raise": switch_rates raises below x = 0, "rate":
    # the rates break the bound there) must all be dropped
    import extinctd.integrators as integrators

    q = np.array([[-30.0, 30.0], [40.0, -40.0]])

    def rates(x):
        if x[0] < 0.0 and below == "raise":
            raise ValueError("switch_rates below the floor")
        return q * 10.0 if x[0] < 0.0 and below == "rate" else q

    m = ModelSpec(family="switching_diffusion", dim=1, noise_dim=1,
                  drift=lambda x, s: -(1.0 + np.asarray(s, dtype=float)[..., None]) + 0.0 * x,
                  diffusion_diag=lambda x, s: 0.3 * x, switch_rates=rates, n_regimes=2,
                  extinction_distance=lambda x, s=None: np.abs(np.asarray(x)[..., 0]))
    monkeypatch.setattr(integrators, "_TIME_GUARD", 0.3)
    starts = []  # the state each jump step starts from
    jump_step = integrators._jump_step
    monkeypatch.setattr(integrators, "_jump_step",
                        lambda *a: starts.append(a[1][0]) or jump_step(*a))
    cfg = SimConfig(dt=0.02, t_final=4.0, max_rate_bound=200.0, floor_epsilon=0.05)
    replicas = replica_streams([StateVector(np.array([x]), 0) for x in (0.8, 2.0, 0.5)], 1, 4)
    want = _assert_simulate_and_lanes_follow_the_reference(m, replicas, cfg)
    assert all(t.duration < cfg.t_final for t in want)
    on_grid = np.concatenate([np.isin(t.times[t.jumps], np.arange(201) * cfg.dt) for t in want])
    assert on_grid.any() and not on_grid.all()  # folded and inserted jumps
    assert min(starts) < 0.0  # jump steps ran past a floor row


# -- constant additive noise: G dw formed once per chunk ---------------------------

def _counting_advance(monkeypatch):
    """Calls of ``integrators._advance``, the step that calls diffusion."""
    import extinctd.integrators as integrators

    calls, advance = [], integrators._advance
    monkeypatch.setattr(integrators, "_advance", lambda *a: calls.append(1) or advance(*a))
    return calls


def _assert_additive_noise_keeps_the_paths(monkeypatch, spec, replicas, cfg, one_lane=True):
    """``spec`` steps each replica alone (if ``one_lane``) and all of them as
    a block with the paths it gives without ``additive_noise``, and never
    steps through diffusion to do so."""
    calls = _counting_advance(monkeypatch)
    want = simulate_lanes(dataclasses.replace(spec, additive_noise=None), replicas, cfg)
    assert calls  # the plain steps call diffusion
    calls.clear()
    if one_lane:
        _assert_same_paths([simulate(spec, ic, cfg, rng) for _, ic, rng in replicas], want)
    _assert_same_paths(simulate_lanes(spec, replicas, cfg), want)
    assert calls == []
    return want


@pytest.mark.parametrize("name", ["model", "boundary", "blowup"])
def test_additive_noise_steps_one_lane_and_a_block_as_diffusion_does(monkeypatch, lorenz_noisy,
                                                                     name):
    spec = getattr(lorenz_noisy, name)
    ic = {"model": lorenz_noisy.default_ic, "boundary": lorenz_noisy.boundary_ic,
          "blowup": StateVector(np.array([0.9, 0.3, 0.5]))}[name]
    assert spec.additive_noise is not None
    _assert_additive_noise_keeps_the_paths(monkeypatch, spec, replica_streams([ic], 3, 12),
                                           SimConfig(dt=0.01, t_final=5.0))


def test_additive_noise_of_lanes_gives_each_lane_its_own_noise(monkeypatch):
    # per-lane G rows from lorenz_cylinder; the alpha0 = 0 lane stays noise-free
    from extinctd.models import lorenz_cylinder

    lanes = lorenz_cylinder(1.0, 1.5, np.array([0.05, 0.0, 0.3]))[0]
    assert lanes.additive_noise.shape == (3, 2, 1)
    cfg = SimConfig(dt=0.01, t_final=5.0)
    replicas = replica_streams([StateVector(np.array([0.9, 1.5]))], 3, 2)
    paths = _assert_additive_noise_keeps_the_paths(monkeypatch, lanes, replicas, cfg,
                                                   one_lane=False)
    quiet = lorenz_cylinder(1.0, 1.5, 0.0)[0]
    _assert_same_paths(paths[1:2], [simulate(quiet, replicas[1][1], cfg, replicas[1][2])])
    assert (paths[1].states[:, 1] == 1.5).all()  # z stays at z* = 1.5 without noise
    assert all(np.ptp(paths[i].states[:, 1]) > 0.0 for i in (0, 2))


def test_additive_noise_crosses_the_chunk_edge_into_a_short_last_chunk(monkeypatch,
                                                                       lorenz_noisy):
    n_steps = _CHUNK + 100
    cfg = SimConfig(dt=0.01, t_final=n_steps * 0.01)
    replicas = replica_streams([lorenz_noisy.boundary_ic], 3, 3)
    want = _assert_additive_noise_keeps_the_paths(monkeypatch, lorenz_noisy.boundary, replicas, cfg)
    assert [len(t.times) for t in want] == [n_steps + 1] * 3


def _additive_ramp(below):
    """``ramp_model(below)`` driven by a small additive noise in place of its zero diagonal."""
    G = np.array([[1e-3]])
    return dataclasses.replace(ramp_model(below), diffusion_diag=None, additive_noise=G)


def test_additive_noise_lanes_stop_at_their_floor_rows(monkeypatch):
    # floor rows 30 (mid-window), 70 and 4100 (past the chunk edge); past its
    # row a lane climbs back above the floor
    cfg = SimConfig(dt=1.0, t_final=4200.0, floor_epsilon=1.0)
    rows = [30, 4100, 70]
    replicas = replica_streams([StateVector(np.array([g + 0.5])) for g in rows], 1, 7)
    want = _assert_additive_noise_keeps_the_paths(monkeypatch, _additive_ramp("rise"), replicas,
                                                  cfg)
    assert [len(t.times) - 1 for t in want] == rows


def test_additive_noise_names_the_same_non_finite_step_time_and_replica():
    # no floor: the drift turns NaN once x < 0, and the noise decides the step
    G = np.array([[0.5]])
    spec = ModelSpec(family="sde", dim=1, noise_dim=1,
                     drift=lambda x, s: np.where(x < 0.0, np.nan, -1.0), additive_noise=G,
                     extinction_distance=lambda x, s=None: np.ones(np.shape(x)[:-1]))
    cfg = SimConfig(dt=0.25, t_final=200.0)
    replicas = replica_streams([StateVector(np.array([x])) for x in (10.5, 100.5, 3.5)], 1, 5)

    def failures(m):  # alone, then in blocks whose lowest lane fails
        runs = [lambda ic=ic, rng=rng: simulate(m, ic, cfg, rng) for _, ic, rng in replicas]
        runs += [lambda reps=reps: simulate_lanes(m, reps, cfg)
                 for reps in (replicas, replicas[1:])]
        got = []
        for run in runs:
            with pytest.raises(NonFiniteState) as info:
                run()
            got.append(str(info.value))
        return got

    fast = failures(spec)
    assert fast == failures(dataclasses.replace(spec, additive_noise=None))
    assert [re.match(r"replica (\d): non-finite state at step \d+, t = ", f).group(1)
            for f in fast] == ["0", "1", "2", "0", "1"]


def test_a_regime_clock_keeps_calling_diffusion_with_additive_noise(monkeypatch):
    # _jump_step needs the unit normals, so a block with a regime clock
    # steps through diffusion as before
    import extinctd.integrators as integrators

    monkeypatch.setattr(integrators, "_TIME_GUARD", 0.3)
    calls = _counting_advance(monkeypatch)
    spec = dataclasses.replace(fast_switching_model(), diffusion_diag=None,
                               additive_noise=np.array([[0.3]]))
    cfg = SimConfig(dt=0.02, t_final=4.0, max_rate_bound=200.0)
    replicas = replica_streams([StateVector(np.array([1.0]), 0)], 2, 9)
    counts, paths = [], []
    for m in (spec, dataclasses.replace(spec, additive_noise=None)):
        calls.clear()
        paths.append([simulate(m, ic, cfg, rng) for _, ic, rng in replicas])
        _assert_same_paths(simulate_lanes(m, replicas, cfg), paths[-1])
        counts.append(len(calls))
    # two one-lane runs and a block of 200 steps each, and the split steps
    assert counts[0] == counts[1] > 3 * 200
    _assert_same_paths(paths[0], paths[1])
    assert all(len(t.jumps) for t in paths[0])


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
        # replica r draws from RngStream(seed, r)
        vals = simulate_lanes(m, replica_streams([StateVector(np.array([x0]))], n, seed), cfg,
                              lambda traj: traj.states[-1, 0])
        return float(np.mean(vals))

    bias_a = abs(mean_at_one(0.2, 100) - exact)
    bias_b = abs(mean_at_one(0.1, 200) - exact)
    se = 0.93 / math.sqrt(n)
    assert bias_b <= 0.5 * bias_a + 3.0 * math.sqrt(2.0) * se


def test_short_runs_draw_whole_chunks_only_on_a_regime_clock():
    # a run without a regime clock draws the normals of its 10 steps; a
    # switching run draws a whole chunk, as its clock counts follow it
    cfg = SimConfig(dt=0.1, t_final=1.0, max_rate_bound=1e-12)
    gen, want = np.random.default_rng(3), np.random.default_rng(3)
    simulate(ou_model(), StateVector(np.array([1.0])), cfg, gen)
    want.standard_normal((10, 1))
    assert gen.standard_normal() == want.standard_normal()

    gen, want = np.random.default_rng(3), np.random.default_rng(3)
    simulate(fast_switching_model(), StateVector(np.array([1.0]), 0), cfg, gen)
    want.standard_normal((_CHUNK, 1))
    want.poisson(1e-12 * cfg.dt, _CHUNK)
    assert gen.standard_normal() == want.standard_normal()


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
