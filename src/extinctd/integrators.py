"""Time-stepping kernels: Euler-Maruyama, thinned regime jump clocks,
discrete-chain stepping, and Poissonization of chains into continuous time.

Grid convention: diffusion paths are recorded on the uniform dt grid, with an
extra point inserted at every regime jump time so trajectories carry the exact
jump clock.  Simulations stop early once the model's extinction distance
drops below ``floor_epsilon`` (the floor is disabled when the initial
condition already sits on the extinction set, so boundary dynamics can run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonFiniteState, RateBoundViolated
from .process_core import ModelSpec, RngStream, StateVector, Trajectory, as_generator

_CHUNK = 4096
_TIME_GUARD = 1e-9  # minimum jump offset, as a fraction of dt


@dataclass(frozen=True)
class SimConfig:
    """Step size, horizon, thinning rate bound, and the log-singularity floor."""

    dt: float
    t_final: float
    max_rate_bound: Optional[float] = None
    floor_epsilon: float = 1e-12

    def __post_init__(self):
        if not (0 < self.dt <= self.t_final):
            raise ValueError("need 0 < dt <= t_final")
        if self.floor_epsilon <= 0:
            raise ValueError("floor_epsilon must be positive")
        if self.max_rate_bound is not None and self.max_rate_bound <= 0:
            raise ValueError("max_rate_bound must be positive when given")


def _check_finite(x: np.ndarray, step: Optional[int] = None, t: Optional[float] = None):
    """Raise NonFiniteState if x holds a NaN or an infinity.  In a simulated
    path, ``step`` is the 0-based index of the step that produced x and ``t``
    its time; the message is built only on failure."""
    if not math.isfinite(float(x.sum())):
        where = "" if step is None else f" at step {step}, t = {t!r}"
        raise NonFiniteState(f"non-finite state{where}: {x}")


def _advance(model: ModelSpec, x, s, h, z):
    """One raw EM update over a step of length h with unit normals z."""
    xn = x + model.drift(x, s) * h
    if z is not None:
        sq = math.sqrt(h)
        if model.diffusion_diag is not None:
            xn = xn + model.diffusion_diag(x, s) * (sq * z)
        else:
            xn = xn + model.diffusion(x, s) @ (sq * z)
    return model.domain_projection(xn, s)


def em_step(model: ModelSpec, state: StateVector, dt: float, noise=None) -> StateVector:
    """Euler-Maruyama step: domain_projection(x + F dt + sigma * sqrt(dt) * z).

    ``noise`` holds unit standard normals (scaled by sqrt(dt) internally);
    pass None for deterministic models.  The regime is left unchanged.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    z = None
    if model.noise_dim > 0:
        if noise is None:
            raise ValueError("model has noise_dim > 0; supply a noise vector")
        z = np.asarray(noise, dtype=float)
    xn = _advance(model, state.x, state.regime, dt, z)
    _check_finite(xn)
    return StateVector(xn, state.regime)


def _rate_bound(model: ModelSpec, x) -> float:
    q = np.asarray(model.switch_rates(x), dtype=float)
    return float(np.max(-np.diag(q), initial=0.0))


def _regime_jumps(model, x, s, dt, gen, lam, first_count=None):
    """Exact thinning of the regime clock on [0, dt), state frozen at x.

    Candidate times come from a rate-lam Poisson clock; a candidate in regime
    i is accepted with probability |q_ii(x)|/lam and then moved to j != i
    with probability q_ij(x)/|q_ii(x)|.  Returns [(offset, new_regime), ...].
    """
    count = int(gen.poisson(lam * dt)) if first_count is None else int(first_count)
    if count == 0:
        return []
    q = np.asarray(model.switch_rates(x), dtype=float)
    if np.max(-np.diag(q)) > lam * (1 + 1e-12):
        raise RateBoundViolated(
            f"|q_ii(x)| = {np.max(-np.diag(q)):.6g} exceeds rate bound {lam:.6g}"
        )
    offsets = np.sort(gen.uniform(0.0, dt, size=count))
    jumps = []
    cur = s
    for off, u in zip(offsets, gen.uniform(size=count)):
        total = -q[cur, cur]
        if total <= 0.0 or u >= total / lam:
            continue
        probs = q[cur].copy()
        probs[cur] = 0.0
        cum = np.cumsum(probs)
        target = int(np.searchsorted(cum, gen.uniform() * total, side="right"))
        target = min(target, model.n_regimes - 1)
        jumps.append((float(off), target))
        cur = target
    return jumps


def switch_step(model: ModelSpec, state: StateVector, dt: float, rng,
                max_rate_bound: Optional[float] = None) -> StateVector:
    """Advance only the regime over one step by exact exponential thinning.

    With probability q_ij(x) dt + o(dt) the regime jumps i -> j within the
    step; the continuous coordinates are untouched.  Rates are frozen at the
    step's start state, so callers should keep dt * max_rate_bound < 0.1 for
    the first-order jump law to be meaningful.
    """
    if model.family != "switching_diffusion":
        raise ValueError("switch_step requires a switching diffusion")
    gen = as_generator(rng)
    lam = max_rate_bound
    if lam is None:
        lam = _rate_bound(model, state.x)
    if lam <= 0.0:
        return state
    jumps = _regime_jumps(model, state.x, state.regime, dt, gen, lam)
    if not jumps:
        return state
    return StateVector(state.x, jumps[-1][1])


def discrete_step(model: ModelSpec, state: StateVector, rng) -> StateVector:
    """One transition of a discrete chain with a freshly drawn noise sample."""
    if model.family != "discrete_chain":
        raise ValueError("discrete_step requires a discrete chain")
    gen = as_generator(rng)
    xi = model.noise_sampler(gen)
    xn = model.domain_projection(np.asarray(model.step_map(state.x, xi), dtype=float),
                                 state.regime)
    _check_finite(xn)
    return StateVector(xn, state.regime)


class _Recorder:
    """Growable (times, states, regimes, jumps) buffers."""

    def __init__(self, dim, n_hint, track_regime):
        cap = n_hint + 16
        self.times = np.empty(cap)
        self.states = np.empty((cap, dim))
        self.regimes = np.empty(cap, dtype=np.int64) if track_regime else None
        self.jumps = []
        self.n = 0

    def push(self, t, x, s, jump=False):
        if self.n == len(self.times):
            grow = max(64, self.n // 2)
            self.times = np.concatenate([self.times, np.empty(grow)])
            self.states = np.concatenate([self.states, np.empty((grow, self.states.shape[1]))])
            if self.regimes is not None:
                self.regimes = np.concatenate([self.regimes, np.empty(grow, dtype=np.int64)])
        self.times[self.n] = t
        self.states[self.n] = x
        if self.regimes is not None:
            self.regimes[self.n] = s
        if jump:
            self.jumps.append(self.n)
        self.n += 1

    def trajectory(self) -> Trajectory:
        reg = None if self.regimes is None else self.regimes[: self.n].copy()
        return Trajectory(self.times[: self.n].copy(), self.states[: self.n].copy(),
                          reg, np.asarray(self.jumps, dtype=np.int64))


def _simulate_diffusion(model, x0: StateVector, cfg: SimConfig, gen) -> Trajectory:
    dim, nd = model.dim, model.noise_dim
    dt = cfg.dt
    n_steps = int(round(cfg.t_final / dt))
    if abs(n_steps * dt - cfg.t_final) > 1e-9 * dt:
        raise ValueError("t_final must be an integer multiple of dt")
    switching = model.family == "switching_diffusion" and model.n_regimes > 1
    s = x0.regime if x0.regime is not None else (0 if switching else None)
    x = x0.x.copy()

    lam = 0.0
    if switching:
        lam = cfg.max_rate_bound if cfg.max_rate_bound is not None else _rate_bound(model, x)
    thinning = switching and lam > 0.0

    rec = _Recorder(dim, n_steps + 1, s is not None)
    rec.push(0.0, x, s)
    d0 = float(model.extinction_distance(x, s))
    floor_active = d0 > cfg.floor_epsilon

    z_buf = None
    c_buf = None
    pos = _CHUNK
    cpos = _CHUNK
    guard = _TIME_GUARD * dt

    for k in range(n_steps):
        t0 = k * dt
        t1 = (k + 1) * dt
        z = None
        if nd > 0:
            if pos == _CHUNK:
                z_buf = gen.standard_normal((_CHUNK, nd))
                pos = 0
            z = z_buf[pos]
            pos += 1
        if thinning:
            if cpos == _CHUNK:
                c_buf = gen.poisson(lam * dt, _CHUNK)
                cpos = 0
            count = c_buf[cpos]
            cpos += 1
            if count > 0:
                t_cur = t0
                z_cur = z
                pending = False
                try:
                    jumps = _regime_jumps(model, x, s, dt, gen, lam, first_count=count)
                except RateBoundViolated as exc:
                    exc.args = (f"{exc} in step {k} (rates frozen at t = {t0!r})",)
                    raise
                for off, target in jumps:
                    tau = min(max(t0 + off, t_cur + guard), t1 - guard)
                    if tau <= t_cur:
                        # jump squeezed against the step end: fold into the
                        # grid point instead of inserting a degenerate time
                        s = target
                        pending = True
                        continue
                    x = _advance(model, x, s, tau - t_cur, z_cur)
                    s = target
                    rec.push(tau, x, s, jump=True)
                    t_cur = tau
                    z_cur = gen.standard_normal(nd) if nd > 0 else None
                x = _advance(model, x, s, t1 - t_cur, z_cur)
                _check_finite(x, k, t1)
                rec.push(t1, x, s, jump=pending)
                if floor_active and float(model.extinction_distance(x, s)) < cfg.floor_epsilon:
                    break
                continue
        x = _advance(model, x, s, dt, z)
        _check_finite(x, k, t1)
        rec.push(t1, x, s)
        if floor_active and float(model.extinction_distance(x, s)) < cfg.floor_epsilon:
            break
    return rec.trajectory()


def _simulate_chain(model, x0: StateVector, cfg: SimConfig, gen) -> Trajectory:
    n_steps = int(round(cfg.t_final))
    x = x0.x.copy()
    rec = _Recorder(model.dim, n_steps + 1, False)
    rec.push(0.0, x, None)
    floor_active = float(model.extinction_distance(x, None)) > cfg.floor_epsilon
    for k in range(n_steps):
        xi = model.noise_sampler(gen)
        x = model.domain_projection(np.asarray(model.step_map(x, xi), dtype=float), None)
        _check_finite(x, k, float(k + 1))
        rec.push(float(k + 1), x, None)
        if floor_active and float(model.extinction_distance(x, None)) < cfg.floor_epsilon:
            break
    return rec.trajectory()


def simulate(model: ModelSpec, x0: StateVector, cfg: SimConfig, rng) -> Trajectory:
    """Run a model until t_final, or until the extinction floor is reached.

    Diffusions are recorded on the dt grid plus all regime jump times;
    discrete chains use one time unit per step (see ``poissonize`` for the
    continuous-time embedding).  Equal (seed, stream_id, model, dt, t_final)
    reproduce bit-identical trajectories.  ``NonFiniteState`` and
    ``RateBoundViolated`` name the step and time, and the replica when
    ``rng`` is an ``RngStream``.
    """
    if x0.dim != model.dim:
        raise ValueError(f"initial condition has dim {x0.dim}, model wants {model.dim}")
    run = _simulate_chain if model.family == "discrete_chain" else _simulate_diffusion
    try:
        return run(model, x0, cfg, as_generator(rng))
    except (NonFiniteState, RateBoundViolated) as exc:
        if isinstance(rng, RngStream):  # the replica rule makes stream_id the replica
            exc.args = (f"replica {rng.stream_id}: {exc}",)
        raise


def poissonize(chain: ModelSpec, x0: StateVector, rng, t_final: float) -> Trajectory:
    """Embed a discrete chain into continuous time via a unit-rate Poisson clock.

    The returned path is piecewise constant (cadlag) with Y_t = X_{N_t}; the
    jump markers are exactly the Poisson arrival indices.
    """
    if chain.family != "discrete_chain":
        raise ValueError("poissonize requires a discrete chain")
    gen = as_generator(rng)
    x = x0.x.copy()
    rec = _Recorder(chain.dim, int(t_final) + 8, False)
    rec.push(0.0, x, None)
    t = 0.0
    while True:
        t += gen.exponential()
        if t >= t_final:
            break
        xi = chain.noise_sampler(gen)
        x = chain.domain_projection(np.asarray(chain.step_map(x, xi), dtype=float), None)
        _check_finite(x)
        rec.push(t, x, None, jump=True)
    if rec.times[rec.n - 1] < t_final:
        rec.push(t_final, x, None)
    return rec.trajectory()
