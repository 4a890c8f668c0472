"""Time-stepping kernels: Euler-Maruyama, thinned regime jump clocks,
discrete-chain stepping, and Poissonization of chains into continuous time.
``simulate`` runs one replica; ``simulate_lanes`` steps a run's replicas of
a batch-first diffusion or of a discrete chain together in blocks and gives
the same paths bit for bit.

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

from .errors import ExtinctdError, NonFiniteState, RateBoundViolated
from .process_core import ModelSpec, RngStream, StateVector, Trajectory, _matvec, as_generator

_CHUNK = 4096
_LANES = 64  # replicas per lockstep block: bounds the block record
_TIME_GUARD = 1e-9  # minimum jump offset, as a fraction of dt


@dataclass(frozen=True)
class SimConfig:
    """Step size, horizon, thinning rate bound, and the log-singularity floor."""

    dt: float
    t_final: float
    max_rate_bound: Optional[float] = None
    floor_epsilon: float = 1e-12

    def __post_init__(self):
        if not 0 < self.dt <= self.t_final < math.inf:  # false for NaN too
            raise ValueError(f"need 0 < dt <= t_final < inf, got {self.dt!r}, {self.t_final!r}")
        if not 0 < self.floor_epsilon < math.inf:
            raise ValueError(f"floor_epsilon must be positive and finite: {self.floor_epsilon!r}")
        if self.max_rate_bound is not None and not 0 < self.max_rate_bound < math.inf:
            raise ValueError(f"max_rate_bound must be positive and finite: {self.max_rate_bound!r}")


def _check_finite(x: np.ndarray, step: Optional[int] = None, t: Optional[float] = None):
    """Raise NonFiniteState if x holds a NaN or an infinity.  In a simulated
    path, ``step`` is the 0-based index of the step that produced x and ``t``
    its time; the message is built only on failure."""
    if not math.isfinite(float(x.sum())):
        where = "" if step is None else f" at step {step}, t = {t!r}"
        raise NonFiniteState(f"non-finite state{where}: {x}")


def _advance(model: ModelSpec, x, s, h, z):
    """One raw EM update over a step of length h with unit normals z, for one
    state x or, row by row, for a block of them."""
    xn = x + model.drift(x, s) * h
    if z is not None:
        sq = math.sqrt(h)
        if model.diffusion_diag is not None:
            xn = xn + model.diffusion_diag(x, s) * (sq * z)
        else:
            xn = xn + _matvec(model.diffusion(x, s), sq * z)
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


def _step_count(cfg: SimConfig) -> int:
    n_steps = int(round(cfg.t_final / cfg.dt))
    if abs(n_steps * cfg.dt - cfg.t_final) > 1e-9 * cfg.dt:
        raise ValueError("t_final must be an integer multiple of dt")
    return n_steps


def _clock(model, x0: StateVector, cfg: SimConfig):
    """Start regime of a diffusion path from x0 and its thinning rate bound
    (0 when the regime never switches)."""
    switching = model.family == "switching_diffusion" and model.n_regimes > 1
    s = x0.regime if x0.regime is not None else (0 if switching else None)
    lam = 0.0
    if switching:
        lam = cfg.max_rate_bound if cfg.max_rate_bound is not None else _rate_bound(model, x0.x)
    return s, lam


def _jump_step(model, x, s, k, dt, z, gen, lam, count, push):
    """Step k of length dt from (x, s) when the regime clock drew ``count``
    candidates in it.  Each accepted jump splits the step: x advances to the
    jump time, ``push(tau, x, new_regime)`` records that point, and fresh
    normals drive the rest of the step.  Returns (x, s, pending) at the step
    end, unchecked; ``pending`` marks a jump folded into the end point."""
    t0, t1 = k * dt, (k + 1) * dt
    guard = _TIME_GUARD * dt
    try:
        jumps = _regime_jumps(model, x, s, dt, gen, lam, first_count=count)
    except RateBoundViolated as exc:
        exc.args = (f"{exc} in step {k} (rates frozen at t = {t0!r})",)
        raise
    t_cur = t0
    pending = False
    for off, target in jumps:
        tau = min(max(t0 + off, t_cur + guard), t1 - guard)
        if tau <= t_cur:
            # jump squeezed against the step end: fold into the grid point
            # instead of inserting a degenerate time
            s = target
            pending = True
            continue
        x = _advance(model, x, s, tau - t_cur, z)
        s = target
        push(tau, x, s)
        t_cur = tau
        z = gen.standard_normal(model.noise_dim) if model.noise_dim > 0 else None
    return _advance(model, x, s, t1 - t_cur, z), s, pending


def _simulate_diffusion(model, x0: StateVector, cfg: SimConfig, gen) -> Trajectory:
    dim, nd = model.dim, model.noise_dim
    dt = cfg.dt
    n_steps = _step_count(cfg)
    s, lam = _clock(model, x0, cfg)
    thinning = lam > 0.0
    x = x0.x.copy()

    rec = _Recorder(dim, n_steps + 1, s is not None)
    rec.push(0.0, x, s)
    d0 = float(model.extinction_distance(x, s))
    floor_active = d0 > cfg.floor_epsilon

    def push_jump(t, xj, sj):
        rec.push(t, xj, sj, jump=True)

    z_buf = None
    c_buf = None
    pos = _CHUNK
    cpos = _CHUNK

    for k in range(n_steps):
        t1 = (k + 1) * dt
        z = None
        if nd > 0:
            if pos == _CHUNK:
                z_buf = gen.standard_normal((_CHUNK, nd))
                pos = 0
            z = z_buf[pos]
            pos += 1
        pending = False
        count = 0
        if thinning:
            if cpos == _CHUNK:
                c_buf = gen.poisson(lam * dt, _CHUNK)
                cpos = 0
            count = c_buf[cpos]
            cpos += 1
        if count > 0:
            x, s, pending = _jump_step(model, x, s, k, dt, z, gen, lam, count, push_jump)
        else:
            x = _advance(model, x, s, dt, z)
        _check_finite(x, k, t1)
        rec.push(t1, x, s, jump=pending)
        if floor_active and float(model.extinction_distance(x, s)) < cfg.floor_epsilon:
            break
    return rec.trajectory()


def simulate(model: ModelSpec, x0: StateVector, cfg: SimConfig, rng) -> Trajectory:
    """Run a model until t_final, or until the extinction floor is reached.

    Diffusions are recorded on the dt grid plus all regime jump times;
    discrete chains use one time unit per step (see ``poissonize`` for the
    continuous-time embedding) and run as a block of one lane.  Equal (seed,
    stream_id, model, dt, t_final) reproduce bit-identical trajectories.
    ``NonFiniteState``, ``RateBoundViolated`` and a toolkit error raised by a
    chain's ``step_map`` name the step and time, and the replica when ``rng``
    is an ``RngStream``.
    """
    _check_dim(model, x0)
    if model.family == "discrete_chain":
        return next(_simulate_block(model, [(0, x0, rng)], cfg))
    try:
        return _simulate_diffusion(model, x0, cfg, as_generator(rng))
    except (NonFiniteState, RateBoundViolated) as exc:
        _name_replica(exc, rng)
        raise


def _check_dim(model, x0: StateVector):
    if x0.dim != model.dim:
        raise ValueError(f"initial condition has dim {x0.dim}, model wants {model.dim}")


def _name_replica(exc, rng):
    if isinstance(rng, RngStream) and isinstance(exc, ExtinctdError):
        # the replica rule makes stream_id the replica
        exc.args = (f"replica {rng.stream_id}: {exc}",)


def simulate_lanes(model: ModelSpec, replicas, cfg: SimConfig, reduce=None) -> list:
    """Trajectories of the ``(k, ic, rng)`` entries of ``replicas`` (the list
    ``replica_streams`` returns), in order, each bit for bit the path
    ``simulate(model, ic, cfg, rng)`` gives, or ``reduce`` of that path.

    The replicas of a discrete chain or of a ``batch_first`` diffusion step
    in lockstep, in blocks of at most ``_LANES`` (n, dim) states, lowest
    replicas first.  Each replica draws from its own generator in the order
    ``simulate`` does: a diffusion lane its chunks of normals and regime
    clock counts, a chain lane its next chunk of ``noise_sampler(gen, size)``
    draws, never more than the steps left.  A lane whose regime clock fires
    in a step takes that step alone by exact thinning, and one that reaches
    the extinction floor stays frozen until its block ends.  Other models
    and single replicas run through ``simulate``.  ``reduce`` maps each path
    as it is cut from its block's record, so a caller that keeps only a
    statistic of each path holds one block's record and one path at a time.
    A failure is raised for the lowest replica that fails, after the paths
    of the replicas below it are reduced, as running the replicas one after
    another would.
    """
    keep = (lambda traj: traj) if reduce is None else reduce
    lockstep = model.family == "discrete_chain" or model.batch_first
    if not lockstep or len(replicas) < 2:
        return [keep(simulate(model, ic, cfg, rng)) for _, ic, rng in replicas]
    for _, ic, _ in replicas:
        _check_dim(model, ic)
    n = len(replicas)
    blocks = -(-n // _LANES)  # of near-equal size, so none is left with a few lanes
    out = []
    for b in range(blocks):
        out += map(keep, _simulate_block(model, replicas[b * n // blocks:(b + 1) * n // blocks],
                                         cfg))
    return out


def _simulate_block(model, replicas, cfg: SimConfig):
    """Step the replicas of one block in lockstep and return a generator of
    their paths in replica order, which raises the lowest failing replica's
    error after the paths of the replicas below it."""
    n, dim = len(replicas), model.dim
    chain = model.family == "discrete_chain"
    if chain:  # one time unit per step, and no regime
        n_steps, dt, nd = int(round(cfg.t_final)), 1.0, 0
        clocks = [(None, 0.0)] * n
    else:
        n_steps, dt, nd = _step_count(cfg), cfg.dt, model.noise_dim
        clocks = [_clock(model, ic, cfg) for _, ic, _ in replicas]
    gens = [as_generator(rng) for _, _, rng in replicas]
    lams = [lam for _, lam in clocks]
    thin = [i for i in range(n) if lams[i] > 0.0]
    starts = [s for s, _ in clocks]
    # lanes without a regime run as regime 0 when another lane carries one
    S = None if all(s is None for s in starts) else np.array(
        [0 if s is None else s for s in starts], dtype=np.int64)
    X = np.array([ic.x for _, ic, _ in replicas])
    floor_on = model.extinction_distance(X, S) > cfg.floor_epsilon

    alive = np.ones(n, dtype=bool)
    watch = floor_on.copy()  # alive lanes the floor can stop
    watching = bool(watch.any())
    n_alive = n
    last = [n_steps] * n  # grid index of each lane's final point
    inserted = [[] for _ in range(n)]  # (grid index it precedes, t, x, s)
    folded = [[] for _ in range(n)]  # grid indices carrying a folded jump
    failed = None  # (lane, exception) of the lowest lane that failed
    xs = [np.empty((_CHUNK, n, dim))]
    xs[0][0] = X
    ss = None if S is None else [np.empty((_CHUNK, n), dtype=np.int64)]
    if ss is not None:
        ss[0][0] = S

    for k in range(n_steps):
        r = k % _CHUNK
        if r == 0:  # each live lane draws its chunks in the order simulate does
            live = np.flatnonzero(alive).tolist()
            if chain:
                xib = _chain_noise(model, gens, live, n, min(_CHUNK, n_steps - k))
            if nd > 0:
                zb = np.zeros((_CHUNK, n, nd))
                for i in live:
                    zb[:, i] = gens[i].standard_normal((_CHUNK, nd))
            if thin:
                cb = np.zeros((_CHUNK, n), dtype=np.int64)
                for i in thin:
                    if alive[i]:
                        cb[:, i] = gens[i].poisson(lams[i] * dt, _CHUNK)
                fired = cb.any(axis=1).tolist()
        t1 = (k + 1) * dt
        if chain:
            xn, bad = _chain_step(model, X, xib[r], alive, k, t1)
        else:
            z = zb[r] if nd > 0 else None
            xn = _advance(model, X, S, dt, z)
            bad = []
        if thin and fired[r]:
            for i in np.flatnonzero(cb[r]).tolist():
                if not alive[i]:
                    continue
                pts = inserted[i]
                try:
                    xn[i], S[i], pending = _jump_step(
                        model, X[i], int(S[i]), k, dt, None if z is None else z[i],
                        gens[i], lams[i], cb[r, i],
                        lambda t, xj, sj, pts=pts, g=k + 1: pts.append((g, t, xj, sj)))
                except RateBoundViolated as exc:
                    bad.append((i, exc))
                    continue
                if pending:
                    folded[i].append(k + 1)
        if n_alive < n:
            np.copyto(xn, X, where=~alive[:, None])  # stopped lanes stay frozen
        if not math.isfinite(float(xn.sum())):
            for i in np.flatnonzero(~np.isfinite(xn.sum(axis=1))).tolist():
                try:
                    _check_finite(xn[i], k, t1)
                except NonFiniteState as exc:
                    bad.append((i, exc))
        if bad:
            lane, exc = min(bad, key=lambda e: e[0])
            if failed is None or lane < failed[0]:
                failed = (lane, exc)
            # serial order would never run the lanes after a failed one
            alive[lane:] = False
            watch &= alive
            watching = bool(watch.any())
            n_alive = int(alive.sum())
            xn[lane:] = X[lane:]
        X = xn
        g = k + 1
        if g % _CHUNK == 0:
            xs.append(np.empty((_CHUNK, n, dim)))
            if ss is not None:
                ss.append(np.empty((_CHUNK, n), dtype=np.int64))
        xs[-1][g % _CHUNK] = X
        if ss is not None:
            ss[-1][g % _CHUNK] = S
        if watching:
            hit = (model.extinction_distance(X, S) < cfg.floor_epsilon) & watch
            if hit.any():
                for i in np.flatnonzero(hit).tolist():
                    last[i] = g
                alive &= ~hit
                watch &= ~hit
                watching = bool(watch.any())
                n_alive = int(alive.sum())
        if n_alive == 0:
            break

    # cut one lane's path at a time, so a reducing caller holds one path
    # beside the block record
    def paths():
        for i in range(n if failed is None else failed[0]):
            yield _lane_path(xs, ss, i, last[i], dt, starts[i] is not None, inserted[i], folded[i])
        if failed is not None:
            lane, exc = failed
            _name_replica(exc, replicas[lane][2])
            raise exc

    return paths()


def _chain_noise(model, gens, live, n, size):
    """A (size, n, ...) block of chain noise: each live lane's next ``size``
    draws of ``noise_sampler`` from its own generator, zeros for the rest."""
    block = None
    for i in live:
        draws = np.asarray(model.noise_sampler(gens[i], size))
        if draws.shape[:1] != (size,):
            raise ValueError(f"noise_sampler(gen, {size}) gave shape {draws.shape}, "
                             f"not {size} draws on a leading axis")
        if block is None:
            block = np.zeros((size, n) + draws.shape[1:], dtype=draws.dtype)
        block[:, i] = draws
    return block


def _chain_step(model, X, xi, alive, k, t):
    """Chain step k (ending at time t) of block X with per-lane noise xi.
    Returns (next block, failures): if the block step raises, the live lanes
    step one at a time, as they would alone, up to the first that raises; its
    (lane, exception) is the failure, and the lanes from it on keep X."""
    def one(x, e):
        return model.domain_projection(np.asarray(model.step_map(x, e), dtype=float), None)

    try:
        return one(X, xi), []
    except Exception:  # any error is the failing lane's, raised in replica order
        xn = X.copy()
        for i in np.flatnonzero(alive).tolist():
            try:
                xn[i] = one(X[i], xi[i])
            except Exception as exc:
                if isinstance(exc, ExtinctdError):
                    exc.args = (f"{exc} at step {k}, t = {t!r}",)
                return xn, [(i, exc)]
        return xn, []  # only stopped lanes raised


def _lane_path(xs, ss, i, last, dt, track_regime, inserted, folded) -> Trajectory:
    """Lane i's path: its grid points 0..last of the block record, with the
    regime-jump points it inserted spliced in before the grid points they
    precede."""
    used = last // _CHUNK + 1
    times = np.arange(last + 1) * dt
    states = np.concatenate([c[:, i] for c in xs[:used]])[: last + 1]
    regimes = None
    if track_regime:
        regimes = np.concatenate([c[:, i] for c in ss[:used]])[: last + 1]
    at = np.array([p[0] for p in inserted], dtype=np.int64)
    folded = np.array(folded, dtype=np.int64)
    if inserted:
        times = np.insert(times, at, [p[1] for p in inserted])
        states = np.insert(states, at, np.array([p[2] for p in inserted]), axis=0)
        if regimes is not None:
            regimes = np.insert(regimes, at, [p[3] for p in inserted])
    # an inserted point lands after those before it; a grid point after all
    # inserted at or before its index
    jumps = np.sort(np.concatenate([at + np.arange(at.size),
                                    folded + np.searchsorted(at, folded, side="right")]))
    return Trajectory(times, states, regimes, jumps)


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
