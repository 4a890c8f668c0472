"""Time-stepping kernels: Euler-Maruyama, thinned regime jump clocks,
discrete-chain stepping, and Poissonization of chains into continuous time.
There is one path kernel: ``simulate_lanes`` steps a run's replicas together
in blocks, each replica drawing from its own generator, and ``simulate`` is a
block of one lane, so both give a replica the same path bit for bit.  For a
model with a constant ``additive_noise`` G, a block without a regime clock
forms G dW once per chunk of steps.  Every failure is a lane's, raised in
replica order by one rule (see ``simulate_lanes``).

Grid convention: diffusion paths are recorded on the uniform dt grid, with an
extra point inserted at every regime jump time so trajectories carry the exact
jump clock.  Simulations stop at the first point whose extinction distance
is below ``floor_epsilon``, checked every ``_FLOOR_EVERY`` rows (but never
when the initial condition sits on the extinction set, so boundary dynamics run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ExtinctdError, NonFiniteState, RateBoundViolated
from .process_core import ModelSpec, RngStream, StateVector, Trajectory, _matvec, as_generator

_CHUNK = 4096
_FLOOR_EVERY = 64  # record rows per floor check; divides _CHUNK, so no lane draws past its floor
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


def _advance(model: ModelSpec, x, s, h, dw):
    """One raw EM update over a step of length h with Brownian increment
    dw = sqrt(h) z, for one state x or, row by row, for a block of them."""
    if model.coefficients is not None and dw is not None:
        f, g = model.coefficients(x, s)
        return model.domain_projection(x + f * h + g * dw, s)
    xn = x + model.drift(x, s) * h
    if dw is not None:
        if model.diffusion_diag is not None:
            xn = xn + model.diffusion_diag(x, s) * dw
        else:
            xn = xn + _matvec(model.diffusion(x, s), dw)
    return model.domain_projection(xn, s)


def _additive(model: ModelSpec, x, s, h, gdw):
    """``_advance`` for a model with ``additive_noise`` G, given gdw = G dw."""
    return model.domain_projection(x + model.drift(x, s) * h + gdw, s)


def _transition(model: ModelSpec, x, s, h, xi):
    """One chain transition of a state or a block of them with draws xi, in
    ``_advance``'s arguments (h unused), so the engine steps either kernel."""
    return model.domain_projection(np.asarray(model.step_map(x, xi), dtype=float), s)


def em_step(model: ModelSpec, state: StateVector, dt: float, noise=None) -> StateVector:
    """Euler-Maruyama step: domain_projection(x + F dt + sigma * sqrt(dt) * z).

    ``noise`` holds ``noise_dim`` unit standard normals (scaled by sqrt(dt)
    internally); pass None for deterministic models.  The regime is left
    unchanged.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    _check_dim(model, state)
    z = None
    if model.noise_dim > 0:
        if noise is None:
            raise ValueError("model has noise_dim > 0; supply a noise vector")
        z = np.asarray(noise, dtype=float)
        if z.shape != (model.noise_dim,):
            raise ValueError(f"noise has shape {z.shape}, model wants ({model.noise_dim},)")
    xn = _advance(model, state.x, state.regime, dt, None if z is None else math.sqrt(dt) * z)
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
    top = np.max(-np.diag(q))
    if top > lam * (1 + 1e-12):
        raise RateBoundViolated(f"|q_ii(x)| = {top:.6g} exceeds rate bound {lam:.6g}")
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
    lam = _rate_bound(model, state.x) if max_rate_bound is None else max_rate_bound
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
    xn = _transition(model, state.x, state.regime, 1.0, model.noise_sampler(gen))
    _check_finite(xn)
    return StateVector(xn, state.regime)


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
    if not switching:
        return s, 0.0
    return s, cfg.max_rate_bound if cfg.max_rate_bound is not None else _rate_bound(model, x0.x)


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
        x = _advance(model, x, s, tau - t_cur, None if z is None else math.sqrt(tau - t_cur) * z)
        s = target
        push(tau, x, s)
        t_cur = tau
        z = gen.standard_normal(model.noise_dim) if model.noise_dim > 0 else None
    h = t1 - t_cur
    return _advance(model, x, s, h, None if z is None else math.sqrt(h) * z), s, pending


def simulate(model: ModelSpec, x0: StateVector, cfg: SimConfig, rng) -> Trajectory:
    """Run a model until t_final, or until the extinction floor is reached.

    Diffusions are recorded on the dt grid plus all regime jump times;
    discrete chains use one time unit per step (see ``poissonize`` for the
    continuous-time embedding).  Every family runs as a block of one lane of
    the ``simulate_lanes`` engine.  Equal (seed, stream_id, model, dt,
    t_final) reproduce bit-identical trajectories.  ``NonFiniteState``,
    ``RateBoundViolated`` and a toolkit error that a model callback raises in
    a step (``drift``, ``step_map``, ``switch_rates`` in a jump step, ...)
    name the step and time; a toolkit error names the replica when ``rng``
    is an ``RngStream``.
    """
    _check_dim(model, x0)
    return next(_simulate_block(model, [(0, x0, rng)], cfg))


def _check_dim(model, x0: StateVector):
    if x0.dim != model.dim:
        raise ValueError(f"state has dim {x0.dim}, model wants {model.dim}")


def _name_replica(exc, rng):
    if isinstance(rng, RngStream) and isinstance(exc, ExtinctdError):
        # the replica rule makes stream_id the replica
        exc.args = (f"replica {rng.stream_id}: {exc}",)


def _name_step(exc, k, t):
    """exc, raised in step k, which ends at time t: a toolkit error names the
    step, as a broken rate bound does already."""
    if isinstance(exc, ExtinctdError) and not isinstance(exc, RateBoundViolated):
        exc.args = (f"{exc} at step {k}, t = {t!r}",)
    return exc


def simulate_lanes(model: ModelSpec, replicas, cfg: SimConfig, reduce=None) -> list:
    """Trajectories of the ``(k, ic, rng)`` entries of ``replicas`` (the list
    ``replica_streams`` returns), in order, each bit for bit the path
    ``simulate(model, ic, cfg, rng)`` gives, or ``reduce`` of that path.

    The replicas step in lockstep, in blocks of at most ``_LANES`` (n, dim)
    states, lowest replicas first; ``simulate`` is a block of one lane.  Each
    replica draws from its own generator: a diffusion lane its chunks of
    normals and regime clock counts, a chain lane its chunks of
    ``noise_sampler(gen, size)`` draws.  A chunk covers ``_CHUNK`` steps or
    the steps left, if fewer, but always ``_CHUNK`` in a block with a regime
    clock; a lane steps with the same draws whatever lanes are beside it.
    A lane whose regime clock fires in a step takes that step alone by exact
    thinning, and a block with no regime clock forms a chunk's G dW at once
    from a model's ``additive_noise`` G.  A lane stays frozen at its first
    row below the extinction floor until its block ends; the up to
    ``_FLOOR_EVERY - 1`` steps it took past that row before the floor check
    leave no trace, but a switching lane's thinning may have drawn from its
    generator.
    ``reduce`` maps each path as it is cut from its block's record, so a
    caller that keeps only a statistic of each path holds one block's record
    and one path at a time.
    A failure is raised for the lowest replica that fails, after the paths
    of the replicas below it are reduced, as running the replicas one after
    another would: if a block step raises, the floor check runs and each
    live lane takes the step alone, up to the first that raises.  That
    error, a jump step's, a non-finite state, or one of ``switch_rates(x0)``
    setting a lane's rate bound fails its lane and stops the lanes above it,
    whose rows the model then no longer sees; an error past a floor row
    leaves no trace.
    """
    keep = (lambda traj: traj) if reduce is None else reduce
    for _, ic, _ in replicas:
        _check_dim(model, ic)
    return [keep(path) for lo, hi in _lane_blocks(len(replicas))
            for path in _simulate_block(model, replicas[lo:hi], cfg)]


def _lane_blocks(n: int) -> list:
    """The (lo, hi) replica bounds of ``simulate_lanes``' blocks for n
    replicas: at most ``_LANES`` each, of near-equal size, so none is left
    with a few lanes."""
    blocks = -(-n // _LANES)
    return [(b * n // blocks, (b + 1) * n // blocks) for b in range(blocks)]


def _simulate_block(model, replicas, cfg: SimConfig):
    """Step the replicas of one block in lockstep and return a generator of
    their paths in replica order, which raises the lowest failing replica's
    error after the paths of the replicas below it."""
    n, dim = len(replicas), model.dim
    chain = model.family == "discrete_chain"
    if chain:  # one time unit per step, and no regime
        n_steps, dt, nd = int(round(cfg.t_final)), 1.0, 0
    else:
        n_steps, dt, nd = _step_count(cfg), cfg.dt, model.noise_dim
    clocks, failed = [], None  # failed: (lane, exception) of the lowest lane that failed
    for _, ic, _ in replicas:
        try:
            clocks.append((None, 0.0) if chain else _clock(model, ic, cfg))
        except Exception as exc:  # its lane fails before step 0
            failed = (len(clocks), exc)
            break
    n_alive = len(clocks)  # no lane from a failed one steps
    alive = np.arange(n) < n_alive
    clocks += [(0, 0.0)] * (n - n_alive)
    gens = [as_generator(rng) for _, _, rng in replicas]
    lams = [lam for _, lam in clocks]
    thin = [i for i in range(n) if lams[i] > 0.0]
    starts = [s for s, _ in clocks]
    # lanes without a regime run as regime 0 when another lane carries one
    S = None if all(s is None for s in starts) else np.array(
        [0 if s is None else s for s in starts], dtype=np.int64)
    X = np.array([ic.x for _, ic, _ in replicas])
    if failed is not None:  # lanes that never step copy lane 0's start, as failed lanes do
        X[n_alive:], S[n_alive:] = X[0], S[0]
    h, sq = np.array(dt), math.sqrt(dt)  # a 0-d h multiplies a block faster than a float
    # constant noise without a regime clock: each chunk's G dw is formed at once
    G = model.additive_noise if nd > 0 and not thin else None
    advance = step = _transition if chain else _advance if G is None else _additive
    if n == 1:
        # a lone lane calls the model on its 1-d row, with the bits of its
        # block row (a contract of every callback) at less cost per step
        def advance(model, X, S, h, dw):
            return step(model, X[0], None if S is None else int(S[0]), h,
                        None if dw is None else dw[0])[None]

    watch = alive & (model.extinction_distance(X, S) > cfg.floor_epsilon)  # lanes the floor can stop
    last = [n_steps] * n  # grid index of each lane's final point
    inserted = [[] for _ in range(n)]  # (grid index it precedes, t, x, s)
    folded = [[] for _ in range(n)]  # grid indices carrying a folded jump
    xs = [np.empty((min(_CHUNK, n_steps + 1), n, dim))]  # fewer rows if the run is shorter
    xs[0][0] = X
    ss = None if S is None else [np.empty((len(xs[0]), n), dtype=np.int64)]
    if ss is not None:
        ss[0][0] = S
    seen = 0  # the last record row checked against the floor

    def settle(g):
        """Check rows seen+1..g at once; a watched lane stops at its first row below the floor."""
        nonlocal seen, n_alive
        a, seen = seen + 1, g
        if g < a or not watch.any():
            return
        rows, regs = _rows(xs, a, g + 1), None if ss is None else _rows(ss, a, g + 1)
        d = model.extinction_distance(rows.reshape(-1, dim), None if regs is None else regs.ravel())
        hit = (np.reshape(d, rows.shape[:2]) < cfg.floor_epsilon) & watch
        stop = np.flatnonzero(hit.any(axis=0))
        for i in stop.tolist():
            last[i] = f = a + int(hit[:, i].argmax())
            X[i] = rows[f - a, i]  # frozen at its floor row
            if S is not None:
                S[i] = regs[f - a, i]
            inserted[i] = [p for p in inserted[i] if p[0] <= f]
            folded[i] = [q for q in folded[i] if q <= f]
        alive[stop] = watch[stop] = False
        n_alive = int(alive.sum())

    for k in range(n_steps):
        if n_alive == 0:
            break
        r = k % _CHUNK
        if r == 0:  # each live lane draws its next chunks from its own generator
            live = np.flatnonzero(alive).tolist()
            # never more than the steps left, but whole chunks on a regime
            # clock, whose counts follow a chunk of normals in each stream
            size = _CHUNK if thin else min(_CHUNK, n_steps - k)
            zb = dwb = None  # the last chunk's normals and noise go before the next is drawn
            if chain:
                dwb = _lane_draws(model.noise_sampler, gens, live, n, size)
            elif nd > 0:
                zb = _lane_draws(lambda gen, m: gen.standard_normal((m, nd)), gens, live, n, size)
                dwb = zb * sq if thin else np.multiply(zb, sq, out=zb)  # split steps need zb
                if G is not None:  # by the kernel of one step's G dw; only G dw is kept
                    zb, dwb = None, _matvec(G, dwb)
            if thin:
                cb = np.zeros((size, n), dtype=np.int64)
                for i in thin:
                    if alive[i]:
                        cb[:, i] = gens[i].poisson(lams[i] * dt, size)
                fired = cb.any(axis=1).tolist()
        t1 = (k + 1) * dt
        dw = None if dwb is None else dwb[r]
        try:
            xn, bad = advance(model, X, S, h, dw), []
        except Exception:  # a lane's error: past the floor, each live lane steps alone
            settle(k)
            xn, bad = X.copy(), []
            for i in np.flatnonzero(alive).tolist():
                if thin and cb[r, i]:
                    continue  # its jump step, below, takes it
                try:
                    xn[i] = step(model, X[i], None if S is None else int(S[i]), h,
                                 None if dw is None else dw[i])
                except Exception as exc:
                    bad.append((i, _name_step(exc, k, t1)))
                    break
        if thin and fired[r]:
            for i in np.flatnonzero(cb[r]).tolist():
                if not alive[i]:
                    continue
                pts = inserted[i]
                try:
                    xn[i], S[i], pending = _jump_step(
                        model, X[i], int(S[i]), k, dt, zb[r, i] if nd > 0 else None,
                        gens[i], lams[i], cb[r, i],
                        lambda t, xj, sj, pts=pts, g=k + 1: pts.append((g, t, xj, sj)))
                except Exception as exc:
                    bad.append((i, _name_step(exc, k, t1)))
                    continue
                if pending:
                    folded[i].append(k + 1)
        if n_alive < n:
            np.copyto(xn, X, where=~alive[:, None])  # stopped lanes stay frozen
        # add.reduce skips ndarray.sum's Python wrapper, a fixed cost of every step
        if not math.isfinite(np.add.reduce(xn, None)):
            for i in np.flatnonzero(~np.isfinite(xn.sum(axis=1))).tolist():
                try:
                    _check_finite(xn[i], k, t1)
                except NonFiniteState as exc:
                    bad.append((i, exc))
        if bad:  # a lane the floor stopped before step k leaves no failure
            settle(k)
            bad = [e for e in bad if alive[e[0]]]
            np.copyto(xn, X, where=~alive[:, None])
        if bad:  # every live lane is below the lanes that failed before
            failed = min(bad, key=lambda e: e[0])
            lane = failed[0]
            # serial order would never run the lanes from it on; their rows,
            # never read again, take lane 0's, which the model sees anyway
            alive[lane:] = watch[lane:] = False
            n_alive = int(alive.sum())
            xn[lane:] = xn[0]
            if S is not None:
                S[lane:] = S[0]
        X = xn
        g = k + 1
        if g % _CHUNK == 0:
            xs.append(np.empty((_CHUNK, n, dim)))
            if ss is not None:
                ss.append(np.empty((_CHUNK, n), dtype=np.int64))
        xs[-1][g % _CHUNK] = X
        if ss is not None:
            ss[-1][g % _CHUNK] = S
        if g % _FLOOR_EVERY == 0 or g == n_steps:
            settle(g)

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


def _lane_draws(sample, gens, live, n, size):
    """A (size, n, ...) block of draws: each live lane's next ``size`` of
    ``sample(gen, size)`` from its own generator, zeros for the rest."""
    block = None
    for i in live:
        draws = np.asarray(sample(gens[i], size))
        if draws.shape[:1] != (size,):
            raise ValueError(f"noise_sampler(gen, {size}) gave shape {draws.shape}, "
                             f"not {size} draws on a leading axis")
        if block is None:
            block = np.zeros((size, n) + draws.shape[1:], dtype=draws.dtype)
        block[:, i] = draws
    return block


def _rows(chunks, a, b, lanes=slice(None)):
    """Rows a..b-1, of the given lanes, of a block record kept in ``_CHUNK``-row chunks."""
    return np.concatenate([c[max(a - j * _CHUNK, 0):b - j * _CHUNK, lanes] for j, c in
                           enumerate(chunks[a // _CHUNK:(b - 1) // _CHUNK + 1], a // _CHUNK)])


def _lane_path(xs, ss, i, last, dt, track_regime, inserted, folded) -> Trajectory:
    """Lane i's path: its grid points 0..last of the block record, with the
    regime-jump points it inserted spliced in before the grid points they
    precede."""
    times = np.arange(last + 1) * dt
    states = _rows(xs, 0, last + 1, i)
    regimes = _rows(ss, 0, last + 1, i) if track_regime else None
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
    times, states, jumps = [0.0], [x], []
    t = 0.0
    while True:
        t += gen.exponential()
        if t >= t_final:
            break
        x = _transition(chain, x, None, 1.0, chain.noise_sampler(gen))
        _check_finite(x)
        jumps.append(len(times))
        times.append(t)
        states.append(x)
    if times[-1] < t_final:
        times.append(t_final)
        states.append(x)
    return Trajectory(np.array(times), np.array(states), None, np.array(jumps, dtype=np.int64))
