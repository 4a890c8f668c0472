"""Average-Lyapunov machinery: the function suite, Dynkin and
quadratic-variation residuals, occupation averages, and assumption
diagnostics.

Quadrature convention: trapezoidal between diffusion grid points,
left-endpoint rectangles across jump indices (cadlag paths are
right-continuous, so the value recorded at a jump time belongs to the
interval after it, not before).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .errors import EmptyWindow, NonFiniteObservable
from .process_core import ModelSpec, StateVector, Trajectory, as_generator


class _ResolvedOnRead:
    """Dataclass field holding a float, or a zero-argument callable that is
    called on the first read and replaced by its value."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.slot)  # no class-level default
        value = obj.__dict__[self.slot]
        if callable(value):
            value = float(value())
            obj.__dict__[self.slot] = value
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value


@dataclass(frozen=True)
class LyapunovSuite:
    """The functions V, H, GammaV, W, W', U, U' and constants attached to a model.

    V blows up at the extinction set; H is the continuous extension of LV
    (never evaluated through V near the boundary); W, W' control tightness
    via LW <= K - W'; U, U' bound the quadratic variations via
    LU <= K - U', GammaW <= K U', GammaV <= K U'.  ``K`` may be given as a
    zero-argument callable, so a costly calibration runs only when K is read.
    """

    V: Callable
    H: Callable
    gammaV: Callable
    W: Callable
    Wprime: Callable
    U: Callable
    Uprime: Callable
    K: float = _ResolvedOnRead()
    alpha_candidate: Optional[float] = None


def constant_suite(V, H, gammaV, K, alpha_candidate=None) -> LyapunovSuite:
    """Suite for compact state spaces: W, W', U, U' all identically one."""
    one = lambda x, s=None: np.ones(np.shape(np.asarray(x, dtype=float))[:-1])
    return LyapunovSuite(V=V, H=H, gammaV=gammaV, W=one, Wprime=one,
                         U=one, Uprime=one, K=K, alpha_candidate=alpha_candidate)


def eval_along(g: Callable, traj: Trajectory) -> np.ndarray:
    """Evaluate an observable on every grid point of the trajectory."""
    v = np.asarray(g(traj.states, traj.regimes), dtype=float)
    if v.ndim == 0:
        v = np.full(len(traj.times), float(v))
    if v.shape != traj.times.shape:
        raise NonFiniteObservable(
            f"observable returned shape {v.shape}, expected {traj.times.shape}")
    if not np.isfinite(v).all():
        raise NonFiniteObservable("observable produced non-finite values")
    return v


def _segment_integrals(traj: Trajectory, values: np.ndarray) -> np.ndarray:
    """Per-interval integrals with the trapezoid/left-rectangle convention."""
    dt = np.diff(traj.times)
    seg = 0.5 * (values[:-1] + values[1:]) * dt
    if traj.jumps.size:
        j = traj.jumps[traj.jumps >= 1] - 1
        seg[j] = values[j] * dt[j]
    return seg


def cumulative_integral(traj: Trajectory, values: np.ndarray) -> np.ndarray:
    out = np.empty_like(traj.times)
    out[0] = 0.0
    np.cumsum(_segment_integrals(traj, values), out=out[1:])
    return out


def dynkin_residual(traj: Trajectory, f: Callable, Lf: Callable) -> np.ndarray:
    """M_t = f(X_t) - f(X_0) - int_0^t Lf(X_s) ds on the trajectory grid."""
    fv = eval_along(f, traj)
    lv = eval_along(Lf, traj)
    return fv - fv[0] - cumulative_integral(traj, lv)


def qv_residual(traj: Trajectory, f: Callable, Lf: Callable, Gf: Callable) -> np.ndarray:
    """(M_t^f)^2 - int_0^t Gamma f(X_s) ds; replica means estimate zero."""
    m = dynkin_residual(traj, f, Lf)
    gv = eval_along(Gf, traj)
    return m * m - cumulative_integral(traj, gv)


def occupation_average(traj: Trajectory, g: Callable, burn_in: float = 0.0) -> float:
    """Time average of g over [burn_in, T] (empirical occupation mean)."""
    if burn_in >= traj.duration:
        raise EmptyWindow(f"burn_in {burn_in} >= trajectory duration {traj.duration}")
    v = eval_along(g, traj)
    i0 = int(np.searchsorted(traj.times, burn_in, side="left"))
    if i0 >= len(traj.times) - 1:
        raise EmptyWindow("no full grid interval after burn_in")
    seg = _segment_integrals(traj, v)
    total = float(seg[i0:].sum())
    return total / (traj.duration - float(traj.times[i0]))


# -- numerical generator application ------------------------------------------

_FD_GRAD_STEP = 1e-5
_FD_HESS_STEP = 1e-4


def _sigma_matrix(model: ModelSpec, x, s) -> Optional[np.ndarray]:
    if model.noise_dim == 0:
        return None
    if model.diffusion_diag is not None:
        g = np.asarray(model.diffusion_diag(x, s), dtype=float)
        return np.diag(g * g)
    sig = np.asarray(model.diffusion(x, s), dtype=float)
    return sig @ sig.T


def _fd_grad_hess(f, x, s):
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    scale = 1.0 + float(np.linalg.norm(x))
    h1 = _FD_GRAD_STEP * scale
    h2 = _FD_HESS_STEP * scale
    grad = np.empty(n)
    hess = np.empty((n, n))
    f0 = float(f(x, s))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = 1.0
        grad[i] = (float(f(x + h1 * ei, s)) - float(f(x - h1 * ei, s))) / (2 * h1)
        hess[i, i] = (float(f(x + h2 * ei, s)) - 2 * f0 + float(f(x - h2 * ei, s))) / h2**2
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = 1.0
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = 1.0
            fpp = float(f(x + h2 * (ei + ej), s))
            fpm = float(f(x + h2 * (ei - ej), s))
            fmp = float(f(x - h2 * (ei - ej), s))
            fmm = float(f(x - h2 * (ei + ej), s))
            hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4 * h2**2)
    return grad, hess


def _jump_part(model, f, x, s, squared=False):
    if model.switch_rates is None or s is None:
        return 0.0
    q = np.asarray(model.switch_rates(x), dtype=float)
    f0 = float(f(x, s))
    out = 0.0
    for b in range(model.n_regimes):
        if b == s:
            continue
        diff = float(f(x, b)) - f0
        out += q[s, b] * (diff * diff if squared else diff)
    return out


def _chain_mean(chain: ModelSpec, x, rng, n_mc: int, g: Callable) -> float:
    """Monte Carlo mean of g(X_1) over ``n_mc`` steps of a chain from x: one
    sized draw from ``rng`` (a default_rng(0) if None), one block step, g on
    the (n_mc, dim) block of next states, and its values summed in draw
    order, bit for bit as a loop of single draws if g gives each row's value."""
    gen = np.random.default_rng(0) if rng is None else as_generator(rng)
    xs = chain.step_map(np.tile(x, (n_mc, 1)), chain.noise_sampler(gen, n_mc))
    return float(np.cumsum(g(np.asarray(xs, dtype=float)))[-1]) / n_mc


def generator_apply(model: ModelSpec, f: Callable, state: StateVector,
                    rng=None, n_mc: int = 4000) -> float:
    """Numerically apply the generator L to f at a point.

    Diffusion families use central finite differences (drift . grad +
    half Sigma : Hessian) plus the exact regime-jump sum; discrete chains
    use Monte Carlo over the step noise, E[f(X_1)] - f(x).
    """
    x, s = state.x, state.regime
    if model.family == "discrete_chain":
        f0 = float(f(x, s))
        return _chain_mean(model, x, rng, n_mc, lambda xs: f(xs, s) - f0)
    grad, hess = _fd_grad_hess(f, x, s)
    drift = np.asarray(model.drift(x, s), dtype=float)
    out = float(drift @ grad)
    sig = _sigma_matrix(model, x, s)
    if sig is not None:
        out += 0.5 * float(np.tensordot(sig, hess))
    return out + _jump_part(model, f, x, s)


def gamma_apply(model: ModelSpec, f: Callable, state: StateVector,
                rng=None, n_mc: int = 4000) -> float:
    """Carre du champ Gamma f = L(f^2) - 2 f Lf, evaluated numerically."""
    x, s = state.x, state.regime
    if model.family == "discrete_chain":
        f0 = float(f(x, s))
        return _chain_mean(model, x, rng, n_mc, lambda xs: np.square(f(xs, s) - f0))
    grad, _ = _fd_grad_hess(f, x, s)
    sig = _sigma_matrix(model, x, s)
    out = float(grad @ sig @ grad) if sig is not None else 0.0
    return out + _jump_part(model, f, x, s, squared=True)


# -- diagnostics ---------------------------------------------------------------

@dataclass
class TightnessReport:
    times: np.ndarray
    running_average: np.ndarray
    k: float
    tail_average: float
    slack: float
    passed: bool


def tightness_check(traj: Trajectory, suite: LyapunovSuite, slack: float = 0.0,
                    tail_fraction: float = 0.25) -> TightnessReport:
    """Running mu_t(W') along the path; flags a violation if the tail average
    exceeds the suite constant K by more than the configured slack."""
    w = eval_along(suite.Wprime, traj)
    cum = cumulative_integral(traj, w)
    mu = cum[1:] / traj.times[1:]
    t = traj.times[1:]
    i0 = int(np.searchsorted(t, traj.duration * (1.0 - tail_fraction)))
    i0 = min(i0, len(t) - 1)
    tail = float(mu[i0:].mean())
    return TightnessReport(times=t, running_average=mu, k=suite.K,
                           tail_average=tail, slack=slack,
                           passed=bool(tail <= suite.K + slack))


def suite_terms(model: ModelSpec, suite: LyapunovSuite,
                points: Sequence[StateVector], rng=None, n_mc: int = 4000,
                skip_unbounded: bool = False):
    """Yield (W', U', LW, LU, GammaW, GammaV) at each point, evaluated in that
    order so Monte Carlo draws from ``rng`` are reproducible.  GammaV is the
    suite's own ``gammaV`` when it has one.  With ``skip_unbounded`` the two
    Gamma terms are None where U' <= 0, since no K bounds them there."""
    for p in points:
        x, s = p.x, p.regime
        wp = float(suite.Wprime(x, s))
        up = float(suite.Uprime(x, s))
        lw = generator_apply(model, suite.W, p, rng=rng, n_mc=n_mc)
        lu = generator_apply(model, suite.U, p, rng=rng, n_mc=n_mc)
        gw = gv = None
        if up > 0 or not skip_unbounded:
            gw = gamma_apply(model, suite.W, p, rng=rng, n_mc=n_mc)
            gv = float(suite.gammaV(x, s)) if suite.gammaV is not None else \
                gamma_apply(model, suite.V, p, rng=rng, n_mc=n_mc)
        yield wp, up, lw, lu, gw, gv


@dataclass
class SuiteReport:
    violations: Dict[str, float]
    tolerance: float
    passed: bool
    worst: str = ""


def suite_diagnostics(model: ModelSpec, suite: LyapunovSuite,
                      sample_points: Sequence[StateVector],
                      rng=None, n_mc: int = 4000,
                      tolerance: float = 1e-6) -> SuiteReport:
    """Pointwise check of the suite inequalities on a sample grid.

    Reports the maximum violation of LW <= K - W', LU <= K - U',
    GammaW <= K U', and GammaV <= K U'; all below tolerance means the suite
    passes at the sampled points (violations are report content, not errors).
    """
    if not sample_points:
        raise ValueError("sample_points must be nonempty")
    k = suite.K
    tags = {"LW <= K - W'": [], "LU <= K - U'": [],
            "GammaW <= K*U'": [], "GammaV <= K*U'": []}
    for wp, up, lw, lu, gw, gv in suite_terms(model, suite, sample_points, rng, n_mc):
        tags["LW <= K - W'"].append(lw - (k - wp))
        tags["LU <= K - U'"].append(lu - (k - up))
        tags["GammaW <= K*U'"].append(gw - k * up)
        tags["GammaV <= K*U'"].append(gv - k * up)
    violations = {name: float(np.max(vals)) for name, vals in tags.items()}
    worst = max(violations, key=violations.get)
    passed = all(v <= tolerance for v in violations.values())
    return SuiteReport(violations=violations, tolerance=tolerance,
                       passed=passed, worst=worst)


@dataclass
class StrongLawReport:
    horizon: float
    max_half: float
    max_full: float
    ratio: float
    shrinking: bool


def strong_law_check(replicas: Sequence[Trajectory], f: Callable,
                     Lf: Callable) -> StrongLawReport:
    """Check the martingale strong law: max_replicas |M_T|/T shrinks in T.

    Compares the half-horizon and full-horizon normalized residuals; the
    ratio is below 0.8 for sqrt(T)-scaling martingales.
    """
    if len(replicas) < 30:
        raise ValueError("strong_law_check needs at least 30 replicas")
    horizon = replicas[0].duration
    for tr in replicas:
        if abs(tr.duration - horizon) > 1e-9 * max(1.0, horizon):
            raise ValueError("replicas must share a common horizon")
    half_vals, full_vals = [], []
    for tr in replicas:
        m = dynkin_residual(tr, f, Lf)
        ih = int(np.searchsorted(tr.times, horizon / 2.0))
        ih = min(ih, len(tr.times) - 1)
        half_vals.append(abs(m[ih]) / tr.times[ih])
        full_vals.append(abs(m[-1]) / horizon)
    max_half = float(np.max(half_vals))
    max_full = float(np.max(full_vals))
    if max_half < 1e-12:
        ratio = 0.0
    else:
        ratio = max_full / max_half
    return StrongLawReport(horizon=horizon, max_half=max_half,
                           max_full=max_full, ratio=ratio,
                           shrinking=bool(ratio < 0.8))
