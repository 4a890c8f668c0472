"""Estimators for H-exponents and extinction decay slopes.

Sign convention: exponents are decay rates per unit time, positive when the
process converges to the extinction set (slope of V = -log d against t).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .criteria import eigenvalues
from .errors import WindowTooShort
# simulate is not called here; perfbench's tracer test finds it under this name
from .integrators import _LANES, SimConfig, simulate, simulate_lanes  # noqa: F401
from .lyapunov import LyapunovSuite, eval_along, occupation_average
from .process_core import ModelSpec, StateVector, Trajectory, replica_streams

MIN_WINDOW_POINTS = 100

_T975 = (12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
         2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
         2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
         2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
         2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
         2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
         2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
         2.045229642132703, 2.0422724563012378)


def t975(nu: int) -> float:
    """0.975 quantile of Student's t with nu >= 1 degrees of freedom: tabulated
    up to nu = 30, then the Cornish-Fisher series, whose error is below 2e-6."""
    if nu <= len(_T975):
        return _T975[nu - 1]
    z = 1.959963984540054
    return (z + (z**3 + z) / (4 * nu) + (5 * z**5 + 16 * z**3 + 3 * z) / (96 * nu**2)
            + (3 * z**7 + 19 * z**5 + 17 * z**3 - 15 * z) / (384 * nu**3))


@dataclass(frozen=True)
class ExponentEstimate:
    """Point estimate with a 95% confidence interval from replica spread."""

    point: float
    ci_low: float
    ci_high: float
    n_replicas: int
    horizon: float
    method: str

    def __post_init__(self):
        if not (self.ci_low <= self.point <= self.ci_high):
            raise ValueError("confidence interval must bracket the point estimate")
        if self.n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")

    def to_dict(self) -> dict:
        return {"method": self.method, "point": self.point,
                "ci_low": self.ci_low, "ci_high": self.ci_high,
                "n_replicas": self.n_replicas, "horizon": self.horizon}


def _estimate(values, horizon, method) -> ExponentEstimate:
    values = np.asarray(values, dtype=float)
    point = float(values.mean())
    if values.size > 1:
        half = t975(values.size - 1) * float(values.std(ddof=1)) / np.sqrt(values.size)
    else:
        half = 0.0
    return ExponentEstimate(point=point, ci_low=point - half, ci_high=point + half,
                            n_replicas=int(values.size), horizon=float(horizon),
                            method=method)


def _boundary_replicas(model: ModelSpec, ics, reps: int, seed: int) -> list:
    """The replicas a boundary estimate runs: every (ic, replica) of the
    replica rule, or the first replica of each ic when the model is
    noise-free and single-regime, as all its replicas follow that path."""
    if not ics:
        raise ValueError("need at least one boundary initial condition")
    replicas = replica_streams(ics, reps, seed)
    if model.family == "sde" and model.noise_dim == 0:
        replicas = replicas[::reps]
    return replicas


def _boundary_estimate(vals, n_ics: int, reps: int, horizon: float) -> ExponentEstimate:
    """Minimum over ics of the replica means of the occupation averages
    ``vals`` of ``_boundary_replicas``' runs, with the CI at the argmin; a
    noise-free path stands for each of its ic's replicas."""
    per_ic = np.broadcast_to(np.reshape(vals, (n_ics, -1)), (n_ics, reps))
    means = [v.mean() for v in per_ic]
    argmin = int(np.argmin(means))
    return _estimate(per_ic[argmin], horizon, "boundary_average")


def _burn(cfg: SimConfig, burn_in: Optional[float]) -> float:
    return cfg.t_final * 0.1 if burn_in is None else burn_in


def boundary_exponent(boundary_model: ModelSpec, H: Callable,
                      ics: Sequence[StateVector], cfg: SimConfig, reps: int,
                      seed: int = 0, burn_in: Optional[float] = None) -> ExponentEstimate:
    """Estimate inf over boundary invariant measures of the H average.

    Simulates the boundary dynamics from each initial condition, takes the
    post-burn-in occupation average of H per replica, and returns the minimum
    over initial conditions of the replica means, with the confidence
    interval from the replica spread at the argmin.  A noise-free,
    single-regime model is simulated once per initial condition and that
    value stands for each of its replicas.
    """
    burn = _burn(cfg, burn_in)
    replicas = _boundary_replicas(boundary_model, ics, reps, seed)
    vals = simulate_lanes(boundary_model, replicas, cfg,
                          lambda path: occupation_average(path, H, burn))
    return _boundary_estimate(vals, len(ics), reps, cfg.t_final)


def trajectory_slope(traj: Trajectory, V: Callable,
                     window: float = 0.5) -> ExponentEstimate:
    """OLS slope of V(X_t) against t over the final window fraction.

    With V = -log d(., M0) the slope estimates the exponential extinction
    rate.  The window must contain at least 100 grid points.
    """
    if not (0 < window <= 1):
        raise ValueError("window must be a fraction in (0, 1]")
    t_start = traj.duration * (1.0 - window)
    i0 = int(np.searchsorted(traj.times, t_start, side="left"))
    n = len(traj.times) - i0
    if n < MIN_WINDOW_POINTS:
        raise WindowTooShort(
            f"slope window holds {n} grid points, need >= {MIN_WINDOW_POINTS}")
    t = traj.times[i0:]
    v = eval_along(V, traj)[i0:]
    tc = t - t.mean()
    slope = float((tc @ (v - v.mean())) / (tc @ tc))
    return ExponentEstimate(point=slope, ci_low=slope, ci_high=slope,
                            n_replicas=1, horizon=traj.duration,
                            method="trajectory_slope")


def slope_experiment(model: ModelSpec, V: Callable, x0: StateVector,
                     cfg: SimConfig, reps: int, seed: int = 0,
                     window: float = 0.5) -> ExponentEstimate:
    """Replica-averaged trajectory slope with CI from the replica spread."""
    slopes = simulate_lanes(model, replica_streams([x0], reps, seed), cfg,
                            lambda traj: trajectory_slope(traj, V, window).point)
    return _estimate(slopes, cfg.t_final, "trajectory_slope")


def _is_early(traj: Trajectory, cfg: SimConfig) -> bool:
    return traj.duration < cfg.t_final * (1.0 - 1e-12)


def extinction_fraction(model: ModelSpec, suite: LyapunovSuite,
                        ics: Sequence[StateVector], cfg: SimConfig, reps: int,
                        tol: float, seed: int = 0,
                        window: float = 0.5) -> float:
    """Fraction of (ic, replica) runs consistent with extinction at the
    suite's candidate rate.

    A run counts as success if its V-slope is at least alpha_candidate - tol,
    or if it reached the extinction floor before t_final (the finite-precision
    analogue of asymptotic extinction).
    """
    if suite.alpha_candidate is None:
        raise ValueError("suite.alpha_candidate must be set")
    alpha = suite.alpha_candidate

    def win(traj) -> bool:
        if _is_early(traj, cfg):
            return True
        try:
            est = trajectory_slope(traj, suite.V, window)
        except WindowTooShort:
            return False
        return est.point >= alpha - tol

    wins = simulate_lanes(model, replica_streams(ics, reps, seed), cfg, win)
    return sum(wins) / len(wins)


@dataclass
class ScanReport:
    """Per-parameter exponent estimates plus a drop-discontinuity check."""

    entries: list
    max_adjacent_gap: float
    discontinuities: list
    monotone_envelope_ok: bool


def robustness_scan(model_family: Callable, grid: Sequence, ics, cfg: SimConfig,
                    reps: int, seed: int = 0, burn_in: Optional[float] = None,
                    gap_tol: float = 0.0, lanes: Optional[Callable] = None) -> ScanReport:
    """Evaluate the boundary exponent along a parameter grid.

    ``model_family`` maps a parameter value to (boundary_model, H).  Adjacent
    estimates whose gap exceeds the summed CI half-widths plus gap_tol are
    flagged as candidate lower-semicontinuity violations.

    Each value's estimate is ``boundary_exponent``'s, and replica k draws
    from stream k at every value (common random numbers).  ``lanes``, a
    bundle's ``boundary_lanes`` bound to the scanned parameter, maps an (n,)
    array of per-lane values to one batch-first boundary spec whose row i
    steps as ``model_family(values[i])``'s model does.  With it and two or
    more values, the runs of all values step as lanes of one block, value by
    value, each reduced with its own value's H; without it the values run
    one after another.  Both give the same estimates bit for bit.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("parameter grid must be nonempty")
    family = [model_family(theta) for theta in grid]
    if any(model.dim != family[0][0].dim for model, _ in family):
        raise ValueError("all scanned models must share state dimension")
    if lanes is None or len(grid) < 2:
        ests = [boundary_exponent(model, H, ics, cfg, reps, seed=seed, burn_in=burn_in)
                for model, H in family]
    else:
        ests = _scan_lanes(lanes, grid, family, ics, cfg, reps, seed, _burn(cfg, burn_in))
    entries = list(zip(grid, ests))
    gaps = []
    flagged = []
    for (ta, ea), (tb, eb) in zip(entries[:-1], entries[1:]):
        gap = abs(ea.point - eb.point)
        gaps.append(gap)
        spread = (ea.ci_high - ea.ci_low) / 2 + (eb.ci_high - eb.ci_low) / 2
        if gap > spread + gap_tol:
            flagged.append((ta, tb, gap))
    return ScanReport(entries=entries,
                      max_adjacent_gap=float(max(gaps)) if gaps else 0.0,
                      discontinuities=flagged,
                      monotone_envelope_ok=not flagged)


def _scan_lanes(lanes, grid, family, ics, cfg, reps, seed, burn) -> list:
    """``boundary_exponent`` at each grid value, with the runs of all values
    stepped as lanes of one block spec made by ``lanes``."""
    runs = [_boundary_replicas(model, ics, reps, seed) for model, _ in family]
    replicas = [rep for run in runs for rep in run]
    thetas = np.asarray([theta for theta, run in zip(grid, runs) for _ in run])
    Hs = [H for (_, H), run in zip(family, runs) for _ in run]
    n = len(replicas)
    blocks = -(-n // _LANES)  # the block split of simulate_lanes, so each spec fits its block
    vals = []
    for b in range(blocks):
        lo, hi = b * n // blocks, (b + 1) * n // blocks
        hs = iter(Hs[lo:hi])  # simulate_lanes reduces the paths in lane order
        vals += simulate_lanes(lanes(thetas[lo:hi]), replicas[lo:hi], cfg,
                               lambda path: occupation_average(path, next(hs), burn))
    vals = iter(vals)
    return [_boundary_estimate(list(itertools.islice(vals, len(run))), len(ics), reps,
                               cfg.t_final) for run in runs]


def linear_sde_exponent(A) -> float:
    """Deterministic linear benchmark: minus the largest real part of eig(A)."""
    return float(-np.max(eigenvalues(A).real))
