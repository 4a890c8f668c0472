"""Shared plumbing for the shipped model families."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..lyapunov import LyapunovSuite, gamma_apply, generator_apply
from ..process_core import ModelSpec, StateVector


@dataclass(frozen=True)
class QuadrupleMap:
    """Change of variables from a blown-up space onto the original one.

    ``forward`` maps blown-up states (vectorized over leading axes) onto
    original states; simulating the blown-up model and mapping forward
    reproduces the original path law pathwise under shared noise.
    """

    forward: Callable
    inverse: Optional[Callable] = None
    boundary_preimage: str = ""


@dataclass(frozen=True)
class ModelBundle:
    """A model together with its Lyapunov suite and boundary companions.

    ``boundary`` simulates the dynamics restricted to the (blown-up)
    extinction set with ``boundary_H`` the continuous extension of LV there;
    ``blowup`` is the full blown-up model that ``quad_map.forward`` sends
    back onto the original state space.
    """

    name: str
    model: ModelSpec
    suite: LyapunovSuite
    boundary: Optional[ModelSpec] = None
    boundary_H: Optional[Callable] = None
    blowup: Optional[ModelSpec] = None
    quad_map: Optional[QuadrupleMap] = None
    default_ic: Optional[StateVector] = None
    boundary_ic: Optional[StateVector] = None
    species_H: Optional[Callable] = None  # i -> H_i, for per-species invasion rates
    params: dict = field(default_factory=dict)


def calibrate_suite_constant(model, V, gammaV, W, Wprime, U, Uprime,
                             calib_points, floor: float = 1.0,
                             margin: float = 1.3, n_mc: int = 1000) -> float:
    """Smallest K (with margin) making the suite inequalities hold on a sample.

    Global verification is analytic and out of numerical reach; the shipped
    suites pin K on a deterministic calibration sample that covers the
    region the diagnostics exercise.
    """
    rng = np.random.default_rng(99)
    needs = [floor]
    for p in calib_points:
        x, s = p.x, p.regime
        wp = float(Wprime(x, s))
        up = float(Uprime(x, s))
        needs.append(generator_apply(model, W, p, rng=rng, n_mc=n_mc) + wp)
        needs.append(generator_apply(model, U, p, rng=rng, n_mc=n_mc) + up)
        if up > 0:
            needs.append(gamma_apply(model, W, p, rng=rng, n_mc=n_mc) / up)
            gv = float(gammaV(x, s)) if gammaV is not None else \
                gamma_apply(model, V, p, rng=rng, n_mc=n_mc)
            needs.append(gv / up)
    return margin * max(needs) + 0.5


def power_suite(model, V, H, gammaV, ubar, lu_over_u, gu_over_u2,
                calib_points, alpha_candidate=None,
                s_u: float = 0.05) -> LyapunovSuite:
    """Suite built from a master function Ubar >= 1 with L Ubar <= K - c Ubar.

    Uses the fractional powers W = Ubar^(1/4), U = Ubar^(1/2) and the scale
    function phi = max(2 - L Ubar / Ubar + Gamma Ubar / Ubar^2, 1), so the
    quadratic variations of W and V are dominated by U'; K is calibrated on
    the supplied sample when it is first read.
    """

    def phi(x, s=None):
        return np.maximum(2.0 - lu_over_u(x, s) + gu_over_u2(x, s), 1.0)

    def W(x, s=None):
        return ubar(x, s) ** 0.25

    def U(x, s=None):
        return ubar(x, s) ** 0.5

    def Uprime(x, s=None):
        return s_u * U(x, s) * phi(x, s)

    def Wprime(x, s=None):
        return np.maximum(0.5 * s_u * W(x, s) * phi(x, s), 1.0)

    def k():
        return calibrate_suite_constant(model, V, gammaV, W, Wprime, U, Uprime,
                                        calib_points)

    return LyapunovSuite(V=V, H=H, gammaV=gammaV, W=W, Wprime=Wprime,
                         U=U, Uprime=Uprime, K=k, alpha_candidate=alpha_candidate)


def batched(fn):
    """Wrap a batch-only observable so it also accepts single states.

    ``fn`` sees x with shape (n, dim) and s as an (n,) int array or None.
    """

    def wrapper(x, s=None):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            sb = None if s is None else np.asarray([s], dtype=int)
            return float(np.asarray(fn(x[None, :], sb))[0])
        sb = None if s is None else np.asarray(s, dtype=int)
        return fn(x, sb)

    return wrapper


def ball_sample(dim: int, radius: float, count: int, seed: int = 777,
                regimes: int = 0, nonneg: bool = False) -> list:
    """Deterministic sample of states in a ball, for suite calibration."""
    gen = np.random.default_rng(seed)
    pts = []
    for i in range(count):
        x = gen.uniform(-radius, radius, size=dim)
        if nonneg:
            x = np.abs(x)
        s = int(gen.integers(regimes)) if regimes > 0 else None
        pts.append(StateVector(x, s))
    return pts
