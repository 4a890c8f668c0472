"""Shared plumbing for the shipped model families."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from ..lyapunov import LyapunovSuite, suite_terms
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


@dataclass(frozen=True)
class ModelBundle:
    """A model together with its Lyapunov suite and boundary companions.

    ``boundary`` simulates the dynamics restricted to the (blown-up)
    extinction set with ``boundary_H`` the continuous extension of LV there;
    ``blowup`` is the full blown-up model that ``quad_map.forward`` sends
    back onto the original state space.

    ``boundary_lanes(param, values)``, when set, maps a scanned parameter
    and an (n,) array of per-lane values to one batch-first boundary spec
    whose row i is bit for bit that of ``boundary`` rebuilt with
    ``param = values[i]``, so ``exponents.robustness_scan`` can step every
    scan value's replicas as one block.  Only the Lorenz bundle sets it.
    """

    name: str
    model: ModelSpec
    suite: LyapunovSuite
    boundary: Optional[ModelSpec] = None
    boundary_H: Optional[Callable] = None
    boundary_lanes: Optional[Callable] = None
    blowup: Optional[ModelSpec] = None
    quad_map: Optional[QuadrupleMap] = None
    default_ic: Optional[StateVector] = None
    boundary_ic: Optional[StateVector] = None
    species_H: Optional[Callable] = None  # i -> H_i, for per-species invasion rates


def calibrate_suite_constant(model, suite: LyapunovSuite, calib_points,
                             floor: float = 1.0, margin: float = 1.3,
                             n_mc: int = 1000) -> float:
    """Smallest K (with margin) making the suite inequalities hold on a sample.

    Global verification is analytic and out of numerical reach; the shipped
    suites pin K on a deterministic calibration sample that covers the
    region the diagnostics exercise.
    """
    needs = [floor]
    for wp, up, lw, lu, gw, gv in suite_terms(model, suite, calib_points,
                                              np.random.default_rng(99), n_mc,
                                              skip_unbounded=True):
        needs.append(lw + wp)
        needs.append(lu + up)
        if up > 0:
            needs.append(gw / up)
            needs.append(gv / up)
    return margin * max(needs) + 0.5


def power_suite(model, V, H, gammaV, P, shape, calib_radius: float, nonneg: bool = False,
                alpha_candidate=None, s_u: float = 0.05) -> LyapunovSuite:
    """Suite built from a master function Ubar = g(q), q = x'Px, with
    L Ubar <= K - c Ubar.

    ``P`` is symmetric and ``shape`` holds g, g'/g and g''/g as functions of
    q.  Ito's formula with the model's own drift F and diffusion G gives

        Lq = 2 F.Px + tr(G'PG),   Gamma q = 4 |G'Px|^2,
        L Ubar / Ubar = (g'/g) Lq + (g''/g) Gamma q / 2,
        Gamma Ubar / Ubar^2 = (g'/g)^2 Gamma q.

    Uses the fractional powers W = Ubar^(1/4), U = Ubar^(1/2) and the scale
    function phi = max(2 - L Ubar / Ubar + Gamma Ubar / Ubar^2, 1), so the
    quadratic variations of W and V are dominated by U'; K is calibrated when
    it is first read, on ``ball_sample`` points of radius ``calib_radius``.
    """
    P = np.asarray(P, dtype=float)
    g, g1, g2 = shape

    def ubar(x):
        x = np.asarray(x, dtype=float)
        return g(np.sum(x * (x @ P), axis=-1))

    def phi(x, s=None):
        x = np.asarray(x, dtype=float)
        px = x @ P
        q = np.sum(x * px, axis=-1)
        lq = 2.0 * np.sum(model.drift(x, s) * px, axis=-1)
        gq = 0.0
        if model.noise_dim > 0:
            G = model.diffusion(x, s)  # (..., n, d)
            gpx = np.matmul(px[..., None, :], G)[..., 0, :]
            lq = lq + np.sum(G * (P @ G), axis=(-2, -1))
            gq = 4.0 * np.sum(gpx * gpx, axis=-1)
        a = g1(q)
        return np.maximum(2.0 - (a * lq + 0.5 * g2(q) * gq) + a * a * gq, 1.0)

    # float_power keeps libm's pow for each row of a block, as for one state
    def W(x, s=None):
        return np.float_power(ubar(x), 0.25)

    def U(x, s=None):
        return np.float_power(ubar(x), 0.5)

    def Uprime(x, s=None):
        return s_u * U(x, s) * phi(x, s)

    def Wprime(x, s=None):
        return np.maximum(0.5 * s_u * W(x, s) * phi(x, s), 1.0)

    def k():
        return calibrate_suite_constant(model, suite,
                                        ball_sample(model.dim, calib_radius, 48, nonneg=nonneg))

    suite = LyapunovSuite(V=V, H=H, gammaV=gammaV, W=W, Wprime=Wprime,
                          U=U, Uprime=Uprime, K=k, alpha_candidate=alpha_candidate)
    return suite


class PolarFamily(NamedTuple):
    """V, H and Gamma V of a model with the origin as extinction set, plus
    the bundle companions of its polar blow-up x = r v."""

    V: Callable
    H: Callable
    gammaV: Callable
    blowup: ModelSpec
    boundary: ModelSpec
    boundary_H: Callable
    quad_map: QuadrupleMap


def _dot(a, b):
    """Inner product over the last axis of one vector or of each row of a
    batch, each row bit for bit the 1-d ``a @ b``."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _norm(x):
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def polar_blowup(model: ModelSpec, phi: Callable, psi: Callable,
                 nonneg: bool = False, quiet_boundary: bool = False) -> PolarFamily:
    """Derive V = -log|x|, H, Gamma V and the polar companions of ``model``.

    ``phi(v, r, s)`` and ``psi(v, r, s)`` are the unit coefficients, defined
    by F(r v) = r phi and G(r v) = r psi with psi an (n, noise_dim) matrix,
    or its diagonal (shape (..., n)) when ``model`` has ``diffusion_diag``.
    They take v of shape (..., n), r as a float or of shape (..., 1), and s
    as None, an int or an int array.  Ito's formula for r = |x|, v = x / r:

        dr = r mu_r dt + r v'psi dW,   mu_r = v.phi + (|psi|_F^2 - |psi'v|^2) / 2
        dv = [(I - vv')(phi - psi psi'v) - v (|psi|_F^2 - |psi'v|^2) / 2] dt
             + (I - vv') psi dW

    so LV = H = -(mu_r - |psi'v|^2 / 2) and Gamma V = |psi'v|^2 extend
    continuously to r = 0.  The boundary model is the v equation at r = 0;
    ``quiet_boundary`` declares psi(v, 0, s) = 0, which makes it noise-free.
    ``nonneg`` keeps v on the nonnegative part of the sphere.
    """
    n, d = model.dim, model.noise_dim
    noisy_boundary = d > 0 and not quiet_boundary
    diag = model.diffusion_diag is not None

    def noise(v, r, s):
        g = psi(v, r, s)
        return g, g * v if diag else np.matmul(v[..., None, :], g)[..., 0, :]  # psi, psi'v

    def ito(v, r, s, noisy):
        """phi - psi psi'v, mu_r and |psi'v|^2 at (v, r); psi counts as zero
        unless ``noisy``.  Since v.(phi - psi psi'v) = v.phi - |psi'v|^2, the
        v drift is (phi - psi psi'v) - (mu_r - |psi'v|^2) v."""
        f = phi(v, r, s)
        if not noisy:
            return f, _dot(v, f), 0.0
        g, w = noise(v, r, s)
        ww = _dot(w, w)
        mu_r = _dot(v, f) + 0.5 * (np.sum(g * g, axis=-1 if diag else (-2, -1)) - ww)
        return f - (g * w if diag else np.matmul(g, w[..., None])[..., 0]), mu_r, ww

    def sphere_drift(v, r, s, noisy):
        a, mu_r, ww = ito(v, r, s, noisy)
        return a - (mu_r - ww)[..., None] * v, mu_r

    def sphere_noise(v, r, s):
        g, w = noise(v, r, s)
        if diag:  # np.diag of each row
            g = np.where(np.eye(n, dtype=bool), g[..., None, :], 0.0)
        return g - v[..., :, None] * w[..., None, :], w  # (I - vv') psi, psi'v

    def H_at(v, r, s, noisy):
        _, mu_r, ww = ito(v, r, s, noisy)
        return -(mu_r - 0.5 * ww)

    def polar(x):
        x = np.asarray(x, dtype=float)
        r = _norm(x)[..., None]
        return x / r, r

    def V(x, s=None):
        return -0.5 * np.log(np.sum(np.asarray(x, dtype=float) ** 2, axis=-1))

    def H(x, s=None):
        v, r = polar(x)
        return H_at(v, r, s, d > 0)

    def gammaV(x, s=None):
        w = noise(*polar(x), s)[1]
        return _dot(w, w)

    def unit(v, s=None):  # a zero row has no direction and goes to the diagonal one
        if nonneg:
            v = np.maximum(v, 0.0)
        nv = np.sqrt(_dot(v, v))[..., None]
        if np.count_nonzero(nv) == nv.size:
            return v / nv
        return np.where(nv == 0.0, 1.0 / np.sqrt(n), v / np.where(nv == 0.0, 1.0, nv))

    def bl_drift(u, s=None):
        v, r = u[..., :n], u[..., n:]
        dv, mu_r = sphere_drift(v, r, s, d > 0)
        return np.concatenate([dv, r * mu_r[..., None]], axis=-1)

    def bl_diffusion(u, s=None):
        v, r = u[..., :n], u[..., n:]
        mat, w = sphere_noise(v, r, s)
        return np.concatenate([mat, (r * w)[..., None, :]], axis=-2)

    def bl_project(u, s=None):
        r = u[..., n:]  # clamped as max(r, 0.0) does, which keeps -0.0 and NaN
        return np.concatenate([unit(u[..., :n]), np.where(r < 0.0, 0.0, r)], axis=-1)

    regimes = dict(family=model.family, switch_rates=model.switch_rates,
                   n_regimes=model.n_regimes)
    blowup = ModelSpec(
        dim=n + 1, noise_dim=d, drift=bl_drift,
        diffusion=bl_diffusion if d > 0 else None,
        domain_projection=bl_project,
        extinction_distance=lambda u, s=None: np.abs(np.asarray(u)[..., n]),
        name=f"{model.name}-polar", **regimes,
    )
    boundary = ModelSpec(
        dim=n, noise_dim=d if noisy_boundary else 0,
        drift=lambda v, s=None: sphere_drift(v, 0.0, s, noisy_boundary)[0],
        diffusion=(lambda v, s=None: sphere_noise(v, 0.0, s)[0]) if noisy_boundary else None,
        domain_projection=unit,
        extinction_distance=lambda v, s=None: np.zeros(np.shape(v)[:-1]),
        name=f"{model.name}-sphere", **regimes,
    )

    def boundary_H(v, s=None):
        return H_at(np.asarray(v, dtype=float), 0.0, s, noisy_boundary)

    quad = QuadrupleMap(
        forward=lambda u: np.asarray(u)[..., :n] * np.asarray(u)[..., n:],
        inverse=lambda x: np.concatenate(polar(x), axis=-1),
    )
    return PolarFamily(V, H, gammaV, blowup, boundary, boundary_H, quad)


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
