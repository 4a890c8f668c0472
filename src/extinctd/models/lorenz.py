"""Stochastic Lorenz system in the consolidated (gamma, z*, eta, alpha0)
parametrization, with additive noise in z:

    dx = y dt
    dy = [x(z - 2) - 2y] dt
    dz = -[gamma (z - z*) + x(x + eta y)] dt + alpha0 dW

The z-axis {x = y = 0} is the extinction set.  In cylinder coordinates
(theta, R, z) with x = R sin(theta), x + y = R cos(theta), the radius obeys
dR = R[-1 + (z/2) sin(2 theta)] dt, so V = -log R has LV = 1 - (z/2) sin(2 theta)
and Gamma V = 0.
"""

from __future__ import annotations

import math

import numpy as np

from ..criteria import lorenz_lambda0
from ..errors import NegativeParameter, NonFiniteParameter
from ..process_core import ModelSpec, StateVector
from .base import ModelBundle, QuadrupleMap, power_suite


def _remainder(x, p):
    """math.remainder(x, p) of each entry of x, for p > 0: the exact fmod,
    folded onto [-p/2, p/2] (exactly, by Sterbenz's lemma), a tie going to
    the even quotient, so +-3 pi maps to -+pi for p = 2 pi."""
    m, odd = np.fmod(x, p), np.abs(np.fmod(x, 2.0 * p)) >= p  # odd truncated quotient
    fold = (np.abs(m) > 0.5 * p) | (np.abs(m) == 0.5 * p) & odd
    return np.where(fold, m - np.copysign(p, m), m)


def lorenz_cylinder(gamma, z_star, alpha0):
    """The boundary of the blow-up: the (theta, z) cylinder with R frozen at
    zero, where H(theta, z) = 1 - (z/2) sin(2 theta) and its occupation
    average is -lambda.  Returns (boundary spec, boundary_H).

    Each parameter is a scalar or an (n,) array of per-lane values for
    blocks of n states, row i with the values at i; the rows of a lane with
    alpha0 = 0 get a zero noise column.  The spec is noisy if any alpha0 > 0.
    """
    alpha0 = np.asarray(alpha0, dtype=float)
    noise = np.zeros(alpha0.shape + (2, 1))  # (2, 1) or (n, 2, 1)
    noise[..., 1, 0] = alpha0
    neg_gamma = -gamma

    def drift(u, s=None):
        # float_power keeps libm's pow, as math.sin(th) ** 2 did; a block's
        # ** 2 squares instead, which rounds differently for about 0.1% of th
        if u.ndim == 1:  # numpy scalars: cheaper than writing 0-d columns
            th, z = u
            return np.array([1.0 - z * np.float_power(np.sin(th), 2), neg_gamma * (z - z_star)])
        out = np.empty(u.shape)
        th, z, d_th, d_z = u[..., 0], u[..., 1], out[..., 0], out[..., 1]
        np.float_power(np.sin(th, out=d_th), 2, out=d_th)
        np.subtract(1.0, np.multiply(z, d_th, out=d_th), out=d_th)
        np.multiply(neg_gamma, np.subtract(z, z_star, out=d_z), out=d_z)
        return out

    noisy = max(alpha0.flat) > 0.0  # any alpha0 > 0, without a numpy reduction's cost
    boundary = ModelSpec(
        family="sde", dim=2, noise_dim=1 if noisy else 0,
        drift=drift, additive_noise=noise if noisy else None,
        extinction_distance=lambda u, s=None: np.zeros(np.shape(u)[:-1]),
        name="lorenz-cylinder",
    )

    def boundary_H(u, s=None):
        u = np.asarray(u, dtype=float)
        return 1.0 - 0.5 * u[..., 1] * np.sin(2.0 * u[..., 0])

    return boundary, boundary_H


def make_lorenz(gamma: float = 1.0, z_star: float = 0.5, eta: float = 1.0,
                alpha0: float = 0.0) -> ModelBundle:
    """Lorenz bundle: 3-d SDE, exp-quadratic suite, cylinder companions."""
    for name, value, ok in (("gamma", gamma, gamma > 0), ("eta", eta, eta > 0),
                            ("z_star", z_star, True), ("alpha0", alpha0, alpha0 >= 0)):
        if not math.isfinite(value):  # a NaN alpha0 would build a noise-free model
            raise NonFiniteParameter(f"{name} = {value!r}: need finite values")
        if not ok:
            raise NegativeParameter(f"{name} = {value!r}: need gamma, eta > 0 and alpha0 >= 0")
    noisy = alpha0 > 0.0
    noise_col = np.array([[0.0], [0.0], [alpha0]])

    def drift(u, s=None):
        x, y, z = u.T
        return np.array([
            y,
            x * (z - 2.0) - 2.0 * y,
            -(gamma * (z - z_star) + x * (x + eta * y)),
        ]).T

    model = ModelSpec(
        family="sde", dim=3, noise_dim=1 if noisy else 0,
        drift=drift, additive_noise=noise_col if noisy else None,
        extinction_distance=lambda u, s=None: np.sqrt(
            np.asarray(u)[..., 0] ** 2 + np.asarray(u)[..., 1] ** 2),
        name="lorenz",
    )

    def V(u, s=None):
        u = np.asarray(u, dtype=float)
        return -0.5 * np.log(u[..., 0] ** 2 + (u[..., 0] + u[..., 1]) ** 2)

    def H(u, s=None):
        u = np.asarray(u, dtype=float)
        x, y, z = u[..., 0], u[..., 1], u[..., 2]
        return 1.0 - z * x * (x + y) / (x ** 2 + (x + y) ** 2)

    def gammaV(u, s=None):
        return np.zeros(np.shape(u)[:-1])

    # master function exp(eps q) with q = a x^2 + (x + eta y)^2 + eta z^2 chosen
    # so the cubic terms of Lq cancel (a = 2 eta - 1 + 2 eta^2, eta > 1/2)
    eps, a = 0.05, 2.0 * eta - 1.0 + 2.0 * eta ** 2
    P = [[a + 1.0, eta, 0.0], [eta, eta ** 2, 0.0], [0.0, 0.0, eta]]
    alpha_cand = -lorenz_lambda0(z_star) if alpha0 == 0.0 else None
    suite = power_suite(model, V, H, gammaV, P, (lambda q: np.exp(eps * q), lambda q: eps,
                                                 lambda q: eps * eps),
                        5.0, alpha_candidate=alpha_cand)

    boundary, boundary_H = lorenz_cylinder(gamma, z_star, alpha0)

    # full blow-up (theta, R, z) on its cylinder (theta, z): dR = -R H dt, and
    # the z rate adds the R^2 term of -x(x + eta y)
    def bl_drift(u, s=None):
        th, r, _ = u.T
        cyl = u[..., ::2]
        d_th, d_z = boundary.drift(cyl).T
        st = np.sin(th)
        return np.array([
            d_th,
            r * -boundary_H(cyl),
            d_z - r * r * st * (st + eta * (np.cos(th) - st)),
        ]).T

    def bl_project(u, s=None):
        th, r, z = u.T
        # r clamped as max(r, 0.0) does, which keeps -0.0 and NaN
        return np.array([_remainder(th, 2.0 * math.pi), np.where(r < 0.0, 0.0, r), z]).T

    blowup = ModelSpec(
        family="sde", dim=3, noise_dim=1 if noisy else 0,
        drift=bl_drift, additive_noise=noise_col if noisy else None,
        domain_projection=bl_project,
        extinction_distance=lambda u, s=None: np.abs(np.asarray(u)[..., 1]),
        name="lorenz-blowup",
    )

    def boundary_lanes(param, values):
        cyl = {"gamma": gamma, "z_star": z_star, "alpha0": alpha0}
        if param in cyl:  # eta leaves the cylinder alone
            cyl[param] = np.asarray(values, dtype=float)
        return lorenz_cylinder(**cyl)[0]

    def forward(u):
        u = np.asarray(u, dtype=float)
        th, r, z = u[..., 0], u[..., 1], u[..., 2]
        return np.stack([r * np.sin(th), r * (np.cos(th) - np.sin(th)), z], axis=-1)

    def inverse(u):
        u = np.asarray(u, dtype=float)
        x, y, z = u[..., 0], u[..., 1], u[..., 2]
        return np.stack([np.arctan2(x, x + y),
                         np.sqrt(x ** 2 + (x + y) ** 2), z], axis=-1)

    quad = QuadrupleMap(forward=forward, inverse=inverse)

    return ModelBundle(name="lorenz", model=model, suite=suite,
                       boundary=boundary, boundary_H=boundary_H,
                       boundary_lanes=boundary_lanes, blowup=blowup, quad_map=quad,
                       default_ic=StateVector(np.array([0.8, 0.4, z_star])),
                       boundary_ic=StateVector(np.array([0.9, z_star])))


def lorenz_params_from_classic(sigma: float, rho: float, beta: float,
                               noise: float = 0.0) -> dict:
    """Map the classic Lorenz (sigma, rho, beta) + noise strength to the
    consolidated (gamma, z*, eta, alpha0) parameters.

    The change of variables x = c1 X, y = c2 (Y - X), z = z* - c3 Z with a
    time rescaling by chi = (1 + sigma)/2 turns the classic system into the
    consolidated one; rho < 1 corresponds to z* < 2.
    """
    if min(sigma, rho, beta) <= 0:
        raise NegativeParameter("sigma, rho, beta must be positive")
    chi = (1.0 + sigma) / 2.0
    c3 = sigma / chi ** 2
    return {
        "gamma": beta / chi,
        "z_star": 2.0 + 4.0 * sigma * (rho - 1.0) / (1.0 + sigma) ** 2,
        "eta": chi / sigma,
        "alpha0": c3 * noise / math.sqrt(chi),
    }
