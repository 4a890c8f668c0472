"""Linear SDE benchmark dx = A x dt + (Sigma x) dW with a scalar Brownian
driver.  The origin is the extinction set; the polar blow-up turns it into
the unit sphere, where the direction process carries the exponent."""

from __future__ import annotations

import numpy as np

from ..errors import NonSquare
from ..process_core import ModelSpec, StateVector
from .base import ModelBundle, _norm, ball_sample, polar_blowup, power_suite


def make_linear_sde(A, Sigma=None) -> ModelBundle:
    """Linear model with V = -log|x| and its sphere (polar) companions.

    With Sigma = 0 the decay exponent is minus the largest real part of the
    eigenvalues of A; for scalar models it is -a + sigma^2/2.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NonSquare("A must be square")
    n = A.shape[0]
    if Sigma is None:
        Sigma = np.zeros((n, n))
    Sigma = np.asarray(Sigma, dtype=float)
    if Sigma.shape != A.shape:
        raise NonSquare("Sigma must match the shape of A")
    noisy = bool(np.any(Sigma != 0.0))

    def drift(x, s=None):
        return A @ x

    def diffusion(x, s=None):
        return (Sigma @ x)[:, None]

    model = ModelSpec(
        family="sde", dim=n, noise_dim=1 if noisy else 0,
        drift=drift, diffusion=diffusion if noisy else None,
        extinction_distance=lambda x, s=None: _norm(x),
        name="linear",
    )

    # unit coefficients: F(r v) = r A v and G(r v) = r Sigma v
    polar = polar_blowup(model, lambda v, r, s=None: v @ A.T,
                         lambda v, r, s=None: (v @ Sigma.T)[..., None])

    # master function (1 + |x|^2)^(1/2) for the tightness suite
    def ubar(x, s=None):
        return np.sqrt(1.0 + np.sum(np.asarray(x, dtype=float) ** 2, axis=-1))

    def lu_over_u(x, s=None):
        x = np.asarray(x, dtype=float)
        u = 1.0 + np.sum(x * x, axis=-1)
        w = x @ Sigma.T
        quad = np.sum(x * (x @ A.T), axis=-1)
        return (quad + 0.5 * (np.sum(w * w, axis=-1)
                              - np.sum(x * w, axis=-1) ** 2 / u)) / u

    def gu_over_u2(x, s=None):
        x = np.asarray(x, dtype=float)
        u = 1.0 + np.sum(x * x, axis=-1)
        return np.sum(x * (x @ Sigma.T), axis=-1) ** 2 / u ** 2

    alpha = None
    if not noisy:
        alpha = float(-np.max(np.linalg.eigvals(A).real))
    elif n == 1:
        alpha = float(-A[0, 0] + 0.5 * Sigma[0, 0] ** 2)
    suite = power_suite(model, polar.V, polar.H, polar.gammaV, ubar, lu_over_u,
                        gu_over_u2, ball_sample(n, 6.0, 48), alpha_candidate=alpha)

    ic = np.full(n, 1.0 / np.sqrt(n))
    return ModelBundle(name="linear", model=model, suite=suite,
                       boundary=polar.boundary, boundary_H=polar.boundary_H,
                       blowup=polar.blowup, quad_map=polar.quad_map,
                       default_ic=StateVector(ic),
                       boundary_ic=StateVector(ic),
                       params={"A": A.tolist(), "Sigma": Sigma.tolist()})
