"""Linear SDE benchmark dx = A x dt + (Sigma x) dW with a scalar Brownian
driver.  The origin is the extinction set; the polar blow-up turns it into
the unit sphere, where the direction process carries the exponent."""

from __future__ import annotations

import numpy as np

from ..errors import NonSquare
from ..process_core import ModelSpec, StateVector, _matvec
from .base import ModelBundle, _norm, polar_blowup, power_suite


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
        return _matvec(A, x)

    def diffusion(x, s=None):
        return _matvec(Sigma, x)[..., None]

    model = ModelSpec(
        family="sde", dim=n, noise_dim=1 if noisy else 0,
        drift=drift, diffusion=diffusion if noisy else None,
        extinction_distance=lambda x, s=None: _norm(x),
        name="linear",
    )

    # unit coefficients: F(r v) = r F(v) and G(r v) = r G(v)
    polar = polar_blowup(model, lambda v, r, s=None: drift(v),
                         lambda v, r, s=None: diffusion(v))

    alpha = None
    if not noisy:
        alpha = float(-np.max(np.linalg.eigvals(A).real))
    elif n == 1:
        alpha = float(-A[0, 0] + 0.5 * Sigma[0, 0] ** 2)
    # master function (1 + |x|^2)^(1/2) for the tightness suite
    suite = power_suite(model, polar.V, polar.H, polar.gammaV, np.eye(n),
                        (lambda q: np.sqrt(1.0 + q), lambda q: 0.5 / (1.0 + q),
                         lambda q: -0.25 / (1.0 + q) ** 2),
                        6.0, alpha_candidate=alpha)

    ic = np.full(n, 1.0 / np.sqrt(n))
    return ModelBundle(name="linear", model=model, suite=suite,
                       boundary=polar.boundary, boundary_H=polar.boundary_H,
                       blowup=polar.blowup, quad_map=polar.quad_map,
                       default_ic=StateVector(ic),
                       boundary_ic=StateVector(ic))
