"""Stochastic Kolmogorov systems dX_i = X_i f_i(X) dt + X_i g_i(X) dE_i with
correlated drivers E = A^T W.  Faces {x_i = 0} are structurally invariant
under the multiplicative Euler update; H_i = (1/2) Sigma_ii g_i^2 - f_i
extends LV_i continuously to the whole orthant (no blow-up needed)."""

from __future__ import annotations

import numpy as np

from ..criteria import kolmogorov_H
from ..errors import DimensionMismatch
from ..process_core import ModelSpec, StateVector
from .base import ModelBundle, power_suite


def make_kolmogorov(n_species: int, f, g, noise_matrix,
                    weights=None) -> ModelBundle:
    """Kolmogorov SDE bundle with V = -sum w_i log x_i.

    ``f`` and ``g`` map (..., n) states to (..., n) per-capita rates, each
    row of a batch bit for bit as one state (the model is ``batch_first``);
    ``noise_matrix`` is the d x n mixing matrix A with Sigma = A^T A.
    """
    A = np.asarray(noise_matrix, dtype=float)
    if A.ndim != 2 or A.shape[1] != n_species:
        raise DimensionMismatch(f"noise_matrix must be (d, {n_species})")
    sigma = A.T @ A
    noise_dim = A.shape[0]
    if weights is None:
        weights = np.ones(n_species)
    weights = np.asarray(weights, dtype=float)

    def drift(x, s=None):
        return x * np.asarray(f(x), dtype=float)

    def diffusion(x, s=None):
        return (x * np.asarray(g(x), dtype=float))[..., None] * A.T

    model = ModelSpec(
        family="sde", dim=n_species, noise_dim=noise_dim,
        drift=drift, diffusion=diffusion,
        domain_projection=lambda x, s=None: np.maximum(x, 0.0),
        extinction_distance=lambda x, s=None: np.min(np.asarray(x, dtype=float), axis=-1),
        name="kolmogorov", batch_first=True,
    )

    h_parts = [kolmogorov_H(f, g, sigma, i) for i in range(n_species)]

    def species_H(i: int):
        return h_parts[i]

    def V(x, s=None):
        return -np.sum(weights * np.log(np.asarray(x, dtype=float)), axis=-1)

    def H(x, s=None):
        return sum(w * h(x) for w, h in zip(weights, h_parts))

    def gammaV(x, s=None):
        gx = np.asarray(g(x), dtype=float)
        wg = weights * gx
        return np.einsum("...i,ij,...j->...", wg, sigma, wg)

    alpha = None
    if n_species == 1:
        h0 = float(h_parts[0](np.zeros(1)))
        alpha = h0 if h0 > 0 else None
    # master function 1 + |x|^2 for the tightness suite
    suite = power_suite(model, V, H, gammaV, np.eye(n_species),
                        (lambda q: 1.0 + q, lambda q: 1.0 / (1.0 + q), lambda q: 0.0),
                        4.0, nonneg=True, alpha_candidate=alpha)

    # faces are invariant for the SDE itself: the boundary model is the same
    # spec started on the face of interest
    return ModelBundle(name="kolmogorov", model=model, suite=suite,
                       boundary=model, boundary_H=H, species_H=species_H,
                       default_ic=StateVector(np.full(n_species, 0.5)),
                       boundary_ic=StateVector(np.zeros(n_species)),
                       params={})


def make_logistic(r: float, sigma: float) -> ModelBundle:
    """One-species logistic dX = X(r - X) dt + sigma X dW.

    Near zero, log X drifts at r - sigma^2/2; extinction at rate
    sigma^2/2 - r when that is positive.
    """

    def f(x):
        return r - np.asarray(x, dtype=float)

    def g(x):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, sigma)

    bundle = make_kolmogorov(1, f, g, np.array([[1.0]]))
    bundle.params.update({"r": r, "sigma": sigma})
    return bundle
