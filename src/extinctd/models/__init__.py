"""Shipped model families, each bundled with its Lyapunov suite and
boundary companions, and registered under the CLI names
"sis", "lorenz", "eco-discrete", "kolmogorov", "linear"."""

from __future__ import annotations

from ..process_core import register_model
from .base import ModelBundle, QuadrupleMap
from .ecological import eco_drift_check, make_ecological_discrete, make_ricker
from .kolmogorov import make_kolmogorov, make_logistic
from .linear import make_linear_sde
from .lorenz import lorenz_params_from_classic, make_lorenz
from .sis import make_sis

__all__ = [
    "ModelBundle", "QuadrupleMap",
    "make_sis", "make_lorenz", "make_ecological_discrete", "make_ricker",
    "make_kolmogorov", "make_logistic", "make_linear_sde",
    "lorenz_params_from_classic", "eco_drift_check",
]


@register_model("sis")
def _build_sis(adjacency, beta, delta, Q=None, sigma_scale=0.2):
    return make_sis(adjacency, beta, delta, Q=Q, sigma_scale=sigma_scale)


@register_model("lorenz")
def _build_lorenz(gamma=1.0, z_star=0.5, eta=1.0, alpha0=0.0):
    return make_lorenz(gamma, z_star, eta, alpha0)


@register_model("linear")
def _build_linear(A, Sigma=None):
    return make_linear_sde(A, Sigma)


@register_model("eco-discrete")
def _build_eco(r, sigma, inner_mc=10_000):
    return make_ricker(r, sigma, inner_mc=inner_mc)


@register_model("kolmogorov")
def _build_kolmogorov(r, sigma):
    return make_logistic(r, sigma)
