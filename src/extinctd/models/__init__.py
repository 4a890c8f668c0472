"""Shipped model families, each bundled with its Lyapunov suite and
boundary companions, and registered under the CLI names
"sis", "lorenz", "eco-discrete", "kolmogorov", "linear"."""

from __future__ import annotations

from ..process_core import register_model
from .base import ModelBundle, QuadrupleMap
from .ecological import eco_drift_check, make_ecological_discrete, make_ricker
from .kolmogorov import make_kolmogorov, make_logistic
from .linear import make_linear_sde
from .lorenz import lorenz_cylinder, lorenz_params_from_classic, make_lorenz
from .sis import make_sis

__all__ = [
    "ModelBundle", "QuadrupleMap",
    "make_sis", "make_lorenz", "make_ecological_discrete", "make_ricker",
    "make_kolmogorov", "make_logistic", "make_linear_sde",
    "lorenz_cylinder", "lorenz_params_from_classic", "eco_drift_check",
]


@register_model("sis")
def _build_sis(adjacency, beta, delta, Q=None, sigma_scale=0.2):
    return make_sis(adjacency, beta, delta, Q=Q, sigma_scale=sigma_scale)


register_model("lorenz")(make_lorenz)
register_model("linear")(make_linear_sde)
register_model("kolmogorov")(make_logistic)


@register_model("eco-discrete")
def _build_eco(r, sigma, inner_mc=10_000):
    return make_ricker(r, sigma, inner_mc=inner_mc)
