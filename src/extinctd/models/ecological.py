"""Discrete-time ecological models X_i(t+1) = X_i(t) F_i(X(t), xi(t)).

The i.i.d. environment noise enters through strictly positive multipliers
F, so coordinates at zero stay at zero exactly (faces are invariant by the
multiplicative structure).  The extinction set is the union of faces, with
d(x, M0) = min_i x_i.  Boundary invasion rates use H_i = -E[log F_i]
estimated by a fixed inner Monte Carlo bank (antithetic pairs by default).
"""

from __future__ import annotations

import numpy as np

from ..errors import NonPositiveF
from ..process_core import ModelSpec, StateVector, as_generator
from ..lyapunov import LyapunovSuite, _chain_mean
from .base import ModelBundle, calibrate_suite_constant


def _draw_bank(noise_sampler, inner_mc, antithetic, seed):
    gen = np.random.default_rng(seed)
    half = inner_mc // 2 if antithetic else inner_mc
    draws = np.asarray(noise_sampler(gen, half), dtype=float)
    if antithetic:
        draws = np.concatenate([draws, -draws])
    return draws


def _per_row(fn, x):
    """``fn`` at one state ``(dim,)``, or at each row of a batch ``(n, dim)``.

    A batch is evaluated once per distinct row and the values are scattered
    back; rows are the same only when their bits are, so 0.0 and -0.0 differ.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return float(fn(x))
    x = np.ascontiguousarray(x)
    _, first, inverse = np.unique(x.view(np.uint64), axis=0,
                                  return_index=True, return_inverse=True)
    return np.asarray([fn(x[k]) for k in first], dtype=float)[inverse.reshape(-1)]


def make_ecological_discrete(n_species: int, F, noise_sampler,
                             Upsilon=None, rho_bar: float = 0.5,
                             weights=None, inner_mc: int = 10_000,
                             antithetic: bool = True, h_seed: int = 424242,
                             log_F_batch=None,
                             alpha_candidate=None) -> ModelBundle:
    """Bundle a multiplicative chain with its log-Lyapunov suite.

    ``F(x, xi) -> (n,)`` must be strictly positive.  Like the chain's
    ``step_map``, it takes one state with one draw, or a block ``(m, n)`` of
    states with ``(m, ...)`` draws and gives the stacked per-row values bit
    for bit.  ``noise_sampler(gen)`` gives one draw and
    ``noise_sampler(gen, size)`` gives ``size`` draws stacked on a leading
    axis, equal to as many single draws and leaving ``gen`` in the same
    state, as a numpy Generator's sized draws do.  ``log_F_batch`` may
    supply a vectorized ``(x, xi_bank) -> (len(bank), n)`` evaluation of
    log F for fast inner Monte Carlo; otherwise a loop fallback is used.
    ``Upsilon`` is the user-asserted drift function with
    P Upsilon <= rho_bar^2 Upsilon + C^2 (see ``eco_drift_check`` for the
    sample check); the default exp(sum x_i) suits Ricker-type maps.
    """
    if weights is None:
        weights = np.ones(n_species)
    weights = np.asarray(weights, dtype=float)

    def step_map(x, xi):
        mult = np.asarray(F(x, xi), dtype=float)
        if (mult <= 0.0).any():
            raise NonPositiveF("multipliers F_i must be strictly positive")
        return x * mult

    model = ModelSpec(
        family="discrete_chain", dim=n_species,
        step_map=step_map, noise_sampler=noise_sampler,
        extinction_distance=lambda x, s=None: np.min(np.asarray(x, dtype=float), axis=-1),
        name="eco-discrete",
    )

    bank = _draw_bank(noise_sampler, inner_mc, antithetic, h_seed)
    if log_F_batch is None:
        def log_F_batch(x, xi_bank):
            return np.log(np.asarray([F(x, xi) for xi in xi_bank], dtype=float))

    def H_components(x):
        """All -E[log F_i(x, xi)] at one point, via the fixed noise bank."""
        return -log_F_batch(np.asarray(x, dtype=float), bank).mean(axis=0)

    def species_H(i: int):
        def H_i(x, s=None):
            return _per_row(lambda row: H_components(row)[i], x)
        return H_i

    def V(x, s=None):
        return -np.sum(weights * np.log(np.asarray(x, dtype=float)), axis=-1)

    def H(x, s=None):
        return _per_row(lambda row: weights @ H_components(row), x)

    def gammaV(x, s=None):
        def one(row):
            dv = -log_F_batch(row, bank) @ weights
            return np.mean(dv * dv)

        return _per_row(one, x)

    if Upsilon is None:
        def Upsilon(x, s=None):
            return np.exp(np.sum(np.asarray(x, dtype=float), axis=-1))

    # suite per the Poissonization construction: U = sqrt(Upsilon),
    # W = Upsilon^(1/4), primes scaled by the contraction factor rho_bar;
    # float_power keeps libm's pow for each row of a block, as for one state
    def U(x, s=None):
        return np.float_power(Upsilon(x), 0.5)

    def Uprime(x, s=None):
        return (1.0 - rho_bar) * U(x, s)

    def W(x, s=None):
        return np.float_power(Upsilon(x), 0.25)

    def Wprime(x, s=None):
        return np.maximum((1.0 - np.sqrt(rho_bar)) * W(x, s), 1.0)

    gen = np.random.default_rng(h_seed + 1)
    calib = [StateVector(gen.uniform(0.05, 2.0, size=n_species))
             for _ in range(12)]
    # reject a nonpositive F now: one chain step from each calibration point
    probe = np.random.default_rng(h_seed + 2)
    for p in calib:
        step_map(p.x, noise_sampler(probe))

    suite = LyapunovSuite(V=V, H=H, gammaV=gammaV, W=W, Wprime=Wprime, U=U, Uprime=Uprime,
                          K=lambda: calibrate_suite_constant(model, suite, calib),
                          alpha_candidate=alpha_candidate)

    # the face {x_i = 0} is invariant for the chain itself, so the boundary
    # model is the same spec started on the face
    return ModelBundle(name="eco-discrete", model=model, suite=suite,
                       boundary=model, boundary_H=H, species_H=species_H,
                       default_ic=StateVector(np.full(n_species, 0.5)),
                       boundary_ic=StateVector(np.zeros(n_species)))


def eco_drift_check(model: ModelSpec, Upsilon, rho_bar: float, c_bar: float,
                    points, rng, n_mc: int = 2000) -> list:
    """Sample check of P Upsilon <= rho_bar^2 Upsilon + C^2 at given states.

    Returns (point, violation) pairs; positive violation means the asserted
    drift inequality failed at that state within Monte Carlo accuracy.
    ``Upsilon`` is evaluated on the (n_mc, dim) block of next states.
    """
    gen = as_generator(rng)
    return [(p, _chain_mean(model, p.x, gen, n_mc, Upsilon)
             - (rho_bar ** 2 * float(Upsilon(p.x)) + c_bar ** 2)) for p in points]


def make_ricker(r: float, sigma: float, inner_mc: int = 10_000,
                h_seed: int = 424242) -> ModelBundle:
    """One-species Ricker chain X' = X exp(r - X + sigma xi), xi ~ N(0,1)."""

    def F(x, xi):
        return np.exp(r - x + sigma * np.asarray(xi, dtype=float)[..., None])

    def log_F_batch(x, xi_bank):
        return (r - x[None, :]) + sigma * np.asarray(xi_bank)[:, None]

    return make_ecological_discrete(
        1, F, lambda gen, size=None: gen.standard_normal(size),
        inner_mc=inner_mc, h_seed=h_seed, log_F_batch=log_F_batch,
        alpha_candidate=-r if r < 0 else None)
