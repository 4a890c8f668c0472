"""Stochastic SIS epidemic on a network with Markovian regime switching.

State x in [0,1]^N holds per-node infection probabilities; the regime s
switches the adjacency matrix and the transmission/recovery rates.  The
disease-free state x = 0 is the extinction set; the polar blow-up puts the
direction process on the nonnegative unit sphere, where the boundary H is
delta(s) - beta(s) v' A(s) v.
"""

from __future__ import annotations

import numpy as np

from ..criteria import CtmcGenerator, ctmc_stationary, sis_extinction_index, top_eigenvalue
from ..errors import InvalidAdjacency, NegativeRate
from ..lyapunov import constant_suite
from ..process_core import ModelSpec, StateVector, validate_rate_matrix
from .base import ModelBundle, QuadrupleMap, batched


def _norm(x):
    return np.sqrt(np.sum(np.asarray(x, dtype=float) ** 2, axis=-1))


def _as_regime_array(value, m, name):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(m, float(arr))
    if arr.shape != (m,):
        raise NegativeRate(f"{name} must be scalar or length-{m}")
    if np.any(arr <= 0):
        raise NegativeRate(f"{name} must be strictly positive")
    return arr


def make_sis(adjacency, beta, delta, Q=None, sigma_scale: float = 0.2,
             sigma=None) -> ModelBundle:
    """SIS bundle: full model, compact-space suite, sphere boundary, blow-up.

    ``adjacency`` is one symmetric 0/1 matrix or one per regime; ``sigma``
    is the per-node noise intensity sigma_i(x_i, s) and must vanish at
    x_i = 0 (default: sigma_scale * x_i, which keeps nodes in [0,1] and the
    origin exactly invariant).  A custom sigma must broadcast over batched
    x and accept s as None (single regime), an int, or an int array.
    """
    adj = np.asarray(adjacency, dtype=float)
    if adj.ndim == 2:
        # one shared network: regime count comes from Q / the rate vectors
        m = len(Q) if Q is not None else max(np.size(beta), np.size(delta))
        adj = np.broadcast_to(adj, (m,) + adj.shape).copy()
    if adj.ndim != 3 or adj.shape[1] != adj.shape[2]:
        raise InvalidAdjacency("adjacency must be (N,N) or (m,N,N)")
    m, n_nodes = adj.shape[0], adj.shape[1]
    for s in range(m):
        a = adj[s]
        if not np.array_equal(a, a.T):
            raise InvalidAdjacency(f"adjacency for regime {s} is not symmetric")
        if not np.isin(a, (0.0, 1.0)).all():
            raise InvalidAdjacency("adjacency entries must be 0 or 1")
    beta = _as_regime_array(beta, m, "beta")
    delta = _as_regime_array(delta, m, "delta")
    if Q is None:
        if m != 1:
            raise NegativeRate("multi-regime SIS requires a rate matrix Q")
        q_mat = np.zeros((1, 1))
    else:
        q_mat = validate_rate_matrix(Q, m)
    if sigma is None:
        sigma = lambda xi, s=None: sigma_scale * np.asarray(xi, dtype=float)
    probe = np.asarray(sigma(np.zeros(n_nodes), 0), dtype=float)
    if np.any(np.abs(probe) > 1e-14):
        raise NegativeRate("sigma_i(0, s) must vanish (extinction-set invariance)")

    def _idx(s):
        return 0 if s is None else s

    def drift(x, s=None):
        k = _idx(s)
        b = adj[k] @ x
        return beta[k] * b * (1.0 - x) - delta[k] * x

    def diffusion_diag(x, s=None):
        k = _idx(s)
        b = adj[k] @ x
        return sigma(x, k) * b * (1.0 - x)

    switching = m > 1
    model = ModelSpec(
        family="switching_diffusion" if switching else "sde",
        dim=n_nodes, noise_dim=n_nodes,
        drift=drift, diffusion_diag=diffusion_diag,
        switch_rates=(lambda x: q_mat) if switching else None,
        n_regimes=m,
        domain_projection=lambda x, s=None: np.minimum(1.0, np.maximum(0.0, x)),
        extinction_distance=lambda x, s=None: _norm(x),
        name="sis",
    )

    def V(x, s=None):
        return -0.5 * np.log(np.sum(np.asarray(x, dtype=float) ** 2, axis=-1))

    def _per_sample(x, s):
        # regime-indexed parameters broadcast over a sample batch (n, N)
        k = np.zeros(x.shape[0], dtype=int) if s is None else s
        b = np.einsum("nij,nj->ni", adj[k], x)
        return b, beta[k], delta[k]

    @batched
    def H(x, s=None):
        b, bet, del_ = _per_sample(x, s)
        r2 = np.sum(x * x, axis=-1)
        sig = sigma(x, s) * b * (1.0 - x)
        diag_term = 0.5 * np.sum(sig * sig * (-r2[:, None] + 2 * x * x), axis=-1) / r2 ** 2
        drift_term = -np.sum(bet[:, None] * b * (1.0 - x) * x, axis=-1) / r2
        return del_ + diag_term + drift_term

    @batched
    def gammaV(x, s=None):
        b, _, _ = _per_sample(x, s)
        r2 = np.sum(x * x, axis=-1)
        sig = sigma(x, s) * b * (1.0 - x)
        return np.sum(sig * sig * x * x, axis=-1) / r2 ** 2

    # compact state space: constants-one suite, K = 1 + sup Gamma V (sampled)
    gen = np.random.default_rng(2024)
    samples = gen.uniform(0.01, 1.0, size=(256, n_nodes))
    gv_max = max(float(np.max(gammaV(samples, np.full(256, s, dtype=int)))) for s in range(m))
    lam1 = np.array([top_eigenvalue(adj[s])[0] for s in range(m)])
    rho = ctmc_stationary(CtmcGenerator(q_mat)) if switching else np.ones(1)
    alpha = sis_extinction_index(delta, beta, lam1, rho)
    suite = constant_suite(V, H, gammaV, K=1.0 + 1.5 * gv_max,
                           alpha_candidate=alpha if alpha > 0 else None)

    # blow-up (v, r) with x = r v; per-node unit coefficients at state (v, r)
    def _unit_coeffs(v, r, k):
        b = adj[k] @ v
        one_minus = 1.0 - r * v
        phi = beta[k] * b * one_minus - delta[k] * v
        psi = sigma(r * v, k) * b * one_minus
        return phi, psi

    def bl_drift(u, s=None):
        k = _idx(s)
        v, r = u[:n_nodes], u[n_nodes]
        phi, psi = _unit_coeffs(v, r, k)
        psi2 = psi * psi
        mu_r = float(v @ phi) + 0.5 * float((1.0 - v * v) @ psi2)
        dv = v * (-mu_r + float((v * v) @ psi2)) + phi - psi2 * v
        return np.concatenate([dv, [r * mu_r]])

    def bl_diffusion(u, s=None):
        k = _idx(s)
        v, r = u[:n_nodes], u[n_nodes]
        _, psi = _unit_coeffs(v, r, k)
        vpsi = v * psi
        mat = np.diag(psi) - np.outer(v, vpsi)
        return np.vstack([mat, r * vpsi])

    def bl_project(u, s=None):
        v = np.maximum(u[:n_nodes], 0.0)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            v = np.full(n_nodes, 1.0 / np.sqrt(n_nodes))
            nv = 1.0
        return np.concatenate([v / nv, [max(u[n_nodes], 0.0)]])

    blowup = ModelSpec(
        family="switching_diffusion" if switching else "sde",
        dim=n_nodes + 1, noise_dim=n_nodes,
        drift=bl_drift, diffusion=bl_diffusion,
        switch_rates=(lambda x: q_mat) if switching else None,
        n_regimes=m,
        domain_projection=bl_project,
        extinction_distance=lambda u, s=None: np.abs(np.asarray(u)[..., n_nodes]),
        name="sis-polar",
    )

    # boundary sphere dynamics (r = 0): deterministic projective flow
    def sp_drift(v, s=None):
        k = _idx(s)
        b = adj[k] @ v
        return beta[k] * (b - float(v @ b) * v)

    def sp_project(v, s=None):
        v = np.maximum(v, 0.0)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return np.full(n_nodes, 1.0 / np.sqrt(n_nodes))
        return v / nv

    boundary = ModelSpec(
        family="switching_diffusion" if switching else "sde",
        dim=n_nodes, noise_dim=0,
        drift=sp_drift,
        switch_rates=(lambda x: q_mat) if switching else None,
        n_regimes=m,
        domain_projection=sp_project,
        extinction_distance=lambda v, s=None: np.zeros(np.shape(v)[:-1]),
        name="sis-sphere",
    )

    @batched
    def boundary_H(v, s=None):
        k = np.zeros(v.shape[0], dtype=int) if s is None else s
        b = np.einsum("nij,nj->ni", adj[k], v)
        return delta[k] - beta[k] * np.sum(v * b, axis=-1)

    quad = QuadrupleMap(
        forward=lambda u: np.asarray(u)[..., :n_nodes] * np.asarray(u)[..., n_nodes:],
        inverse=lambda x: np.concatenate(
            [np.asarray(x) / _norm(x)[..., None], _norm(x)[..., None]], axis=-1),
        boundary_preimage="nonnegative unit sphere x {r = 0} x regimes",
    )

    ic = StateVector(np.full(n_nodes, 0.3), 0 if switching else None)
    v0 = np.arange(1, n_nodes + 1, dtype=float)
    b_ic = StateVector(v0 / np.linalg.norm(v0), 0 if switching else None)
    return ModelBundle(name="sis", model=model, suite=suite,
                       boundary=boundary, boundary_H=boundary_H,
                       blowup=blowup, quad_map=quad, default_ic=ic,
                       boundary_ic=b_ic,
                       params={"adjacency": adj.tolist(), "beta": beta.tolist(),
                               "delta": delta.tolist(), "Q": q_mat.tolist(),
                               "sigma_scale": sigma_scale})
