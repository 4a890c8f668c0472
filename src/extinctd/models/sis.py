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
from ..process_core import ModelSpec, StateVector, _matvec, validate_rate_matrix
from .base import ModelBundle, _norm, polar_blowup


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
    x and accept s as None (single regime), an int, or an int array, and
    give each row of a batch its one-state value bit for bit: the model is
    ``batch_first``.
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

    def _regime(v, s):
        """A(s) v, beta(s) and delta(s), shaped to broadcast against v; v is
        one state or a batch, and s None, an int or an int array."""
        k = 0 if s is None else s
        if not isinstance(k, np.ndarray):
            return _matvec(adj[k], v), beta[k], delta[k]
        # A(j) v for every regime j and row, then row i's A(s_i) v_i: m
        # products per row, but no (n, N, N) stack of A(s)
        b = np.matmul(adj[:, None], v[..., None])[k, np.arange(len(k)), :, 0]
        return b, beta[k][:, None], delta[k][:, None]

    def drift(x, s=None):
        b, bet, dlt = _regime(x, s)
        return bet * b * (1.0 - x) - dlt * x

    def diffusion_diag(x, s=None):
        return sigma(x, 0 if s is None else s) * _regime(x, s)[0] * (1.0 - x)

    switching = m > 1
    model = ModelSpec(
        family="switching_diffusion" if switching else "sde",
        dim=n_nodes, noise_dim=n_nodes,
        drift=drift, diffusion_diag=diffusion_diag,
        switch_rates=(lambda x: q_mat) if switching else None,
        n_regimes=m,
        domain_projection=lambda x, s=None: np.minimum(1.0, np.maximum(0.0, x)),
        extinction_distance=lambda x, s=None: _norm(x),
        name="sis", batch_first=True,
    )

    # unit coefficients at x = r v; psi is diagonal, like diffusion_diag
    def phi(v, r, s=None):
        b, bet, dlt = _regime(v, s)
        return bet * b * (1.0 - r * v) - dlt * v

    def psi(v, r, s=None):
        b = _regime(v, s)[0]
        return sigma(r * v, 0 if s is None else s) * b * (1.0 - r * v)

    # sigma_i(0, s) = 0 (checked above), so the sphere flow is noise-free
    polar = polar_blowup(model, phi, psi, nonneg=True, quiet_boundary=True)

    def k_const():
        # compact state space: constants-one suite, K = 1 + sup Gamma V (sampled)
        samples = np.random.default_rng(2024).uniform(0.01, 1.0, size=(256, n_nodes))
        return 1.0 + 1.5 * max(float(np.max(polar.gammaV(samples, np.full(256, s, dtype=int))))
                               for s in range(m))

    lam1 = np.array([top_eigenvalue(adj[s])[0] for s in range(m)])
    rho = ctmc_stationary(CtmcGenerator(q_mat)) if switching else np.ones(1)
    alpha = sis_extinction_index(delta, beta, lam1, rho)
    suite = constant_suite(polar.V, polar.H, polar.gammaV, K=k_const,
                           alpha_candidate=alpha if alpha > 0 else None)

    ic = StateVector(np.full(n_nodes, 0.3), 0 if switching else None)
    v0 = np.arange(1, n_nodes + 1, dtype=float)
    b_ic = StateVector(v0 / np.linalg.norm(v0), 0 if switching else None)
    return ModelBundle(name="sis", model=model, suite=suite,
                       boundary=polar.boundary, boundary_H=polar.boundary_H,
                       blowup=polar.blowup, quad_map=polar.quad_map, default_ic=ic,
                       boundary_ic=b_ic,
                       params={"adjacency": adj.tolist(), "beta": beta.tolist(),
                               "delta": delta.tolist(), "Q": q_mat.tolist(),
                               "sigma_scale": sigma_scale})
