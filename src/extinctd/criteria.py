"""Closed-form and semi-analytic extinction criteria for the example
families, plus the small linear-algebra kernels they need.

Sign convention: criteria return an extinction index, positive when
extinction is certified with rate at least the index.  The two Lorenz
helpers are the exception: they return the lambda of the cylinder average
directly, negative certifying extinction, to stay comparable between the
closed form and the Monte Carlo estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    IndexOutOfRange,
    LengthMismatch,
    NoConvergence,
    NonSquare,
    Reducible,
    SingularSolve,
)
from .process_core import replica_streams, validate_rate_matrix


def eigenvalues(a) -> np.ndarray:
    """Dense eigenvalues of a square matrix (LAPACK underneath)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare(f"matrix of shape {a.shape} is not square")
    return np.linalg.eigvals(a)


def _strongly_connected(mask: np.ndarray) -> bool:
    n = mask.shape[0]

    def reach(adj):
        seen = np.zeros(n, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            i = stack.pop()
            for j in np.flatnonzero(adj[i]):
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        return seen.all()

    return reach(mask) and reach(mask.T)


@dataclass(frozen=True)
class CtmcGenerator:
    """Validated CTMC rate matrix with a precomputed irreducibility flag."""

    q: np.ndarray
    irreducible: bool = False

    def __post_init__(self):
        q = validate_rate_matrix(self.q)
        object.__setattr__(self, "q", q)
        mask = (q > 0) & ~np.eye(q.shape[0], dtype=bool)
        object.__setattr__(self, "irreducible",
                           q.shape[0] == 1 or _strongly_connected(mask))

    @property
    def m(self) -> int:
        return self.q.shape[0]


def ctmc_stationary(gen: CtmcGenerator) -> np.ndarray:
    """Stationary distribution rho with rho Q = 0, sum rho = 1.

    Dense solve with one balance equation replaced by the normalization row;
    the residual ||rho Q||_inf is checked against 1e-10.
    """
    if not gen.irreducible:
        raise Reducible("generator is not irreducible")
    m = gen.m
    a = gen.q.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    try:
        rho = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSolve(str(exc)) from exc
    resid = float(np.abs(rho @ gen.q).max())
    scale = max(1.0, float(np.abs(gen.q).max()))
    if resid > 1e-10 * scale:
        raise SingularSolve(f"stationary solve residual {resid:.3g} too large")
    rho = np.clip(rho, 0.0, None)
    return rho / rho.sum()


def top_eigenvalue(a, tol: float = 1e-12, max_iter: int = 500_000):
    """Largest eigenvalue and unit eigenvector of a symmetric matrix.

    Shifted power iteration (shift by the infinity norm makes the largest
    algebraic eigenvalue dominant in magnitude); the eigenvector sign is
    fixed so Perron vectors of irreducible nonnegative matrices come out
    with nonnegative entries.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare(f"matrix of shape {a.shape} is not square")
    if not np.allclose(a, a.T, atol=1e-12 * max(1.0, np.abs(a).max(initial=1.0))):
        raise ValueError("top_eigenvalue requires a symmetric matrix")
    n = a.shape[0]
    norm = float(np.abs(a).sum(axis=1).max(initial=0.0))
    if norm == 0.0:
        v = np.zeros(n)
        v[0] = 1.0
        return 0.0, v
    shifted = a + norm * np.eye(n)
    v = np.full(n, 1.0 / math.sqrt(n))
    rng = np.random.default_rng(12345)
    lam = 0.0
    for it in range(max_iter):
        w = shifted @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            # started orthogonal to the dominant space; restart randomly
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            continue
        v = w / nw
        lam = float(v @ (a @ v))
        resid = float(np.linalg.norm(a @ v - lam * v))
        if resid <= tol * max(1.0, abs(lam), norm):
            break
        if it == max_iter - 1:
            raise NoConvergence(f"power iteration residual {resid:.3g} after {max_iter} iters")
    i = int(np.argmax(np.abs(v)))
    if v[i] < 0:
        v = -v
    return lam, v


def sis_extinction_index(delta, beta, lambda1, rho) -> float:
    """Regime-averaged SIS index sum_s rho_s (delta_s - beta_s lambda1_s).

    Positive certifies extinction of the epidemic with rate at least the
    index.
    """
    delta, beta, lambda1, rho = (np.asarray(v, dtype=float)
                                 for v in (delta, beta, lambda1, rho))
    if not (delta.shape == beta.shape == lambda1.shape == rho.shape):
        raise LengthMismatch("delta, beta, lambda1, rho must share length")
    return float(np.sum(rho * (delta - beta * lambda1)))


def lorenz_lambda0(z_star: float) -> float:
    """Noise-free cylinder exponent: sqrt(z*-1) - 1 for z* > 1, else -1."""
    z_star = float(z_star)
    if z_star > 1.0:
        return math.sqrt(z_star - 1.0) - 1.0
    return -1.0


def lorenz_lambda_mc(gamma: float, z_star: float, eta: float, alpha0: float,
                     cfg, reps: int, seed: int = 0,
                     burn_in: Optional[float] = None):
    """Monte Carlo lambda for the stochastic Lorenz cylinder dynamics.

    Simulates the boundary (theta, z) of ``make_lorenz`` with R frozen at
    zero from its ``boundary_ic`` and returns minus the occupation average
    of 1 - (z/2) sin(2 theta) as an ExponentEstimate, its CI flipped to
    match; a negative value certifies extinction (convergence to the z-axis).
    """
    from .exponents import boundary_exponent
    from .models.lorenz import make_lorenz

    b = make_lorenz(gamma, z_star, eta, alpha0)
    avg = boundary_exponent(b.boundary, b.boundary_H, [b.boundary_ic],
                            cfg, reps, seed=seed, burn_in=burn_in)
    return replace(avg, point=-avg.point, ci_low=-avg.ci_high, ci_high=-avg.ci_low)


def invasion_rate(boundary_model, species_index: int, H_i: Callable, ics,
                  cfg, reps: int, seed: int = 0,
                  burn_in: Optional[float] = None):
    """Invasion rate r_i = occupation average of -H_i along boundary dynamics.

    For discrete chains this is the step average of E[log F_i]; positive
    r_i means species i can invade the boundary community.
    """
    from .exponents import _burn, _estimate
    from .integrators import simulate_lanes
    from .lyapunov import occupation_average

    burn = _burn(cfg, burn_in)
    neg_h = lambda x, s=None: -np.asarray(H_i(x, s), dtype=float)
    vals = simulate_lanes(boundary_model, replica_streams(ics, reps, seed), cfg,
                          lambda path: occupation_average(path, neg_h, burn))
    return _estimate(vals, cfg.t_final, "boundary_average")


def weighted_invasion_criterion(p, rates: Sequence) -> tuple:
    """Weighted invasion-rate criterion sum_i p_i r_i.

    ``rates`` holds ExponentEstimate values for the r_i.  Returns
    (value, extinct) where extinct accounts for the confidence interval:
    the conservative upper bound of the weighted sum must be negative.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or len(rates) != p.shape[0]:
        raise LengthMismatch("weights and rates must share length")
    if np.any(p <= 0):
        raise ValueError("weights must be strictly positive")
    value = float(sum(pi * r.point for pi, r in zip(p, rates)))
    upper = float(sum(pi * r.ci_high for pi, r in zip(p, rates)))
    return value, bool(upper < 0.0)


def kolmogorov_H(f: Callable, g: Callable, sigma_matrix, i: int) -> Callable:
    """Boundary H_i for stochastic Kolmogorov systems.

    Returns x -> (1/2) Sigma_ii g_i(x)^2 - f_i(x), usable as the H_i
    observable in invasion_rate for SDE models dX_i = X_i f_i dt + X_i g_i dE_i.
    """
    sigma = np.asarray(sigma_matrix, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise NonSquare("sigma_matrix must be square")
    if not (0 <= i < sigma.shape[0]):
        raise IndexOutOfRange(f"species index {i} outside 0..{sigma.shape[0] - 1}")
    sii = float(sigma[i, i])

    def H(x, s=None):
        fx = np.asarray(f(x), dtype=float)
        gx = np.asarray(g(x), dtype=float)
        return 0.5 * sii * gx[..., i] ** 2 - fx[..., i]

    return H
