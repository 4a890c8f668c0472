"""The derived polar companions against hand-derived reference formulas.

SIS and the linear SDE get their blow-up, sphere boundary, H, Gamma V and
boundary H from ``models.base.polar_blowup``; the oracles below are the
per-family formulas worked out by hand for each model.
"""

import numpy as np
import pytest

from extinctd.models import make_linear_sde, make_sis

TOL = 1e-12
ADJ = [[0, 1], [1, 0]]
SIS_CASES = {
    "one-regime": dict(adjacency=ADJ, beta=0.3, delta=1.0, sigma_scale=0.4),
    "two-regime": dict(adjacency=[ADJ, [[1, 1], [1, 0]]], beta=[0.2, 0.5],
                       delta=[1.2, 0.8], Q=[[-1.0, 1.0], [2.0, -2.0]], sigma_scale=0.4),
}
LIN_A = [[-1.0, 0.3], [0.2, -2.0]]
LIN_CASES = {"noisy": [[0.3, -0.1], [0.2, 0.4]], "quiet": None}


def _sphere_points(count, seed, nonneg):
    v = np.random.default_rng(seed).standard_normal((count, 2))
    v = np.abs(v) if nonneg else v
    return v / np.linalg.norm(v, axis=1)[:, None]


def _regimes(bundle, count, seed):
    m = bundle.model.n_regimes
    return np.random.default_rng(seed).integers(m, size=count) if m > 1 else None


# -- hand-derived SIS formulas --------------------------------------------------

def _sis_params(case):
    p = SIS_CASES[case]
    adj = np.asarray(p["adjacency"], dtype=float)
    adj = adj if adj.ndim == 3 else adj[None]
    m = adj.shape[0]
    return (adj, np.broadcast_to(np.asarray(p["beta"], dtype=float), (m,)),
            np.broadcast_to(np.asarray(p["delta"], dtype=float), (m,)), p["sigma_scale"])


def sis_oracles(case):
    adj, beta, delta, scale = _sis_params(case)

    def sphere_drift(v, k):
        b = adj[k] @ v
        return beta[k] * (b - float(v @ b) * v)

    def boundary_H(v, k):
        return delta[k] - beta[k] * float(v @ (adj[k] @ v))

    def sig(x, k):
        b = adj[k] @ x
        return scale * x * b * (1.0 - x)

    def H(x, k):
        b = adj[k] @ x
        r2 = float(x @ x)
        s = sig(x, k)
        return (delta[k] + 0.5 * float(s * s @ (-r2 + 2 * x * x)) / r2 ** 2
                - beta[k] * float(b * (1.0 - x) @ x) / r2)

    def gammaV(x, k):
        s = sig(x, k)
        return float(s * s @ (x * x)) / float(x @ x) ** 2

    def blowup_drift(u, k):
        v, r = u[:2], u[2]
        b = adj[k] @ v
        phi = beta[k] * b * (1.0 - r * v) - delta[k] * v
        psi2 = (scale * r * v * b * (1.0 - r * v)) ** 2
        mu_r = float(v @ phi) + 0.5 * float((1.0 - v * v) @ psi2)
        dv = v * (-mu_r + float((v * v) @ psi2)) + phi - psi2 * v
        return np.append(dv, r * mu_r)

    def blowup_diffusion(u, k):
        v, r = u[:2], u[2]
        psi = scale * r * v * (adj[k] @ v) * (1.0 - r * v)
        return np.vstack([np.diag(psi) - np.outer(v, v * psi), r * v * psi])

    return dict(sphere_drift=sphere_drift, boundary_H=boundary_H, H=H, gammaV=gammaV,
                blowup_drift=blowup_drift, blowup_diffusion=blowup_diffusion)


# -- hand-derived linear formulas -----------------------------------------------

def linear_oracles(Sigma):
    A = np.asarray(LIN_A)
    S = np.zeros((2, 2)) if Sigma is None else np.asarray(Sigma)

    def sphere_drift(v, k=None):
        av, sv = A @ v, S @ v
        eta = float(v @ sv)
        g = float(v @ av) + 0.5 * (float(sv @ sv) - eta ** 2)
        return av - g * v + eta * eta * v - eta * sv

    def sphere_diffusion(v, k=None):
        sv = S @ v
        return (sv - float(v @ sv) * v)[:, None]

    def boundary_H(v, k=None):
        sv = S @ v
        return -float(v @ (A @ v)) - 0.5 * float(sv @ sv) + float(v @ sv) ** 2

    def H(x, k=None):
        return boundary_H(x / np.linalg.norm(x))

    def gammaV(x, k=None):
        return float(x @ (S @ x)) ** 2 / float(x @ x) ** 2

    def blowup_drift(u, k=None):
        v, r = u[:2], u[2]
        sv = S @ v
        g = float(v @ (A @ v)) + 0.5 * (float(sv @ sv) - float(v @ sv) ** 2)
        return np.append(sphere_drift(v), r * g)

    def blowup_diffusion(u, k=None):
        v, r = u[:2], u[2]
        sv = S @ v
        return np.append(sphere_diffusion(v)[:, 0], r * float(v @ sv))[:, None]

    return dict(sphere_drift=sphere_drift, sphere_diffusion=sphere_diffusion,
                boundary_H=boundary_H, H=H, gammaV=gammaV,
                blowup_drift=blowup_drift, blowup_diffusion=blowup_diffusion)


def _families():
    for case, p in SIS_CASES.items():
        yield f"sis-{case}", make_sis(**p), sis_oracles(case), True
    for case, sigma in LIN_CASES.items():
        yield f"linear-{case}", make_linear_sde(LIN_A, sigma), linear_oracles(sigma), False


FAMILIES = list(_families())


@pytest.mark.parametrize("name, bundle, oracle, nonneg", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_derived_companions_match_the_hand_formulas(name, bundle, oracle, nonneg):
    count = 200
    vs = _sphere_points(count, 1, nonneg)
    ks = _regimes(bundle, count, 2)
    rs = np.random.default_rng(3).uniform(0.05, 0.9, count)
    k_of = (lambda i: None) if ks is None else (lambda i: int(ks[i]))
    idx = (lambda i: 0) if ks is None else k_of
    for i in range(count):
        v, k = vs[i], k_of(i)
        np.testing.assert_allclose(bundle.boundary.drift(v, k),
                                   oracle["sphere_drift"](v, idx(i)), rtol=0, atol=TOL)
        if "sphere_diffusion" in oracle and bundle.boundary.noise_dim > 0:
            np.testing.assert_allclose(bundle.boundary.diffusion(v, k),
                                       oracle["sphere_diffusion"](v), rtol=0, atol=TOL)
        u = np.append(v, rs[i])
        np.testing.assert_allclose(bundle.blowup.drift(u, k),
                                   oracle["blowup_drift"](u, idx(i)), rtol=0, atol=TOL)
        if bundle.blowup.noise_dim > 0:
            np.testing.assert_allclose(bundle.blowup.diffusion(u, k),
                                       oracle["blowup_diffusion"](u, idx(i)),
                                       rtol=0, atol=TOL)
        # the boundary is the blow-up at r = 0 with r dropped, and r = 0 is invariant
        at_zero = bundle.blowup.drift(np.append(v, 0.0), k)
        np.testing.assert_allclose(bundle.boundary.drift(v, k), at_zero[:2], rtol=0, atol=TOL)
        assert at_zero[2] == 0.0

    xs = rs[:, None] * vs
    want = {g: np.array([oracle[g](xs[i], idx(i)) for i in range(count)])
            for g in ("H", "gammaV")}
    np.testing.assert_allclose(bundle.suite.H(xs, ks), want["H"], rtol=0, atol=TOL)
    np.testing.assert_allclose(bundle.suite.gammaV(xs, ks), want["gammaV"], rtol=0, atol=TOL)
    want_bh = np.array([oracle["boundary_H"](vs[i], idx(i)) for i in range(count)])
    np.testing.assert_allclose(bundle.boundary_H(vs, ks), want_bh, rtol=0, atol=TOL)
    # single states give the batch values
    assert bundle.suite.H(xs[0], k_of(0)) == pytest.approx(want["H"][0], abs=TOL)
    assert bundle.boundary_H(vs[0], k_of(0)) == pytest.approx(want_bh[0], abs=TOL)


def test_sis_boundary_is_a_noise_free_flow_and_linear_follows_sigma():
    sis = make_sis(**SIS_CASES["one-regime"])
    assert (sis.boundary.family, sis.boundary.noise_dim, sis.boundary.diffusion) == \
        ("sde", 0, None)
    assert make_sis(**SIS_CASES["two-regime"]).boundary.family == "switching_diffusion"
    assert make_linear_sde(LIN_A, LIN_CASES["noisy"]).boundary.noise_dim == 1
    quiet = make_linear_sde(LIN_A)
    assert quiet.boundary.noise_dim == 0 and quiet.blowup.diffusion is None
