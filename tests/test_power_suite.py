"""The power suites of the linear, Lorenz and Kolmogorov families against
their hand-derived master functions.

``models.base.power_suite`` derives L Ubar / Ubar and Gamma Ubar / Ubar^2
from a quadratic form P, the shape g of Ubar = g(x'Px) and the model's own
drift and diffusion.  The oracles below are the per-family formulas written
out by hand; the suite's W, U, W' and U' must agree with them, and the
batch-first callbacks must give the stacked per-row values.
"""

import numpy as np
import pytest

from extinctd.models import make_kolmogorov, make_linear_sde, make_lorenz
from extinctd.models.kolmogorov import make_logistic

S_U = 0.05
N_POINTS = 250


def lorenz_oracle(gamma, z_star, eta, alpha0):
    eps = 0.05
    a_coef = 2.0 * eta - 1.0 + 2.0 * eta ** 2

    def ubar(u):
        x, y, z = u[..., 0], u[..., 1], u[..., 2]
        return np.exp(eps * (a_coef * x ** 2 + (x + eta * y) ** 2 + eta * z ** 2))

    def lu_over_u(u):
        x, y, z = u[..., 0], u[..., 1], u[..., 2]
        w = x + eta * y
        drift_dot_grad = (
            y * (2.0 * a_coef * x + 2.0 * w)
            + (x * (z - 2.0) - 2.0 * y) * (2.0 * eta * w)
            + (-(gamma * (z - z_star)) - x * w) * (2.0 * eta * z)
        )
        return eps * drift_dot_grad + alpha0 ** 2 * (eps * eta + 2.0 * (eps * eta * z) ** 2)

    def gu_over_u2(u):
        return (alpha0 * 2.0 * eps * eta * u[..., 2]) ** 2

    return ubar, lu_over_u, gu_over_u2


def linear_oracle(A, Sigma):
    A, Sigma = np.asarray(A, dtype=float), np.asarray(Sigma, dtype=float)

    def ubar(x):
        return np.sqrt(1.0 + np.sum(x ** 2, axis=-1))

    def lu_over_u(x):
        u = 1.0 + np.sum(x * x, axis=-1)
        w = x @ Sigma.T
        quad = np.sum(x * (x @ A.T), axis=-1)
        return (quad + 0.5 * (np.sum(w * w, axis=-1)
                              - np.sum(x * w, axis=-1) ** 2 / u)) / u

    def gu_over_u2(x):
        u = 1.0 + np.sum(x * x, axis=-1)
        return np.sum(x * (x @ Sigma.T), axis=-1) ** 2 / u ** 2

    return ubar, lu_over_u, gu_over_u2


def kolmogorov_oracle(f, g, noise_matrix):
    A = np.asarray(noise_matrix, dtype=float)
    sigma = A.T @ A

    def ubar(x):
        return 1.0 + np.sum(x ** 2, axis=-1)

    def lu_over_u(x):
        fx, gx = f(x), g(x)
        u = 1.0 + np.sum(x * x, axis=-1)
        lu = 2.0 * np.sum(x * x * fx, axis=-1) + np.sum(
            np.diag(sigma) * x * x * gx * gx, axis=-1)
        return lu / u

    def gu_over_u2(x):
        u = 1.0 + np.sum(x * x, axis=-1)
        w = x * x * g(x)
        return 4.0 * np.einsum("...i,ij,...j->...", w, sigma, w) / u ** 2

    return ubar, lu_over_u, gu_over_u2


def _two_species():
    f = lambda x: np.array([0.4, -0.1]) - x @ np.array([[1.0, 0.3], [0.5, 1.2]]).T
    g = lambda x: 0.2 + 0.1 * x[..., ::-1]
    mix = [[0.6, 0.2], [0.1, 0.5], [0.0, 0.3]]
    return make_kolmogorov(2, f, g, mix), kolmogorov_oracle(f, g, mix)


def _logistic(r, sigma):
    f = lambda x: r - x
    g = lambda x: np.full_like(x, sigma)
    return make_logistic(r, sigma), kolmogorov_oracle(f, g, [[1.0]])


A2 = [[-1.0, 0.7], [-0.4, -2.0]]
S2 = [[0.3, 0.2], [-0.1, 0.4]]
A3 = [[-1.0, 0.2, 0.0], [0.3, -0.5, 0.4], [0.0, -0.6, -2.0]]

CASES = {
    "lorenz-noisy": lambda: (make_lorenz(0.7, 1.5, 1.3, 0.4),
                             lorenz_oracle(0.7, 1.5, 1.3, 0.4), 3, False),
    "lorenz-quiet": lambda: (make_lorenz(1.0, 0.5, 1.0, 0.0),
                             lorenz_oracle(1.0, 0.5, 1.0, 0.0), 3, False),
    "linear-noisy": lambda: (make_linear_sde(A2, S2), linear_oracle(A2, S2), 2, False),
    "linear-quiet": lambda: (make_linear_sde(A3), linear_oracle(A3, np.zeros((3, 3))), 3, False),
    "kolmogorov-noisy": lambda: (*_two_species(), 2, True),
    "logistic-noisy": lambda: (*_logistic(0.1, 0.8), 1, True),
    "logistic-quiet": lambda: (*_logistic(0.3, 0.0), 1, True),
}


def _points(dim, nonneg, seed=2024):
    x = np.random.default_rng(seed).uniform(-4.0, 4.0, size=(N_POINTS, dim))
    return np.abs(x) if nonneg else x


@pytest.mark.parametrize("case", sorted(CASES))
def test_power_suite_matches_the_hand_formulas(case):
    bundle, (ubar, lu_over_u, gu_over_u2), dim, nonneg = CASES[case]()
    suite = bundle.suite
    x = _points(dim, nonneg)
    u = ubar(x)
    phi = np.maximum(2.0 - lu_over_u(x) + gu_over_u2(x), 1.0)
    assert np.mean(phi > 1.0) > 0.1  # the derived terms are exercised, not clamped
    expected = {
        "W": u ** 0.25,
        "U": u ** 0.5,
        "Wprime": np.maximum(0.5 * S_U * u ** 0.25 * phi, 1.0),
        "Uprime": S_U * u ** 0.5 * phi,
    }
    for name, want in expected.items():
        got = np.asarray(getattr(suite, name)(x), dtype=float)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=name)
        rows = np.array([float(getattr(suite, name)(row)) for row in x])
        np.testing.assert_allclose(rows, want, rtol=1e-12, atol=0.0, err_msg=name)


@pytest.mark.parametrize("case", sorted(CASES))
def test_drift_and_diffusion_are_batch_first(case):
    bundle, _, dim, nonneg = CASES[case]()
    model = bundle.model
    x = _points(dim, nonneg, seed=7)[:40]
    batch = np.asarray(model.drift(x, None))
    assert batch.shape == (40, dim)
    np.testing.assert_allclose(batch, np.stack([model.drift(row, None) for row in x]),
                               rtol=1e-12, atol=1e-300)
    if model.noise_dim > 0:
        rows = np.stack([model.diffusion(row, None) for row in x])
        assert rows.shape == (40, dim, model.noise_dim)
        batch = np.broadcast_to(model.diffusion(x, None), rows.shape)
        np.testing.assert_allclose(batch, rows, rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("case", ["kolmogorov-noisy", "linear-noisy", "lorenz-noisy"])
def test_w_and_u_give_a_block_the_bits_of_its_rows(case):
    # an array's ** 0.25 and ** 0.5 round some values other than one state's
    # power does (about 5% and 0.1% of them), so a block needs many rows
    bundle, _, dim, nonneg = CASES[case]()
    x = np.random.default_rng(1).uniform(-3.0, 3.0, size=(20000, dim))
    if nonneg:
        x = np.abs(x)
    for name in ("W", "U"):
        f = getattr(bundle.suite, name)
        rows = np.array([f(row) for row in x])
        assert np.array_equal(f(x).view(np.uint64), rows.view(np.uint64)), name
