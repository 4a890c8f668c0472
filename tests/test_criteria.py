import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extinctd.criteria import (
    CtmcGenerator,
    ctmc_stationary,
    eigenvalues,
    invasion_rate,
    kolmogorov_H,
    lorenz_lambda0,
    lorenz_lambda_mc,
    sis_extinction_index,
    top_eigenvalue,
    weighted_invasion_criterion,
)
from extinctd.errors import (
    IndexOutOfRange,
    LengthMismatch,
    NonSquare,
    Reducible,
)
from extinctd.exponents import ExponentEstimate
from extinctd.integrators import SimConfig
from extinctd.process_core import StateVector


def test_ctmc_stationary_symmetric():
    rho = ctmc_stationary(CtmcGenerator([[-1.0, 1.0], [1.0, -1.0]]))
    assert rho == pytest.approx([0.5, 0.5])


def test_ctmc_stationary_hand_solved():
    rho = ctmc_stationary(CtmcGenerator([[-1.0, 1.0], [2.0, -2.0]]))
    assert rho == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-12)


def test_ctmc_single_state():
    assert ctmc_stationary(CtmcGenerator([[0.0]])) == pytest.approx([1.0])


def test_ctmc_reducible_rejected():
    gen = CtmcGenerator([[0.0, 0.0], [1.0, -1.0]])
    assert not gen.irreducible
    with pytest.raises(Reducible):
        ctmc_stationary(gen)


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_ctmc_stationary_residual(m, seed):
    gen = np.random.default_rng(seed)
    q = gen.uniform(0.1, 2.0, size=(m, m))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    rho = ctmc_stationary(CtmcGenerator(q))
    assert np.all(rho >= 0.0)
    assert rho.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(rho @ q).max() <= 1e-10 * max(1.0, np.abs(q).max())


def test_top_eigenvalue_examples():
    lam, v = top_eigenvalue([[0.0, 1.0], [1.0, 0.0]])
    assert lam == pytest.approx(1.0, abs=1e-10)
    assert v == pytest.approx([1.0 / math.sqrt(2)] * 2, abs=1e-6)

    k3 = np.ones((3, 3)) - np.eye(3)
    lam3, v3 = top_eigenvalue(k3)
    assert lam3 == pytest.approx(2.0, abs=1e-10)
    assert np.all(v3 > 0)

    lam0, _ = top_eigenvalue(np.zeros((4, 4)))
    assert lam0 == 0.0


def test_top_eigenvalue_vs_dense():
    gen = np.random.default_rng(123)
    for _ in range(20):
        n = int(gen.integers(2, 51))
        a = gen.standard_normal((n, n))
        a = (a + a.T) / 2.0
        lam, v = top_eigenvalue(a)
        dense = float(np.max(np.linalg.eigvalsh(a)))
        assert abs(lam - dense) <= 1e-9 * max(1.0, abs(dense))
        assert np.linalg.norm(a @ v - lam * v) <= 1e-8


def test_top_eigenvalue_input_checks():
    with pytest.raises(NonSquare):
        top_eigenvalue(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        top_eigenvalue([[0.0, 1.0], [0.0, 0.0]])


def test_eigenvalues_nonsquare():
    with pytest.raises(NonSquare):
        eigenvalues(np.zeros((3, 2)))


def test_sis_extinction_index():
    assert sis_extinction_index([1.0], [0.3], [1.0], [1.0]) == pytest.approx(0.7)
    assert sis_extinction_index([1.0, 1.0], [0.5, 0.5], [1.0, 1.0],
                                [0.5, 0.5]) == pytest.approx(0.5)
    # mixed-sign regimes follow the weighted sum
    val = sis_extinction_index([1.2, 0.8], [0.2, 0.5], [1.0, 1.0],
                               [2.0 / 3.0, 1.0 / 3.0])
    assert val == pytest.approx((2 / 3) * 1.0 + (1 / 3) * 0.3)
    with pytest.raises(LengthMismatch):
        sis_extinction_index([1.0, 1.0], [0.3], [1.0], [1.0])


def test_lorenz_lambda0_cases():
    assert lorenz_lambda0(2.0) == pytest.approx(0.0)
    assert lorenz_lambda0(1.25) == pytest.approx(-0.5)
    assert lorenz_lambda0(0.5) == -1.0


def test_lorenz_lambda_mc_deterministic():
    cfg = SimConfig(dt=2e-3, t_final=600.0)
    est = lorenz_lambda_mc(1.0, 0.5, 1.0, 0.0, cfg, reps=1, seed=3, burn_in=50.0)
    assert est.point == pytest.approx(-1.0, abs=0.02)


def test_lorenz_lambda_mc_multi_ergodic_envelope():
    # z* = 1.25 > 1: deterministic boundary settles at a fixed point; the
    # generic-ic estimate sits in [-1, 0] and matches the lambda0 envelope
    cfg = SimConfig(dt=2e-3, t_final=400.0)
    est = lorenz_lambda_mc(1.0, 1.25, 1.0, 0.0, cfg, reps=1, seed=4, burn_in=100.0)
    assert -1.0 - 0.02 <= est.point <= 0.0
    assert est.point == pytest.approx(lorenz_lambda0(1.25), abs=0.05)


def test_invasion_rate_ricker(ricker_extinct):
    cfg = SimConfig(dt=1.0, t_final=60.0)
    est = invasion_rate(ricker_extinct.boundary, 0, ricker_extinct.species_H(0),
                        [StateVector(np.zeros(1))], cfg, reps=1, seed=0)
    assert est.point == pytest.approx(-0.3, abs=0.01)


def test_invasion_rate_trivial_multiplier():
    from extinctd.models import make_ecological_discrete

    b = make_ecological_discrete(
        1, lambda x, xi: np.ones_like(x), lambda gen, size=None: gen.standard_normal(size),
        inner_mc=200)
    cfg = SimConfig(dt=1.0, t_final=30.0)
    est = invasion_rate(b.boundary, 0, b.species_H(0),
                        [StateVector(np.array([0.5]))], cfg, reps=1, seed=0)
    assert est.point == pytest.approx(0.0, abs=1e-12)


def test_invasion_rate_two_species_fixed_point():
    from extinctd.models import make_ecological_discrete

    # species 1 follows a deterministic Ricker settling at x1* = 1;
    # species 2 would grow at log F_2 = 0.3 - 0.5 x1 = -0.2 there
    def F(x, xi):
        return np.stack([np.exp(0.2 * (1.0 - x[..., 0])),
                         np.exp(0.3 - 0.5 * x[..., 0])], axis=-1)

    zeros = lambda gen, size=None: np.zeros(() if size is None else size)
    b = make_ecological_discrete(2, F, zeros, inner_mc=64)
    cfg = SimConfig(dt=1.0, t_final=300.0)
    est = invasion_rate(b.boundary, 1, b.species_H(1),
                        [StateVector(np.array([0.8, 0.0]))], cfg, reps=1,
                        seed=0, burn_in=100.0)
    assert est.point == pytest.approx(-0.2, abs=0.01)


def _rate(point, half=0.0):
    return ExponentEstimate(point=point, ci_low=point - half, ci_high=point + half,
                            n_replicas=1, horizon=1.0, method="closed_form")


def test_weighted_invasion_criterion():
    value, extinct = weighted_invasion_criterion([1.0], [_rate(-0.5)])
    assert value == pytest.approx(-0.5) and extinct

    value, extinct = weighted_invasion_criterion([1.0, 4.0],
                                                 [_rate(0.3), _rate(-0.2)])
    assert value == pytest.approx(-0.5) and extinct

    # wide CI destroys the certificate even when the point is negative
    _, extinct = weighted_invasion_criterion([1.0], [_rate(-0.1, half=0.5)])
    assert not extinct

    with pytest.raises(LengthMismatch):
        weighted_invasion_criterion([1.0, 2.0], [_rate(0.0)])


def test_kolmogorov_H_examples():
    r = 0.7
    f = lambda x: np.broadcast_to(r, np.shape(x))
    g0 = lambda x: np.zeros(np.shape(x))
    h = kolmogorov_H(f, g0, [[1.0]], 0)
    assert h(np.array([0.3])) == pytest.approx(-r)

    flog = lambda x: r - np.asarray(x)
    gsig = lambda x: np.full(np.shape(x), 0.5)
    h2 = kolmogorov_H(flog, gsig, [[1.0]], 0)
    assert h2(np.zeros(1)) == pytest.approx(0.125 - r)

    h3 = kolmogorov_H(flog, gsig, [[0.0]], 0)
    assert h3(np.array([0.2])) == pytest.approx(-(r - 0.2))

    with pytest.raises(IndexOutOfRange):
        kolmogorov_H(f, g0, [[1.0]], 1)
