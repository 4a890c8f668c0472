import dataclasses
import math

import numpy as np
import pytest

from extinctd.errors import (DimensionMismatch, InvalidAdjacency, MissingField,
                             NegativeParameter, NegativeRate, NonFiniteParameter,
                             NonPositiveF)
from extinctd.integrators import SimConfig, simulate, simulate_lanes
from extinctd.lyapunov import generator_apply, qv_residual, dynkin_residual
from extinctd.process_core import ModelSpec, RngStream, StateVector, replica_streams
from extinctd.models import (
    eco_drift_check,
    lorenz_cylinder,
    lorenz_params_from_classic,
    make_ecological_discrete,
    make_kolmogorov,
    make_linear_sde,
    make_logistic,
    make_lorenz,
    make_ricker,
    make_sis,
)


def shared_noise_gap(bundle, x0, dt, t_final, seed):
    cfg = SimConfig(dt=dt, t_final=t_final, floor_epsilon=1e-14)
    direct = simulate(bundle.model, x0, cfg, RngStream(seed))
    y0 = StateVector(bundle.quad_map.inverse(x0.x), x0.regime)
    lifted = simulate(bundle.blowup, y0, cfg, RngStream(seed))
    n = min(len(direct.times), len(lifted.times))
    fwd = bundle.quad_map.forward(lifted.states[:n])
    return float(np.max(np.linalg.norm(fwd - direct.states[:n], axis=1)))


# -- SIS ----------------------------------------------------------------------

def test_sis_boundary_H_at_perron(sis_k2):
    v = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert sis_k2.boundary_H(v, None) == pytest.approx(0.7)  # delta - beta


def test_sis_origin_invariant(sis_k2):
    cfg = SimConfig(dt=1e-2, t_final=3.0)
    traj = simulate(sis_k2.model, StateVector(np.zeros(2)), cfg, RngStream(1))
    assert np.all(traj.states == 0.0)


def test_sis_quadruple_intertwining():
    # small noise keeps the dt-order coordinate-change error dominant
    b = make_sis([[0, 1], [1, 0]], beta=0.3, delta=1.0, sigma_scale=0.05)
    x0 = StateVector(np.array([0.3, 0.45]))
    g_coarse = shared_noise_gap(b, x0, 4e-3, 10.0, seed=42)
    g_fine = shared_noise_gap(b, x0, 1e-3, 10.0, seed=42)
    assert g_coarse <= 1.0 * 4e-3
    assert 2.5 <= g_coarse / g_fine <= 6.5


def test_sis_constructor_validation():
    with pytest.raises(InvalidAdjacency):
        make_sis([[0, 1], [0, 0]], beta=0.3, delta=1.0)
    with pytest.raises(InvalidAdjacency):
        make_sis([[0, 2], [2, 0]], beta=0.3, delta=1.0)
    with pytest.raises(NegativeRate):
        make_sis([[0, 1], [1, 0]], beta=-0.3, delta=1.0)
    with pytest.raises(NegativeRate):
        make_sis([[0, 1], [1, 0]], beta=0.3, delta=1.0,
                 sigma=lambda xi, s=None: np.full(np.shape(xi), 0.3))
    with pytest.raises(NegativeRate):
        make_sis([[0, 1], [1, 0]], beta=[0.3, 0.4], delta=[1.0, 1.0])


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64).tolist()


def test_sis_projections_match_clip_bit_for_bit(sis_k2):
    # the SIS and Kolmogorov projections use np.maximum / np.minimum in the
    # argument order that reproduces np.clip on -0.0, NaN and infinities
    vals = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-300, -1e-300, 0.5, 2.0])
    assert _bits(sis_k2.model.domain_projection(vals)) == _bits(np.clip(vals, 0.0, 1.0))
    kolmogorov = make_kolmogorov(len(vals), lambda x: -x, lambda x: np.ones_like(x),
                                 np.eye(len(vals)))
    assert _bits(kolmogorov.model.domain_projection(vals)) == _bits(np.clip(vals, 0.0, None))

    def clip_sphere(v):
        v = np.clip(v, 0.0, None)
        nv = np.linalg.norm(v)
        return np.full(2, 1.0 / np.sqrt(2.0)) if nv == 0.0 else v / nv

    with np.errstate(invalid="ignore"):
        for a in vals:
            for c in vals:
                v = np.array([a, c])
                assert _bits(sis_k2.boundary.domain_projection(v)) == _bits(clip_sphere(v))
                u = np.array([a, c, 0.5])
                assert _bits(sis_k2.blowup.domain_projection(u)) == \
                    _bits(np.append(clip_sphere(v), 0.5))


# -- Lorenz -------------------------------------------------------------------

def test_lorenz_axis_invariant(lorenz_noisy):
    cfg = SimConfig(dt=1e-3, t_final=2.0)
    traj = simulate(lorenz_noisy.model, StateVector(np.array([0.0, 0.0, 5.0])),
                    cfg, RngStream(3))
    assert np.all(traj.states[:, :2] == 0.0)  # axis exactly invariant
    assert traj.duration == 2.0


def test_lorenz_gamma_v_zero_qv_degenerates(lorenz_noisy):
    cfg = SimConfig(dt=1e-3, t_final=3.0)
    traj = simulate(lorenz_noisy.model, lorenz_noisy.default_ic, cfg, RngStream(5))
    suite = lorenz_noisy.suite
    dyn = dynkin_residual(traj, suite.V, suite.H)
    qv = qv_residual(traj, suite.V, suite.H, suite.gammaV)
    assert np.allclose(qv, dyn ** 2)
    # with Gamma V = 0 the V-martingale is identically zero up to O(dt)
    assert np.max(np.abs(dyn)) < 5e-3


def test_lorenz_slope_matches_lambda(lorenz_det):
    cfg = SimConfig(dt=1e-3, t_final=25.0, floor_epsilon=1e-12)
    from extinctd.exponents import trajectory_slope

    traj = simulate(lorenz_det.model, lorenz_det.default_ic, cfg, RngStream(6))
    est = trajectory_slope(traj, lorenz_det.suite.V)
    assert est.point == pytest.approx(1.0, abs=0.05)  # -lambda0(0.5)


def test_lorenz_quadruple_intertwining(lorenz_noisy):
    x0 = StateVector(np.array([0.8, 0.4, 0.5]))
    g_coarse = shared_noise_gap(lorenz_noisy, x0, 4e-3, 10.0, seed=44)
    g_fine = shared_noise_gap(lorenz_noisy, x0, 1e-3, 10.0, seed=44)
    assert g_coarse <= 1.0 * 4e-3
    assert 2.5 <= g_coarse / g_fine <= 6.5


def test_lorenz_rejects_bad_parameters():
    # a NaN alpha0 once built a noise-free model, as nan > 0 is false
    for name, value in [("gamma", -1.0), ("gamma", 0.0), ("gamma", math.nan),
                        ("gamma", math.inf), ("gamma", -math.inf), ("eta", -1.0),
                        ("eta", math.nan), ("eta", math.inf), ("z_star", math.nan),
                        ("z_star", math.inf), ("z_star", -math.inf), ("alpha0", -0.1),
                        ("alpha0", math.nan), ("alpha0", math.inf)]:
        params = {"gamma": 1.0, "z_star": 0.5, "eta": 1.0, "alpha0": 0.0, name: value}
        error = NegativeParameter if math.isfinite(value) else NonFiniteParameter
        with pytest.raises(error, match=f"^{name} = {value!r}:"):
            make_lorenz(**params)


def test_lorenz_classic_parameter_map_is_exact_change_of_variables():
    # pushing the classic vector field through the coordinate change must
    # reproduce the consolidated vector field exactly
    sigma, rho, beta = 10.0, 0.8, 8.0 / 3.0
    p = lorenz_params_from_classic(sigma, rho, beta)
    chi = (1.0 + sigma) / 2.0
    c1 = math.sqrt(sigma / chi ** 3)
    c2 = c1 * sigma / chi
    c3 = sigma / chi ** 2

    def classic_drift(u):
        X, Y, Z = u
        return np.array([sigma * (Y - X), X * (rho - Z) - Y, -beta * Z + X * Y])

    def consolidated_drift(u):
        x, y, z = u
        return np.array([y, x * (z - 2.0) - 2.0 * y,
                         -(p["gamma"] * (z - p["z_star"]) + x * (x + p["eta"] * y))])

    jac = np.array([[c1, 0.0, 0.0], [-c2, c2, 0.0], [0.0, 0.0, -c3]])
    gen = np.random.default_rng(7)
    for _ in range(20):
        u = gen.uniform(-2.0, 2.0, 3)
        mapped = np.array([c1 * u[0], c2 * (u[1] - u[0]), p["z_star"] - c3 * u[2]])
        lhs = (jac @ classic_drift(u)) / chi
        rhs = consolidated_drift(mapped)
        assert np.allclose(lhs, rhs, atol=1e-12), (lhs, rhs)
    assert (rho < 1.0) == (p["z_star"] < 2.0)


# -- ecological ----------------------------------------------------------------

def test_eco_face_invariance_two_species():
    def F(x, xi):
        return np.exp(np.stack([0.2 - x[..., 0] + 0.1 * xi, 0.1 - x[..., 1] + 0.1 * xi], axis=-1))

    b = make_ecological_discrete(2, F, lambda gen, size=None: gen.standard_normal(size),
                                 inner_mc=64)
    cfg = SimConfig(dt=1.0, t_final=200.0)
    traj = simulate(b.model, StateVector(np.array([0.5, 0.0])), cfg, RngStream(9))
    assert np.all(traj.states[:, 1] == 0.0)
    assert np.any(traj.states[:, 0] > 0.0)


def test_eco_persistence_side():
    import dataclasses

    b = make_ricker(r=0.5, sigma=0.2)
    suite = dataclasses.replace(b.suite, alpha_candidate=0.3)
    from extinctd.exponents import extinction_fraction

    frac = extinction_fraction(b.model, suite, [StateVector(np.array([0.5]))],
                               SimConfig(dt=1.0, t_final=250.0, floor_epsilon=1e-30),
                               reps=20, tol=0.1, seed=10)
    assert frac <= 0.05


def test_eco_rejects_nonpositive_multiplier():
    # the build steps the chain once from each calibration point (the
    # positivity probe), so construction already fails
    with pytest.raises(NonPositiveF):
        make_ecological_discrete(1, lambda x, xi: -np.ones_like(x),
                                 lambda gen, size=None: np.zeros(() if size is None else size),
                                 inner_mc=8)


def test_eco_drift_check_ricker(ricker_extinct):
    # P Upsilon <= rho^2 Upsilon + C^2 for Upsilon = exp(x): the Ricker map
    # is bounded by exp(r - 1 + sigma xi), so C^2 = E exp(e^(r-1+sigma xi))
    def upsilon(x, s=None):
        return np.exp(np.sum(np.asarray(x, dtype=float), axis=-1))

    rows = eco_drift_check(ricker_extinct.model, upsilon, rho_bar=0.5,
                           c_bar=1.4, points=[StateVector(np.array([v]))
                                              for v in (0.1, 0.7, 2.0, 4.0)],
                           rng=RngStream(11), n_mc=4000)
    assert all(violation <= 0.0 for _, violation in rows)


def test_ricker_invasion_equals_minus_r(ricker_extinct):
    # H at the origin equals -r exactly under antithetic noise
    assert ricker_extinct.species_H(0)(np.zeros(1)) == pytest.approx(0.3, abs=1e-12)


def test_eco_observables_per_distinct_row_match_the_row_loop():
    # F depends on the sign of a zero coordinate, so merging 0.0 with -0.0
    # would change H; each batch must equal its own per-row evaluation
    calls = []

    def log_F_batch(x, bank):
        calls.append(1)
        return np.copysign(0.1, x)[None, :] - x[None, :] + 0.2 * bank[:, None]

    def F(x, xi):
        return np.exp(log_F_batch(np.asarray(x, dtype=float), np.array([xi]))[0])

    b = make_ecological_discrete(2, F, lambda gen, size=None: gen.standard_normal(size),
                                 inner_mc=64, log_F_batch=log_F_batch)
    rows = np.array([[0.0, 0.5], [-0.0, 0.5], [0.0, 0.5], [0.5, 0.0],
                     [0.5, -0.0], [0.3, 0.3], [-0.0, 0.5], [0.3, 0.3]])
    for g in (b.suite.H, b.species_H(0), b.species_H(1), b.suite.gammaV):
        want = [g(row) for row in rows]
        calls.clear()
        got = g(rows)
        assert len(calls) == 5  # distinct rows
        assert got.shape == (len(rows),)
        assert _bits(got) == _bits(want)
    assert b.suite.H(rows[0]) != b.suite.H(rows[1])


# -- Kolmogorov ----------------------------------------------------------------

def test_kolmogorov_face_invariance():
    f = lambda x: 0.5 - np.asarray(x)
    g = lambda x: np.full(np.shape(x), 0.3)
    b = make_kolmogorov(2, f, g, np.eye(2))
    cfg = SimConfig(dt=1e-3, t_final=5.0)
    traj = simulate(b.model, StateVector(np.array([0.0, 0.5])), cfg, RngStream(12))
    assert np.all(traj.states[:, 0] == 0.0)
    assert np.any(traj.states[:, 1] != 0.5)


def test_kolmogorov_deterministic_decay():
    from extinctd.models import make_logistic
    from extinctd.exponents import slope_experiment

    b = make_logistic(r=-0.4, sigma=0.0)
    cfg = SimConfig(dt=1e-3, t_final=40.0, floor_epsilon=1e-12)
    est = slope_experiment(b.model, b.suite.V, StateVector(np.array([0.5])),
                           cfg, reps=1, seed=0)
    assert est.point == pytest.approx(0.4, rel=0.02)


def test_kolmogorov_alpha_candidate():
    from extinctd.models import make_logistic

    b = make_logistic(r=-0.16875, sigma=0.25)
    assert b.suite.alpha_candidate == pytest.approx(0.2)


# -- linear --------------------------------------------------------------------

def test_linear_gbm_alpha_closed_form():
    b = make_linear_sde([[-0.3]], [[0.4]])
    assert b.suite.alpha_candidate == pytest.approx(0.3 + 0.08)


def test_linear_quadruple_intertwining():
    b = make_linear_sde([[-1.0, 0.3], [0.0, -2.0]],
                        [[0.05, 0.0], [0.0, 0.05]])
    x0 = StateVector(np.array([1.0, 0.7]))
    g_coarse = shared_noise_gap(b, x0, 4e-3, 10.0, seed=43)
    g_fine = shared_noise_gap(b, x0, 1e-3, 10.0, seed=43)
    assert g_coarse <= 1.0 * 4e-3
    assert 2.5 <= g_coarse / g_fine <= 6.5


def test_linear_isotropic_slope():
    b = make_linear_sde(-np.eye(2))
    from extinctd.exponents import slope_experiment

    cfg = SimConfig(dt=1e-3, t_final=15.0, floor_epsilon=1e-12)
    est = slope_experiment(b.model, b.suite.V, StateVector(np.array([0.3, -0.8])),
                           cfg, reps=1, seed=0)
    assert est.point == pytest.approx(1.0, rel=0.01)


# -- cross-family H agreement ---------------------------------------------------

def _h_agrees(bundle, points, rng=None, n_mc=0):
    for p in points:
        kwargs = {"rng": rng, "n_mc": n_mc} if n_mc else {}
        lv = generator_apply(bundle.model, bundle.suite.V, p, **kwargs)
        h = float(bundle.suite.H(p.x, p.regime))
        assert abs(lv - h) <= max(1e-3, 0.01 * abs(h)), (p.x, lv, h)


def test_h_agreement_sis(sis_k2, sis_switching):
    gen = np.random.default_rng(50)
    _h_agrees(sis_k2, [StateVector(gen.uniform(0.05, 0.95, 2)) for _ in range(100)])
    _h_agrees(sis_switching,
              [StateVector(gen.uniform(0.05, 0.95, 2), int(gen.integers(2)))
               for _ in range(50)])


def test_h_agreement_lorenz(lorenz_noisy):
    gen = np.random.default_rng(51)
    pts = [StateVector(gen.uniform(-2.0, 2.0, 3)) for _ in range(100)]
    pts = [p for p in pts
           if float(lorenz_noisy.model.extinction_distance(p.x, None)) > 0.1]
    _h_agrees(lorenz_noisy, pts)


def test_h_agreement_kolmogorov():
    from extinctd.models import make_logistic

    b = make_logistic(r=0.2, sigma=0.3)
    gen = np.random.default_rng(52)
    _h_agrees(b, [StateVector(gen.uniform(0.1, 2.0, 1)) for _ in range(100)])


def test_h_agreement_linear():
    b = make_linear_sde([[-1.0, 0.5], [0.2, -2.0]], [[0.3, 0.0], [0.1, 0.2]])
    gen = np.random.default_rng(53)
    _h_agrees(b, [StateVector(gen.uniform(-2.0, 2.0, 2)) for _ in range(100)])


def test_h_agreement_eco_chain(ricker_extinct):
    # chain generator is Monte Carlo; compare with a large shared sample
    gen = np.random.default_rng(54)
    for _ in range(5):
        p = StateVector(gen.uniform(0.2, 1.5, 1))
        lv = generator_apply(ricker_extinct.model, ricker_extinct.suite.V, p,
                             rng=RngStream(55), n_mc=60_000)
        h = float(ricker_extinct.suite.H(p.x, None))
        assert abs(lv - h) <= 5e-3


def test_chain_monte_carlo_gives_the_bits_of_the_single_draw_loop(ricker_extinct):
    # generator_apply, gamma_apply and eco_drift_check step one block of
    # n_mc draws; the loop over single draws that they replaced is the oracle
    from extinctd.lyapunov import gamma_apply

    model, suite = ricker_extinct.model, ricker_extinct.suite

    def loop_mean(g, x, gen, n_mc):
        acc = 0.0
        for _ in range(n_mc):
            acc += g(np.asarray(model.step_map(x, model.noise_sampler(gen)), dtype=float))
        return acc / n_mc

    for x in ([0.2], [0.7], [1.5]):
        p = StateVector(np.array(x))
        for f in (suite.V, suite.W, suite.U):
            f0 = float(f(p.x, None))
            lf = loop_mean(lambda y: float(f(y, None)) - f0, p.x, RngStream(55).generator(), 3000)
            gf = loop_mean(lambda y: (float(f(y, None)) - f0) * (float(f(y, None)) - f0),
                           p.x, RngStream(56).generator(), 3000)
            assert generator_apply(model, f, p, rng=RngStream(55), n_mc=3000) == lf
            assert gamma_apply(model, f, p, rng=RngStream(56), n_mc=3000) == gf

    def upsilon(x, s=None):
        return np.exp(np.sum(np.asarray(x, dtype=float), axis=-1))

    points = [StateVector(np.array([v])) for v in (0.1, 0.7, 2.0)]
    gen = RngStream(11).generator()
    want = [loop_mean(lambda y: float(upsilon(y)), p.x, gen, 2000)
            - (0.25 * float(upsilon(p.x)) + 1.4 ** 2) for p in points]
    rows = eco_drift_check(model, upsilon, rho_bar=0.5, c_bar=1.4, points=points,
                           rng=RngStream(11), n_mc=2000)
    assert [v for _, v in rows] == want


def test_suite_diagnostics_eco_and_kolmogorov(ricker_extinct):
    from extinctd.lyapunov import suite_diagnostics
    from extinctd.models import make_logistic

    gen = np.random.default_rng(70)
    pts = [StateVector(gen.uniform(0.1, 1.8, 1)) for _ in range(12)]
    rep = suite_diagnostics(ricker_extinct.model, ricker_extinct.suite, pts,
                            rng=RngStream(71), n_mc=1500)
    assert rep.passed, rep.violations

    b = make_logistic(r=-0.16875, sigma=0.25)
    pts2 = [StateVector(gen.uniform(0.05, 3.0, 1)) for _ in range(25)]
    rep2 = suite_diagnostics(b.model, b.suite, pts2)
    assert rep2.passed, rep2.violations


# -- suite constant --------------------------------------------------------------

@pytest.mark.parametrize("name, params, k", [
    ("lorenz", {}, 1.8),
    ("linear", {"A": [[-1.0, 0.0], [0.0, -3.0]]}, 1.8),
    ("kolmogorov", {"r": 0.1, "sigma": 0.8}, 8.810566423432203),
    ("eco-discrete", {"r": -0.3, "sigma": 0.2}, 5.32064134739505),
])
def test_suite_constant_is_calibrated_on_first_read(monkeypatch, name, params, k):
    from extinctd.models import base, ecological
    from extinctd.process_core import make_bundle

    calls = []
    calibrate = base.calibrate_suite_constant

    def counted(*args, **kwargs):
        calls.append(1)
        return calibrate(*args, **kwargs)

    monkeypatch.setattr(base, "calibrate_suite_constant", counted)
    monkeypatch.setattr(ecological, "calibrate_suite_constant", counted)
    bundle = make_bundle(name, params)
    assert calls == []
    assert bundle.suite.K == k
    assert bundle.suite.K == k
    assert calls == [1]


@pytest.mark.parametrize("params", [
    {"beta": 0.3, "delta": 1.0},
    {"beta": [0.2, 0.5], "delta": [1.2, 0.8], "Q": [[-1.0, 1.0], [2.0, -2.0]]},
])
def test_sis_suite_constant_resolves_on_first_read(monkeypatch, params):
    from extinctd.models import sis

    calls = []
    derive = sis.polar_blowup

    def counted(*args, **kwargs):
        polar = derive(*args, **kwargs)

        def gamma_v(x, s=None):
            calls.append(1)
            return polar.gammaV(x, s)

        return polar._replace(gammaV=gamma_v)

    monkeypatch.setattr(sis, "polar_blowup", counted)
    bundle = make_sis([[0, 1], [1, 0]], **params)
    assert calls == []
    samples = np.random.default_rng(2024).uniform(0.01, 1.0, size=(256, 2))
    m = bundle.model.n_regimes
    gv_max = max(float(np.max(bundle.suite.gammaV(samples, np.full(256, s, dtype=int))))
                 for s in range(m))
    del calls[:]
    assert bundle.suite.K == 1.0 + 1.5 * gv_max
    assert bundle.suite.K == 1.0 + 1.5 * gv_max
    assert len(calls) == m


def test_lorenz_cylinder_drift_keeps_the_bits_of_the_math_formula():
    # the one-state cylinder drift was 1 - z math.sin(th) ** 2; on a block,
    # ** 2 squares and rounds differently from pow for about 0.1% of th
    gamma, z_star = 0.7, 1.5
    cyl = make_lorenz(gamma, z_star, 1.3, 0.05).boundary
    u = np.random.default_rng(5).uniform(-4.0, 4.0, size=(20000, 2))
    want = [[1.0 - z * math.sin(th) ** 2, -gamma * (z - z_star)] for th, z in u.tolist()]
    assert _bits(cyl.drift(u)) == _bits(want)


def _signed_zero_rows(gen, dim):
    """A block of random rows, then every row of -0.0 and +0.0 entries."""
    zeros = [[-0.0 if (j >> i) & 1 else 0.0 for i in range(dim)] for j in range(2 ** dim)]
    return np.vstack([gen.uniform(-4.0, 4.0, size=(20000, dim)), zeros])


def test_lorenz_drift_keeps_the_bits_of_the_one_state_formula():
    # each row of a block must be the one-state formula's value, signed
    # zeros included
    gamma, z_star, eta = 0.7, 1.5, 1.3
    model = make_lorenz(gamma, z_star, eta, 0.05).model
    u = _signed_zero_rows(np.random.default_rng(6), 3)
    want = [[y, x * (z - 2.0) - 2.0 * y, -(gamma * (z - z_star) + x * (x + eta * y))]
            for x, y, z in u.tolist()]
    assert _bits(model.drift(u)) == _bits(want)
    signs = np.signbit(model.drift(u)[-8:, :2])  # the zero rates keep their signs
    assert signs.any() and not signs.all()


def test_lorenz_blowup_drift_keeps_the_bits_of_the_one_state_formula():
    # dR = -R H dt, and the z rate adds the R^2 term of -x(x + eta y), where
    # x = R sin(th) and x + y = R cos(th)
    gamma, z_star, eta = 0.7, 1.5, 1.3
    blowup = make_lorenz(gamma, z_star, eta, 0.05).blowup
    u = _signed_zero_rows(np.random.default_rng(7), 3)
    want = []
    for th, r, z in u.tolist():
        st, h = math.sin(th), 1.0 - 0.5 * z * math.sin(2.0 * th)
        want.append([1.0 - z * math.sin(th) ** 2, r * -h,
                     -gamma * (z - z_star) - r * r * st * (st + eta * (math.cos(th) - st))])
    assert _bits(blowup.drift(u)) == _bits(want)
    assert _bits(blowup.drift(u[-8:])[:, 1]) == _bits([r * -1.0 for r in u[-8:, 1]])


def test_ricker_noise_sampler_sized_draws_equal_single_draws(ricker_extinct):
    sample = ricker_extinct.model.noise_sampler
    one, block = np.random.default_rng(8), np.random.default_rng(8)
    singles = [sample(one) for _ in range(1000)]
    assert _bits(sample(block, 1000)) == _bits(singles)
    assert one.bit_generator.state == block.bit_generator.state


# -- the batch-first contract -----------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 3, 5, 30])
def test_norm_keeps_the_bits_of_the_sum_of_squares_formula(dim):
    from extinctd.models.base import _norm

    def norm_by_formula(x):
        return np.sqrt(np.sum(np.asarray(x, dtype=float) ** 2, axis=-1))

    rng = np.random.default_rng(dim)
    block = rng.standard_normal((20_000, dim)) * 10.0 ** rng.uniform(-150, 150, (20_000, 1))
    block[:3] = [0.0], [-0.0], [5e-324]
    np.testing.assert_array_equal(_norm(block), norm_by_formula(block))
    for x in block[:300]:
        assert _norm(x) == norm_by_formula(x) and np.ndim(_norm(x)) == 0
    assert _norm(block[0].tolist()) == 0.0  # lists are accepted, as by the formula


RING5 = [[0, 1, 0, 0, 1], [1, 0, 1, 0, 0], [0, 1, 0, 1, 0], [0, 0, 1, 0, 1], [1, 0, 0, 1, 0]]
FULL5 = (np.ones((5, 5)) - np.eye(5)).tolist()
Q2 = [[-1.0, 1.0], [2.0, -2.0]]


def _cylinder_lanes():
    # per-lane (gamma, z*, alpha0), every fourth lane noise-free; row i must
    # be that of the cylinder built with the scalars at i
    gen = np.random.default_rng(7)
    gamma, z_star = gen.uniform(0.2, 2.0, 40), gen.uniform(-1.0, 3.0, 40)
    alpha0 = np.where(np.arange(40) % 4 == 0, 0.0, gen.uniform(0.01, 0.5, 40))
    rows = [lorenz_cylinder(*p)[0] for p in zip(gamma.tolist(), z_star.tolist(),
                                                 alpha0.tolist())]
    return lorenz_cylinder(gamma, z_star, alpha0)[0], (-4.0, 4.0), rows


LINEAR4 = [[-1.0, 0.7, 0.2, 0.0], [-0.4, -2.0, 0.3, 0.1], [0.5, 0.0, -1.5, 0.6],
           [0.1, -0.3, 0.2, -0.8]]
SIGMA4 = [[0.3, 0.2, 0.0, -0.1], [-0.1, 0.4, 0.2, 0.0], [0.0, 0.1, 0.3, 0.2],
          [0.2, 0.0, -0.1, 0.5]]


def _polar_specs(build, lo_hi):
    # the sphere boundary and the blow-up of a polar family, each with a zero
    # row for the sphere projection's fallback direction
    def case(attr):
        spec = getattr(build(), attr)
        return spec, lo_hi, None, np.zeros((1, spec.dim))
    return {"sphere": lambda: case("boundary"), "blowup": lambda: case("blowup")}


def _lorenz_blowup(alpha0):
    # a zero row, and angles where the fold onto [-pi, pi] ties
    spec = make_lorenz(0.7, 1.5, 1.3, alpha0).blowup
    edge = [[0.0, 0.0, 0.0]] + [[th, 0.5, 1.0] for th in (math.pi, -math.pi, 3 * math.pi,
                                                           -3 * math.pi)]
    return spec, (-4.0, 4.0), None, np.array(edge)


CONTRACT_CASES = {
    "sis-one-regime": lambda: (make_sis(FULL5, beta=0.3, delta=1.0).model, (-0.2, 1.2)),
    "sis-two-regime-shared": lambda: (make_sis(FULL5, beta=[0.2, 0.5], delta=[1.2, 0.8],
                                               Q=Q2).model, (-0.2, 1.2)),
    "sis-two-regime": lambda: (make_sis([FULL5, RING5], beta=[0.2, 0.5], delta=[1.2, 0.8],
                                        Q=Q2).model, (-0.2, 1.2)),
    "linear-noisy": lambda: (make_linear_sde(LINEAR4, SIGMA4).model, (-2.0, 2.0)),
    "lorenz-noisy": lambda: (make_lorenz(0.7, 1.5, 1.3, 0.4).model, (-4.0, 4.0)),
    "lorenz-cylinder-noisy": lambda: (make_lorenz(0.7, 1.5, 1.3, 0.05).boundary, (-4.0, 4.0)),
    "lorenz-cylinder": lambda: (make_lorenz(0.7, 1.5, 1.3, 0.0).boundary, (-4.0, 4.0)),
    "logistic-noisy": lambda: (make_logistic(0.1, 0.8).model, (-0.5, 2.0)),
    "lorenz-cylinder-lanes": _cylinder_lanes,
    "lorenz-blowup-noisy": lambda: _lorenz_blowup(0.05),
    "lorenz-blowup": lambda: _lorenz_blowup(0.0),
}
CONTRACT_CASES.update({f"{name}-{kind}": case for name, build, lo_hi in (
    ("sis-one-regime", lambda: make_sis(FULL5, beta=0.3, delta=1.0), (-0.2, 1.2)),
    ("sis-two-regime", lambda: make_sis([FULL5, RING5], beta=[0.2, 0.5], delta=[1.2, 0.8],
                                        Q=Q2), (-0.2, 1.2)),
    ("linear-noisy", lambda: make_linear_sde(LINEAR4, SIGMA4), (-2.0, 2.0)),
    ("linear", lambda: make_linear_sde(LINEAR4), (-2.0, 2.0)),
) for kind, case in _polar_specs(build, lo_hi).items()})


def _assert_stacked_rows(model, lo, hi, row_models=None, edge=()):
    """Each diffusion callback of ``model`` on a block of 40 random rows in
    [lo, hi) and the ``edge`` rows gives, bit for bit, the stacked values of
    ``row_models[i]`` (default ``model``) at row i."""
    gen = np.random.default_rng(31)
    x = gen.uniform(lo, hi, size=(40, model.dim))
    s = gen.integers(model.n_regimes, size=40) if model.n_regimes > 1 else None
    if len(edge):
        x = np.vstack([x, edge])
        if s is not None:
            s = np.concatenate([s, gen.integers(model.n_regimes, size=len(edge))])
    row_models = row_models or [model] * len(x)
    names = [n for n in ("drift", "diffusion", "diffusion_diag", "domain_projection",
                         "extinction_distance") if getattr(model, n) is not None]
    # a noise-free row model steps as a zero noise column
    zero = lambda u, s=None: np.zeros((model.dim, model.noise_dim))
    for name in names:
        f = getattr(model, name)
        rows = np.stack([np.asarray((getattr(m, name) or zero)(
            x[i], None if s is None else int(s[i])), dtype=float)
            for i, m in enumerate(row_models)])
        block = np.broadcast_to(np.asarray(f(x, s), dtype=float), rows.shape)
        assert _bits(block.ravel()) == _bits(rows.ravel()), (model.name, name)
    if model.coefficients is not None:
        # the fused callback is (drift, diffusion_diag) bit for bit: on the
        # block with its regimes and with each int regime, and on every row
        forms = [(x, s)] + [(x, j) for j in range(model.n_regimes)] + [
            (x[i], None if s is None else int(s[i])) for i in range(len(x))]
        for u, r in forms:
            f, g = model.coefficients(u, r)
            assert _bits(f) == _bits(model.drift(u, r)), (model.name, "coefficients", r)
            assert _bits(g) == _bits(model.diffusion_diag(u, r)), (model.name, "coefficients", r)


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_diffusion_callbacks_give_the_stacked_rows_bit_for_bit(case):
    # the lockstep engine steps replicas as one block; it equals simulate()
    # only if each callback's block value is its per-row values, bit for bit
    model, (lo, hi), *rest = CONTRACT_CASES[case]()
    _assert_stacked_rows(model, lo, hi, *rest)


REGISTERED_PARAMS = {
    "sis": {"adjacency": RING5, "beta": [0.2, 0.5], "delta": [1.2, 0.8], "Q": Q2},
    "lorenz": {"alpha0": 0.05},
    "linear": {"A": [[-1.0, 0.7], [-0.4, -2.0]], "Sigma": [[0.3, 0.2], [-0.1, 0.4]]},
    "eco-discrete": {"r": -0.3, "sigma": 0.2, "inner_mc": 100},
    "kolmogorov": {"r": 0.1, "sigma": 0.8},
}


def test_every_registered_diffusion_spec_steps_blocks_bit_for_bit():
    # simulate_lanes steps every diffusion as blocks, so no family may ship
    # a spec whose callbacks take one state only
    from extinctd.process_core import make_bundle, registered_models

    assert sorted(REGISTERED_PARAMS) == registered_models()
    checked = fused = 0
    for name in registered_models():
        bundle = make_bundle(name, REGISTERED_PARAMS[name])
        for spec in (bundle.model, bundle.boundary, bundle.blowup):
            if spec is not None and spec.family != "discrete_chain":
                _assert_stacked_rows(spec, -0.5, 1.5, edge=np.zeros((1, spec.dim)))
                checked += 1
                fused += spec.coefficients is not None
    assert checked == 11  # sis, linear, lorenz 3 each; kolmogorov's boundary is its model
    assert fused == 1  # the SIS model


def test_model_spec_takes_coefficients_only_beside_diffusion_diag():
    dist = lambda x, s=None: np.abs(x[..., 0])
    both = lambda x, s=None: (-x, 0.1 * x)
    ModelSpec(family="sde", dim=1, noise_dim=1, drift=lambda x, s=None: -x,
              diffusion_diag=lambda x, s=None: 0.1 * x, coefficients=both,
              extinction_distance=dist)
    with pytest.raises(MissingField, match="diffusion_diag"):
        ModelSpec(family="sde", dim=1, noise_dim=1, drift=lambda x, s=None: -x,
                  diffusion=lambda x, s=None: 0.1 * x[..., None], coefficients=both,
                  extinction_distance=dist)
    for diag in (None, lambda x, s=None: 0.1 * x):
        with pytest.raises(MissingField, match="coefficients"):
            ModelSpec(family="discrete_chain", dim=1, step_map=lambda x, xi: x * xi,
                      noise_sampler=lambda gen, size=None: gen.uniform(size=size),
                      diffusion_diag=diag, coefficients=both, extinction_distance=dist)
    with pytest.raises(MissingField, match="diffusion_diag"):
        ModelSpec(family="discrete_chain", dim=1, step_map=lambda x, xi: x * xi,
                  noise_sampler=lambda gen, size=None: gen.uniform(size=size),
                  diffusion_diag=lambda x, s=None: 0.1 * x, extinction_distance=dist)


def test_model_spec_fills_diffusion_from_additive_noise():
    dist = lambda x, s=None: np.abs(x[..., 0])
    sde = dict(family="sde", dim=2, noise_dim=1, drift=lambda x, s=None: -x,
               extinction_distance=dist)
    for shape in ((2, 1), (5, 2, 1)):
        G = np.zeros(shape)
        spec = ModelSpec(**sde, additive_noise=G)
        assert spec.diffusion(np.ones(2)) is G and spec.diffusion(np.ones((5, 2)), 0) is G
        assert spec == dataclasses.replace(spec) and hash(spec) == hash(dataclasses.replace(spec))
        plain = dataclasses.replace(spec, additive_noise=None)  # keeps the diffusion that returns G
        assert plain.additive_noise is None and plain.diffusion(np.ones(2)) is G
    with pytest.raises(MissingField, match="not both"):
        ModelSpec(**sde, diffusion=lambda x, s=None: G, additive_noise=G)
    with pytest.raises(MissingField, match="not both"):  # the diffusion of another G
        dataclasses.replace(spec, additive_noise=np.zeros((5, 2, 1)))
    for noise in ({}, {"diffusion": lambda x, s=None: G}):
        with pytest.raises(MissingField, match="diffusion_diag"):
            ModelSpec(**dict(sde, noise_dim=2), **noise, additive_noise=np.zeros((2, 2)),
                      diffusion_diag=lambda x, s=None: 0.3 * x)
    with pytest.raises(MissingField, match="additive_noise"):
        ModelSpec(family="discrete_chain", dim=1, step_map=lambda x, xi: x * xi,
                  noise_sampler=lambda gen, size=None: gen.uniform(size=size),
                  additive_noise=np.zeros((1, 0)), extinction_distance=dist)
    for shape in ((1, 2), (2, 2), (2,), (5, 1, 2), (5, 3, 1)):
        with pytest.raises(DimensionMismatch, match="additive_noise"):
            ModelSpec(**sde, additive_noise=np.zeros(shape))


def test_sis_steps_its_paths_bit_for_bit_with_or_without_the_fused_callback():
    bundle = make_sis([FULL5, RING5], beta=[0.2, 0.5], delta=[1.2, 0.8], Q=Q2)
    split = dataclasses.replace(bundle.model, coefficients=None)
    cfg = SimConfig(dt=0.01, t_final=3.0)
    reps = replica_streams([bundle.default_ic], 3, 11)
    paths = [simulate_lanes(m, reps, cfg) + [simulate(m, bundle.default_ic, cfg, RngStream(4))]
             for m in (bundle.model, split)]
    assert sum(len(p.jumps) for p in paths[0]) > 0  # the jump steps are exercised
    for fused, plain in zip(*paths):
        assert _bits(fused.times) == _bits(plain.times)
        assert _bits(fused.states.ravel()) == _bits(plain.states.ravel())
        assert fused.regimes.tolist() == plain.regimes.tolist()


def test_lorenz_blowup_projection_folds_the_angle_as_math_remainder():
    project = make_lorenz(0.7, 1.5, 1.3, 0.0).blowup.domain_projection
    p = 2.0 * math.pi
    th = np.concatenate([np.random.default_rng(9).uniform(-60.0, 60.0, 5000),
                         [k * math.pi for k in range(-9, 10)],
                         [p * (k + 0.5) for k in range(-9, 9)], [-0.0, 5e-324, 1e300]])
    r = np.resize([-0.5, -0.0, 0.7], th.shape)
    u = np.stack([th, r, np.ones_like(th)], axis=-1)
    want = [[math.remainder(t, p), max(q, 0.0), 1.0] for t, q in zip(th.tolist(), r.tolist())]
    assert _bits(project(u)) == _bits(want)
    assert project(np.array([3 * math.pi, 0.5, 1.0]))[0] == -math.pi
    assert project(np.array([-3 * math.pi, 0.5, 1.0]))[0] == math.pi
