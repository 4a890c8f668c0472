import numpy as np
import pytest
from hypothesis import given, strategies as st

from extinctd.errors import (
    DimensionMismatch,
    InvalidRateMatrix,
    MissingField,
    UnknownModel,
)
from extinctd.integrators import SimConfig, simulate
from extinctd.process_core import (
    ModelSpec,
    RngStream,
    StateVector,
    Trajectory,
    distance_to_extinction,
    make_model,
    validate_rate_matrix,
)


def test_rng_stream_reproducible():
    a = RngStream(123, 7).generator().standard_normal(50)
    b = RngStream(123, 7).generator().standard_normal(50)
    assert np.array_equal(a, b)


def test_rng_streams_independent():
    a = RngStream(123, 0).generator().standard_normal(2000)
    b = RngStream(123, 1).generator().standard_normal(2000)
    assert not np.array_equal(a, b)
    # crude independence check: correlation near zero
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.08


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=0, max_value=2**64 - 1))
def test_rng_stream_accepts_u64(seed, stream):
    RngStream(seed, stream).generator()


def test_rng_stream_rejects_bad_seed():
    with pytest.raises(ValueError):
        RngStream(-1)


def test_state_vector_coerces_and_validates():
    sv = StateVector([1, 2, 3], regime=1)
    assert sv.x.dtype == float and sv.dim == 3 and sv.regime == 1
    with pytest.raises(ValueError):
        StateVector([1.0], regime=-2)
    with pytest.raises(DimensionMismatch):
        StateVector(np.zeros((2, 2)))


def test_trajectory_invariants():
    times = np.array([0.0, 1.0, 2.0])
    states = np.zeros((3, 1))
    Trajectory(times, states)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.5, 1.0]), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0, 1.0]), states)
    with pytest.raises(DimensionMismatch):
        Trajectory(times, np.zeros((2, 1)))
    # regime changed without a declared jump index
    with pytest.raises(ValueError):
        Trajectory(times, states, regimes=np.array([0, 1, 1]))
    tr = Trajectory(times, states, regimes=np.array([0, 1, 1]),
                    jumps=np.array([1]))
    assert tr.state_at(1).regime == 1


def test_make_model_sis_two_regimes():
    model = make_model({"name": "sis", "params": {
        "adjacency": [[0, 1], [1, 0]], "beta": [0.3, 0.4], "delta": [1.0, 1.0],
        "Q": [[-1.0, 1.0], [1.0, -1.0]]}})
    assert model.family == "switching_diffusion"
    assert model.n_regimes == 2


def test_make_model_rejects_bad_rate_matrix():
    with pytest.raises(InvalidRateMatrix):
        make_model({"name": "sis", "params": {
            "adjacency": [[0, 1], [1, 0]], "beta": [0.3, 0.4],
            "delta": [1.0, 1.0], "Q": [[-1.0, 1.1], [1.0, -1.0]]}})


def test_make_model_lorenz_config():
    model = make_model({"name": "lorenz", "params": {
        "gamma": 1.0, "z_star": 0.5, "eta": 1.0, "alpha0": 0.1}})
    assert model.family == "sde" and model.dim == 3


def test_make_model_errors():
    with pytest.raises(UnknownModel):
        make_model({"name": "nope"})
    with pytest.raises(MissingField):
        make_model({"name": "linear", "params": {}})
    with pytest.raises(MissingField):
        make_model({"name": "linear", "params": {"A": [[-1.0]], "bogus": 1}})
    with pytest.raises(MissingField):
        make_model({"params": {}})


def test_model_spec_field_validation():
    dist = lambda x, s=None: np.abs(np.asarray(x)[..., 0])
    with pytest.raises(DimensionMismatch):
        ModelSpec(family="sde", dim=0, extinction_distance=dist,
                  drift=lambda x, s: -x)
    with pytest.raises(MissingField):
        ModelSpec(family="sde", dim=1, extinction_distance=dist)
    with pytest.raises(MissingField):
        ModelSpec(family="switching_diffusion", dim=1, extinction_distance=dist,
                  drift=lambda x, s: -x)
    with pytest.raises(UnknownModel):
        ModelSpec(family="pde", dim=1, extinction_distance=dist)


@given(st.lists(st.floats(min_value=0.01, max_value=5.0),
                min_size=2, max_size=12))
def test_validate_rate_matrix_roundtrip(offdiag):
    # build a 2-regime generator from positive rates; always valid
    a, b = offdiag[0], offdiag[1]
    q = validate_rate_matrix([[-a, a], [b, -b]])
    assert q.shape == (2, 2)


def test_validate_rate_matrix_rejects():
    with pytest.raises(InvalidRateMatrix):
        validate_rate_matrix([[-1.0, 0.9], [1.0, -1.0]])
    with pytest.raises(InvalidRateMatrix):
        validate_rate_matrix([[1.0, -1.0], [1.0, -1.0]])


def test_distance_examples(sis_k2, lorenz_noisy):
    assert distance_to_extinction(sis_k2.model, StateVector(np.zeros(2))) == 0.0
    assert distance_to_extinction(
        lorenz_noisy.model, StateVector(np.array([0.0, 0.0, 5.0]))) == 0.0
    assert distance_to_extinction(
        lorenz_noisy.model, StateVector(np.array([3.0, 4.0, 0.0]))) == \
        pytest.approx(5.0)


def test_simulate_bit_identical(sis_k2):
    cfg = SimConfig(dt=1e-2, t_final=2.0, floor_epsilon=1e-12)
    x0 = StateVector(np.array([0.4, 0.5]))
    t1 = simulate(sis_k2.model, x0, cfg, RngStream(5, 3))
    t2 = simulate(sis_k2.model, x0, cfg, RngStream(5, 3))
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.times, t2.times)


def test_domain_closure_sis():
    from extinctd.models import make_sis

    b = make_sis([[0, 1], [1, 0]], beta=2.0, delta=0.2, sigma_scale=1.5)
    cfg = SimConfig(dt=5e-3, t_final=20.0, floor_epsilon=1e-12)
    traj = simulate(b.model, StateVector(np.array([0.9, 0.1])), cfg, RngStream(11))
    assert traj.states.min() >= 0.0 and traj.states.max() <= 1.0


def test_regime_validity(sis_switching):
    cfg = SimConfig(dt=1e-2, t_final=30.0, floor_epsilon=1e-12)
    traj = simulate(sis_switching.model, StateVector(np.array([0.4, 0.4]), 0),
                    cfg, RngStream(2))
    assert traj.regimes.min() >= 0 and traj.regimes.max() < 2
