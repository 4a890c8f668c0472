"""State types, trajectories, the model abstraction, and reproducible randomness.

Observable convention used throughout the package: a state function is a
callable ``g(x, s)`` where ``x`` is an array of shape ``(dim,)`` or
``(n, dim)`` and ``s`` is the regime (``None``, an int, or an ``(n,)`` int
array).  Functions written with ``axis=-1`` reductions work in both shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidRateMatrix,
    MissingField,
    UnknownModel,
)

RATE_ROW_TOL = 1e-12

FAMILIES = ("sde", "switching_diffusion", "discrete_chain")


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream keyed by (seed, stream_id).

    Identical keys reproduce identical draw sequences across runs and across
    parallel schedules; distinct stream_ids give statistically independent
    streams (numpy SeedSequence spawning underneath).
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not (0 <= int(v) < 2**64):
                raise ValueError(f"{name} must be an unsigned 64-bit integer")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng([int(self.seed), int(self.stream_id)])


def replica_streams(ics, reps: int, seed: int) -> list:
    """The replica rule: (k, ic, stream) for k = i*reps + r in increasing k.

    Replica k starts from ``ics[k // reps]`` and draws from
    ``RngStream(seed, k)``, so every estimate made from the same ics, reps
    and seed sees the same paths.
    """
    return [(k, ics[k // reps], RngStream(seed, k)) for k in range(len(ics) * reps)]


def as_generator(rng) -> np.random.Generator:
    """Accept an RngStream or a numpy Generator and return a Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngStream):
        return rng.generator()
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


@dataclass(frozen=True)
class StateVector:
    """Continuous coordinates plus an optional finite-regime index."""

    x: np.ndarray
    regime: Optional[int] = None

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.x, dtype=float))
        if arr.ndim != 1:
            raise DimensionMismatch("state coordinates must be a flat vector")
        object.__setattr__(self, "x", arr)
        if self.regime is not None:
            r = int(self.regime)
            if r < 0:
                raise ValueError("regime index must be nonnegative")
            object.__setattr__(self, "regime", r)

    @property
    def dim(self) -> int:
        return self.x.shape[0]


@dataclass
class Trajectory:
    """Cadlag sample path on a time grid.

    ``times`` starts at 0 and is strictly increasing, ``states`` has one row
    per time, ``regimes`` is per-time regime indices (or None), and ``jumps``
    holds indices into ``times`` where the path jumped (regime switches, or
    chain steps for poissonized paths).
    """

    times: np.ndarray
    states: np.ndarray
    regimes: Optional[np.ndarray] = None
    jumps: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        self.jumps = np.asarray(self.jumps, dtype=np.int64)
        if self.states.ndim != 2 or self.states.shape[0] != self.times.shape[0]:
            raise DimensionMismatch("states must be (len(times), dim)")
        if self.times.shape[0] == 0 or self.times[0] != 0.0:
            raise ValueError("trajectory must start at t=0")
        if self.times.shape[0] > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        if self.jumps.size and (self.jumps.min() < 1 or self.jumps.max() >= len(self.times)):
            raise ValueError("jump indices out of range")
        if self.regimes is not None:
            self.regimes = np.asarray(self.regimes, dtype=np.int64)
            if self.regimes.shape != self.times.shape:
                raise DimensionMismatch("regimes must align with times")
            changed = np.flatnonzero(np.diff(self.regimes)) + 1
            if not np.isin(changed, self.jumps).all():
                raise ValueError("regime changed outside declared jump indices")

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    def state_at(self, i: int) -> StateVector:
        r = None if self.regimes is None else int(self.regimes[i])
        return StateVector(self.states[i].copy(), r)


def validate_rate_matrix(q, n_regimes=None) -> np.ndarray:
    """Check a CTMC generator: off-diagonal >= 0, rows sum to zero."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise InvalidRateMatrix("rate matrix must be square")
    if n_regimes is not None and q.shape[0] != n_regimes:
        raise InvalidRateMatrix(
            f"rate matrix is {q.shape[0]}x{q.shape[0]}, expected {n_regimes}"
        )
    off = q - np.diag(np.diag(q))
    if off.min(initial=0.0) < 0:
        raise InvalidRateMatrix("off-diagonal rates must be nonnegative")
    rows = np.abs(q.sum(axis=1))
    if rows.max(initial=0.0) > RATE_ROW_TOL * max(1.0, np.abs(q).max(initial=1.0)):
        raise InvalidRateMatrix(f"row sums must vanish, got max |sum| = {rows.max():.3g}")
    return q


def _identity_projection(x, s):
    return x


def _matvec(a, x):
    """a @ x for one vector, or for each row of a batch bit for bit: the
    stacked product keeps the matrix-vector kernel, where x @ a.T would take
    the matrix-matrix one and round differently."""
    return a @ x if x.ndim == 1 else np.matmul(a, x[..., None])[..., 0]


@dataclass(frozen=True)
class ModelSpec:
    """A simulatable Markov process family.

    Exactly the fields demanded by ``family`` must be present:
    SDEs need ``drift`` (plus ``diffusion``/``diffusion_diag`` when
    ``noise_dim > 0``), switching diffusions additionally ``switch_rates``
    and ``n_regimes``, discrete chains ``step_map`` and ``noise_sampler``.
    ``extinction_distance`` is the model-declared d(., M0); it vanishes
    exactly on the extinction set.

    ``batch_first`` declares that the callbacks of a diffusion (``drift``,
    ``diffusion``/``diffusion_diag``, ``domain_projection`` and
    ``extinction_distance``) take a block of states ``(n, dim)`` with
    regimes ``None``, an int or an ``(n,)`` int array, and return, bit for
    bit, the stacked per-row values.  ``integrators.simulate_lanes`` steps
    the replicas of such a model in lockstep blocks, and those of any other
    diffusion one at a time.  The main models of the SIS, linear, Lorenz and
    Kolmogorov bundles and the Lorenz cylinder declare it; the polar sphere
    and blow-up specs and the Lorenz blow-up take one state at a time.
    ``switch_rates`` always does.

    A discrete chain is always stepped in blocks, so its callbacks must
    take blocks: ``step_map(x, xi)`` takes one state with one draw, or a
    block ``(n, dim)`` with ``(n, ...)`` draws, and returns the stacked
    per-row values bit for bit, as ``domain_projection`` and
    ``extinction_distance`` (with regime ``None``) do.
    ``noise_sampler(gen)`` returns one draw; ``noise_sampler(gen, size)``
    returns ``size`` draws stacked on a leading axis, equal to ``size``
    single draws and leaving ``gen`` in the same state, as a numpy
    Generator's sized draws do.
    """

    family: str
    dim: int
    extinction_distance: Callable
    noise_dim: int = 0
    drift: Optional[Callable] = None
    diffusion: Optional[Callable] = None
    diffusion_diag: Optional[Callable] = None
    switch_rates: Optional[Callable] = None
    n_regimes: int = 1
    step_map: Optional[Callable] = None
    noise_sampler: Optional[Callable] = None
    domain_projection: Callable = _identity_projection
    name: str = ""
    batch_first: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnknownModel(f"unknown model family {self.family!r}")
        if self.dim < 1:
            raise DimensionMismatch("dim must be a positive integer")
        if self.family in ("sde", "switching_diffusion"):
            if self.drift is None:
                raise MissingField(f"{self.family} requires drift")
            if self.step_map is not None or self.noise_sampler is not None:
                raise MissingField("step_map/noise_sampler are chain-only fields")
            if self.noise_dim > 0 and self.diffusion is None and self.diffusion_diag is None:
                raise MissingField("noisy model requires diffusion or diffusion_diag")
            if self.diffusion_diag is not None and self.noise_dim != self.dim:
                raise DimensionMismatch("diagonal noise requires noise_dim == dim")
        if self.family == "switching_diffusion":
            if self.switch_rates is None:
                raise MissingField("switching_diffusion requires switch_rates")
            if self.n_regimes < 1:
                raise DimensionMismatch("n_regimes must be >= 1")
        elif self.switch_rates is not None:
            raise MissingField("switch_rates is only valid for switching diffusions")
        if self.family == "discrete_chain":
            if self.step_map is None or self.noise_sampler is None:
                raise MissingField("discrete_chain requires step_map and noise_sampler")
            if self.drift is not None or self.diffusion is not None:
                raise MissingField("drift/diffusion are diffusion-only fields")
            if self.batch_first:
                raise MissingField("batch_first is a diffusion-only field")


def distance_to_extinction(model: ModelSpec, state: StateVector) -> float:
    """d(x, M0) under the model's declared metric; 0 exactly on M0."""
    return float(model.extinction_distance(state.x, state.regime))


# -- named model registry (populated by extinctd.models) ---------------------

_MODEL_REGISTRY: dict[str, Callable] = {}


def register_model(name: str):
    def deco(builder):
        _MODEL_REGISTRY[name] = builder
        return builder
    return deco


def registered_models() -> list[str]:
    return sorted(_MODEL_REGISTRY)


def make_bundle(name: str, params: Optional[Mapping] = None):
    """Build a registered model bundle from JSON-able parameters."""
    if name not in _MODEL_REGISTRY:
        raise UnknownModel(f"no registered model named {name!r}; "
                           f"known: {registered_models()}")
    builder = _MODEL_REGISTRY[name]
    params = dict(params or {})
    import inspect

    sig = inspect.signature(builder)
    for pname, p in sig.parameters.items():
        if p.default is inspect.Parameter.empty and pname not in params:
            raise MissingField(f"model {name!r} requires parameter {pname!r}")
    for pname in params:
        if pname not in sig.parameters:
            raise MissingField(f"model {name!r} got unexpected parameter {pname!r}")
    return builder(**params)


def make_model(config: Mapping) -> ModelSpec:
    """Validated ModelSpec from a structured config record.

    The record names a registered family (``{"name": ..., "params": {...}}``)
    and supplies all required fields; invariants are checked eagerly.
    """
    if "name" not in config:
        raise MissingField("model config requires a 'name' entry")
    extra = set(config) - {"name", "params"}
    if extra:
        raise MissingField(f"unexpected model config keys: {sorted(extra)}")
    return make_bundle(config["name"], config.get("params")).model
