"""Config-driven experiment runner.

Configs are JSON records (see README for the schema); unknown keys and
non-finite numbers in ``sim`` or ``model.params`` are hard errors, and the
seed is mandatory so every report is reproducible.  Output floats have 17
significant digits, so reruns give the same bytes; every CSV comes from
``_csv_text``, which takes one array per column.  Replicas run in one thread.

The simulate and diagnostics runners, ``boundary_exponent`` and
``invasion_rate`` step their replicas as lanes of one block with
``integrators.simulate_lanes`` (``simulate``'s paths bit for bit).  With
the bundle's ``boundary_lanes`` (Lorenz), ``robustness_scan`` steps every
scan value's replicas as lanes of one block.  The slope runner still calls
``simulate`` per replica through ``_map_indexed``, as perfbench's tracer
counts those calls.

Experiments: simulate, boundary-exponent, slope, criterion, robustness-scan,
diagnostics.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .criteria import invasion_rate, weighted_invasion_criterion
from .errors import (ExtinctdError, MissingField, NonFiniteParameter, ParseError, UnknownKey,
                     UnknownModel)
from .exponents import (_distinct_replicas, _estimate, boundary_exponent, robustness_scan,
                        trajectory_slope)
from .integrators import SimConfig, simulate, simulate_lanes
from .lyapunov import (dynkin_residual, qv_residual, strong_law_check, suite_diagnostics,
                       tightness_check)
from .process_core import StateVector, make_bundle, registered_models, replica_streams

EXPERIMENTS = ("simulate", "boundary-exponent", "slope", "criterion",
               "robustness-scan", "diagnostics")

_TOP_KEYS = {"model", "experiment", "sim", "replicas", "seed", "ics",
             "output", "options"}
_MODEL_KEYS = {"name", "params"}
_SIM_KEYS = {"dt", "t_final", "max_rate_bound", "floor_epsilon"}
_OPTION_KEYS = {"window", "burn_in", "scan_parameter", "scan_values",
                "gap_tol", "tail_fraction", "slack", "diag_radius", "diag_points"}


@dataclass
class ExperimentConfig:
    model_name: str
    experiment: str
    sim: dict
    seed: int
    output: str
    model_params: dict = field(default_factory=dict)
    replicas: int = 1
    ics: Optional[list] = None  # list of {"x": [...], "regime": int|None}
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.replicas < 1:
            raise MissingField("replicas must be >= 1")

    def sim_config(self) -> SimConfig:
        return SimConfig(**self.sim)

    def state_vectors(self, fallback: Optional[StateVector]) -> list:
        if self.ics is None:
            if fallback is None:
                raise MissingField("config has no ics and the model supplies no default")
            return [fallback]
        return [StateVector(np.asarray(e["x"], dtype=float), e["regime"])
                for e in self.ics]


def _require_keys(mapping, allowed, context):
    unknown = set(mapping) - allowed
    if unknown:
        raise UnknownKey(f"unknown {context} key(s): {sorted(unknown)}")


def _nonfinite(value) -> bool:
    """True if a float leaf of a JSON value (nested lists) is NaN or infinite."""
    if isinstance(value, float):
        return not math.isfinite(value)
    return isinstance(value, list) and any(map(_nonfinite, value))


def _normalize_ics(raw) -> list:
    out = []
    for entry in raw:
        if isinstance(entry, dict):
            _require_keys(entry, {"x", "regime"}, "ic")
            if "x" not in entry:
                raise MissingField("ic entry requires 'x'")
            out.append({"x": [float(v) for v in entry["x"]],
                        "regime": None if entry.get("regime") is None else int(entry["regime"])})
        else:
            out.append({"x": [float(v) for v in entry], "regime": None})
    return out


def config_from_dict(raw: dict) -> ExperimentConfig:
    _require_keys(raw, _TOP_KEYS, "config")
    for key in ("model", "experiment", "sim", "seed", "output"):
        if key not in raw:
            raise MissingField(f"config requires {key!r}")
    model = raw["model"]
    _require_keys(model, _MODEL_KEYS, "model")
    if "name" not in model:
        raise MissingField("model section requires 'name'")
    if model["name"] not in registered_models():
        raise UnknownModel(f"unknown model {model['name']!r}; known: {registered_models()}")
    if raw["experiment"] not in EXPERIMENTS:
        raise UnknownModel(f"unknown experiment {raw['experiment']!r}; known: {EXPERIMENTS}")
    sim = dict(raw["sim"])
    _require_keys(sim, _SIM_KEYS, "sim")
    options = dict(raw.get("options", {}))
    _require_keys(options, _OPTION_KEYS, "options")
    ics = raw.get("ics")
    cfg = ExperimentConfig(
        model_name=model["name"],
        model_params=dict(model.get("params", {})),
        experiment=raw["experiment"],
        sim=sim,
        replicas=int(raw.get("replicas", 1)),
        seed=int(raw["seed"]),
        ics=None if ics is None else _normalize_ics(ics),
        output=str(raw["output"]),
        options=options,
    )
    for name, value in cfg.model_params.items():
        if _nonfinite(value):
            raise NonFiniteParameter(f"model parameter {name!r} is not finite: {value!r}")
    if _nonfinite(options.get("scan_values")):  # each becomes the scanned parameter's value
        raise NonFiniteParameter(f"scan values of model parameter {options.get('scan_parameter')!r}"
                                 f" are not all finite: {options['scan_values']!r}")
    cfg.sim_config()  # validate eagerly
    return cfg


def parse_config(path: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment config file."""
    with open(path) as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    return config_from_dict(raw)


def emit_config(cfg: ExperimentConfig) -> dict:
    """Canonical dict form; parse(emit(cfg)) reproduces cfg exactly."""
    return {
        "model": {"name": cfg.model_name, "params": cfg.model_params},
        "experiment": cfg.experiment,
        "sim": cfg.sim,
        "replicas": cfg.replicas,
        "seed": cfg.seed,
        "ics": cfg.ics,
        "output": cfg.output,
        "options": cfg.options,
    }


# -- deterministic serialization ----------------------------------------------

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(float(x), ".17g")


def dumps_report(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{key}": {dumps_report(obj[key], indent + 1)}' for key in sorted(obj)]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {dumps_report(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_text(directory: str, name: str, text: str):
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, os.path.join(directory, name))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header, columns) -> str:
    """The one CSV writer: one array or sequence per column, one dtype each,
    formatted through one row template of ``%.17g`` (``_fmt_float``'s bytes)
    for floats, ``%d`` for integers and ``%s`` for the rest."""
    cols = [np.asarray(c) for c in columns]
    for c in cols:
        if c.dtype.kind == "f" and not np.isfinite(c).all():
            raise ValueError(f"cannot serialize non-finite value {c[~np.isfinite(c)][0].item()!r}")
    template = ",".join({"f": "%.17g", "i": "%d", "u": "%d"}.get(c.dtype.kind, "%s") for c in cols)
    rows = map(template.__mod__, zip(*[c.tolist() for c in cols]))
    return "\n".join([",".join(header), *rows]) + "\n"


def _map_indexed(fn, count: int, threads: int) -> list:
    """Serial replica fan-out, ordered by index, for the slope runner; ``threads``
    is ignored, as the replica work holds the GIL and a thread pool ran slower."""
    return [fn(i) for i in range(count)]


# -- experiment implementations ------------------------------------------------

def _run_simulate(cfg, bundle):
    sim = cfg.sim_config()
    replicas = replica_streams(cfg.state_vectors(bundle.default_ic), cfg.replicas, cfg.seed)
    blocks, summary = [], []
    for (rid, _, _), traj in zip(replicas, simulate_lanes(bundle.model, replicas, sim)):
        n = len(traj.times)
        regimes = np.full(n, -1) if traj.regimes is None else traj.regimes
        blocks.append([np.full(n, rid), traj.times, *traj.states.T, regimes])
        summary.append({
            "replica_id": rid,
            "duration": traj.duration,
            "final_distance": float(bundle.model.extinction_distance(
                traj.states[-1], None if traj.regimes is None else int(traj.regimes[-1]))),
            "n_points": n,
            "n_jumps": int(traj.jumps.size),
        })
    header = ["replica_id", "t"] + [f"x_{d}" for d in range(bundle.model.dim)] + ["regime"]
    files = {"trajectories.csv": _csv_text(header, map(np.concatenate, zip(*blocks)))}
    return {"replicas": summary}, files


def _exponents_csv(labelled) -> str:
    """exponents.csv, one row per (label, estimate), passed to the writer as columns."""
    rows = [(label, e.method, e.point, e.ci_low, e.ci_high) for label, e in labelled]
    return _csv_text(["label", "method", "point", "ci_low", "ci_high"], zip(*rows))


def _run_boundary_exponent(cfg, bundle):
    sim = cfg.sim_config()
    ics = cfg.state_vectors(bundle.boundary_ic)
    burn = cfg.options.get("burn_in")
    est = boundary_exponent(bundle.boundary, bundle.boundary_H, ics, sim,
                            cfg.replicas, seed=cfg.seed, burn_in=burn)
    files = {"exponents.csv": _exponents_csv([(bundle.name, est)])}
    return {"estimate": est.to_dict()}, files


def _run_slope(cfg, bundle):
    sim = cfg.sim_config()
    ics = cfg.state_vectors(bundle.default_ic)
    runs = _distinct_replicas(bundle.model, ics, cfg.replicas, cfg.seed)
    window = float(cfg.options.get("window", 0.5))

    def one(j):
        _, ic, rng = runs[j]
        return trajectory_slope(simulate(bundle.model, ic, sim, rng), bundle.suite.V, window).point

    # row k is replica k; a noise-free path stands for each of its ic's replicas
    slopes = np.repeat(_map_indexed(one, len(runs), 1), len(ics) * cfg.replicas // len(runs))
    est = _estimate(slopes, sim.t_final, "trajectory_slope")
    report = {
        "slope": est.point, "ci_low": est.ci_low, "ci_high": est.ci_high,
        "n_replicas": est.n_replicas,
        "alpha_candidate": bundle.suite.alpha_candidate,
    }
    # one replica's estimate is its slope, with a zero-width CI
    labelled = [(f"replica_{k}", _estimate([s], sim.t_final, "trajectory_slope"))
                for k, s in enumerate(slopes)]
    files = {"exponents.csv": _exponents_csv(labelled + [("mean", est)])}
    return report, files


def _run_criterion(cfg, bundle):
    sim = cfg.sim_config()
    ics = cfg.state_vectors(bundle.boundary_ic)
    burn = cfg.options.get("burn_in")
    if bundle.species_H is not None:
        rates = [invasion_rate(bundle.boundary, i, bundle.species_H(i), ics,
                               sim, cfg.replicas, seed=cfg.seed, burn_in=burn)
                 for i in range(bundle.model.dim)]
        value, extinct = weighted_invasion_criterion(np.ones(len(rates)), rates)
        return {"index": -value, "extinct": extinct,
                "invasion_rates": [r.to_dict() for r in rates]}, {}
    # a closed-form candidate in the suite, else the boundary's H average
    index = bundle.suite.alpha_candidate
    if index is None:
        est = boundary_exponent(bundle.boundary, bundle.boundary_H, ics, sim,
                                cfg.replicas, seed=cfg.seed, burn_in=burn)
        return {"index": est.point, "extinct": est.ci_low > 0.0,
                "estimate": est.to_dict()}, {}
    return {"index": float(index), "extinct": bool(index > 0.0)}, {}


def _run_scan(cfg, bundle):
    sim = cfg.sim_config()
    param = cfg.options.get("scan_parameter")
    values = cfg.options.get("scan_values")
    if not param or values is None:
        raise MissingField("robustness-scan requires options.scan_parameter and options.scan_values")
    ics = cfg.state_vectors(bundle.boundary_ic)

    def family(theta):
        b = make_bundle(cfg.model_name, {**cfg.model_params, param: theta})
        return b.boundary, b.boundary_H

    lanes = None
    if bundle.boundary_lanes is not None:
        lanes = functools.partial(bundle.boundary_lanes, param)
    report = robustness_scan(family, values, ics, sim, cfg.replicas,
                             seed=cfg.seed, burn_in=cfg.options.get("burn_in"),
                             gap_tol=float(cfg.options.get("gap_tol", 0.0)), lanes=lanes)
    files = {"exponents.csv": _exponents_csv(
        [(f"{param}={theta}", est) for theta, est in report.entries])}
    out = {
        "parameter": param,
        "estimates": [{"theta": float(t), **e.to_dict()} for t, e in report.entries],
        "max_adjacent_gap": report.max_adjacent_gap,
        "monotone_envelope_ok": report.monotone_envelope_ok,
    }
    return out, files


def _run_diagnostics(cfg, bundle):
    sim = cfg.sim_config()
    suite = bundle.suite
    ics = cfg.state_vectors(bundle.default_ic)
    radius = float(cfg.options.get("diag_radius", 0.2))
    n_points = int(cfg.options.get("diag_points", 32))
    gen = np.random.default_rng(cfg.seed)
    points = []
    for _ in range(n_points):
        base = ics[len(points) % len(ics)]
        points.append(StateVector(base.x + gen.uniform(-radius, radius, base.dim),
                                  base.regime))
    points = [p for p in points
              if float(bundle.model.extinction_distance(p.x, p.regime)) > 10 * sim.floor_epsilon]
    if not points:
        raise MissingField("diagnostics found no sample points away from the "
                           "extinction set; supply interior ics")
    suite_rep = suite_diagnostics(bundle.model, suite, points)

    trajs = simulate_lanes(bundle.model, replica_streams(ics[:1], cfg.replicas, cfg.seed), sim)
    tight = tightness_check(trajs[0], suite, slack=float(cfg.options.get("slack", 0.0)),
                            tail_fraction=float(cfg.options.get("tail_fraction", 0.25)))
    blocks = [[np.full(len(traj.times), rid), traj.times,
               dynkin_residual(traj, suite.V, suite.H),
               qv_residual(traj, suite.V, suite.H, suite.gammaV)]
              for rid, traj in enumerate(trajs)]
    report = {
        "suite": {"violations": suite_rep.violations, "passed": suite_rep.passed,
                  "tolerance": suite_rep.tolerance},
        "tightness": {"k": tight.k, "tail_average": tight.tail_average,
                      "passed": tight.passed},
        "n_sample_points": len(points),
    }
    if cfg.replicas >= 30:
        law = strong_law_check(trajs, suite.V, suite.H)
        report["strong_law"] = {"max_half": law.max_half, "max_full": law.max_full,
                                "ratio": law.ratio, "shrinking": law.shrinking}
    files = {"residuals.csv": _csv_text(["replica_id", "t", "dynkin", "qv"],
                                        map(np.concatenate, zip(*blocks)))}
    return report, files


_RUNNERS = {
    "simulate": _run_simulate,
    "boundary-exponent": _run_boundary_exponent,
    "slope": _run_slope,
    "criterion": _run_criterion,
    "robustness-scan": _run_scan,
    "diagnostics": _run_diagnostics,
}


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> dict:
    """Run the configured experiment and write report.json plus CSVs.

    All outputs are buffered and written atomically at the end; identical
    config and seed produce byte-identical report.json.  ``threads`` is
    accepted and ignored, for callers that still pass it: replicas run in
    one thread, and the command line has no thread option.
    """
    bundle = make_bundle(cfg.model_name, cfg.model_params)
    report_body, files = _RUNNERS[cfg.experiment](cfg, bundle)
    report = {"config": emit_config(cfg), "experiment": cfg.experiment,
              "model": cfg.model_name, **report_body}
    os.makedirs(cfg.output, exist_ok=True)
    for name, text in files.items():
        _write_text(cfg.output, name, text)
    _write_text(cfg.output, "report.json", dumps_report(report) + "\n")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="extinctd",
                                     description="extinction-criteria experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--replicas", type=int, default=None)

    val_p = sub.add_parser("validate", help="validate a config without running")
    val_p.add_argument("config")

    sub.add_parser("list-models", help="list registered model names")

    args = parser.parse_args(argv)
    try:
        if args.command == "list-models":
            for name in registered_models():
                print(name)
            return 0
        cfg = parse_config(args.config)
        if args.command == "validate":
            make_bundle(cfg.model_name, cfg.model_params)
            print(f"ok: {cfg.experiment} experiment on model {cfg.model_name!r}")
            return 0
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.output = args.out
        if args.replicas is not None:
            cfg = replace(cfg, replicas=args.replicas)
        run_experiment(cfg)
        print(os.path.join(cfg.output, "report.json"))
        return 0
    except (ExtinctdError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
