"""extinctd benchmark: one workload per invocation, through the public CLI API.

    python3 perfbench/run.py --workload sis-slope --seed 1 --seconds 25 --trace 0

Each workload's config comes from ``--seed`` (see workloads.py).  Every run
goes through ``extinctd.cli.config_from_dict`` and ``run_experiment``; its
outputs are checked on the first run and must be byte-identical on every
later one.

With ``--trace 0`` the end-to-end metrics are measured, tracing off:

- ``run_s``: median wall time of one ``run_experiment`` call (bundle build,
  simulation, reductions, report.json and CSVs written);
- ``setup_s``: median wall time of ``config_from_dict`` plus ``make_bundle``,
  in this process, after numpy and extinctd are imported;
- ``peak_rss_mb``: high-water RSS of a child process that imports extinctd
  and runs the workload once, and nothing else.

With ``--trace 1`` untraced and traced runs alternate and the per-layer
metrics come from spans around each module's entry points (spans.py); the
spans are written to ``.perfbench_out/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import ROOT as ROOT_SPAN, Tracer, layer_metrics
from workloads import WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_SHARE = 0.25  # of --seconds spent on repeated set-ups
MIN_SAMPLES = 5  # runs, whatever --seconds says
MAX_SETUPS = 200  # per run


def load_extinctd():
    """Import extinctd from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "extinctd" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no extinctd sources under {src}")
    sys.path.insert(0, str(src))
    import extinctd.cli

    if not Path(extinctd.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: imported extinctd from {extinctd.__file__}")
    return extinctd.cli


class Operations:
    """Counts attempted and failed operations; a failure is an exception or a
    failed output check."""

    def __init__(self, workload, raw: dict, out_dir: Path):
        self.workload, self.raw, self.out_dir = workload, raw, out_dir
        self.attempted = self.failed = 0
        self.correct = True
        self.reference = None  # output bytes of the first checked run

    def attempt(self, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:
            self.failed += 1
            if isinstance(exc, CheckFailed):
                self.correct = False
                print(f"check failed: {exc}", file=sys.stderr)
            else:
                traceback.print_exc(file=sys.stderr)
            return None

    def check(self, directory: Path):
        files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
        if self.reference is None:
            self.workload.check(self.raw, str(directory))
            self.reference = files
        elif files != self.reference:
            raise CheckFailed(f"outputs in {directory} differ from the first run's")


def timed_run(cli, ops: Operations, before=None, after=None):
    """One checked run_experiment call; returns its wall time, None on failure."""

    def one():
        shutil.rmtree(ops.out_dir, ignore_errors=True)
        cfg = cli.config_from_dict(ops.raw)
        gc.collect()
        if before:
            before()
        t0 = time.perf_counter()
        try:
            cli.run_experiment(cfg, threads=ops.workload.threads)
        finally:
            elapsed = time.perf_counter() - t0
            if after:
                after()
        ops.check(ops.out_dir)
        return elapsed

    return ops.attempt(one)


def peak_rss_child(args, ops: Operations) -> float:
    """High-water RSS (MiB) of a fresh process that runs the workload once."""
    child_out = ops.out_dir.with_name(ops.out_dir.name + "-rss")

    def one():
        proc = subprocess.Popen([sys.executable, str(HERE / "run.py"), "--workload",
                                 args.workload, "--seed", str(args.seed),
                                 "--rss-child", str(child_out)])
        # wait4 returns the child's own rusage, which Popen.wait discards
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"rss child exited with {proc.returncode}")
        ops.workload.check(ops.workload.config(args.seed, str(child_out)), str(child_out))
        return usage.ru_maxrss / 1024.0  # KiB on Linux

    try:
        return ops.attempt(one)
    finally:
        shutil.rmtree(child_out, ignore_errors=True)


def measure(cli, args, ops: Operations) -> dict:
    from extinctd.process_core import make_bundle

    def setup():
        t0 = time.perf_counter()
        cfg = cli.config_from_dict(ops.raw)
        make_bundle(cfg.model_name, cfg.model_params)
        return time.perf_counter() - t0

    # set-ups are interleaved with the runs so that both sample the whole
    # window: the machine's speed drifts over seconds
    start = time.perf_counter()
    rss = peak_rss_child(args, ops)
    runs, setups = [], []
    while len(runs) < MIN_SAMPLES or time.perf_counter() - start < args.seconds:
        runs.append(timed_run(cli, ops))
        until = time.perf_counter() + SETUP_SHARE / (1.0 - SETUP_SHARE) * (runs[-1] or 0.0)
        while True:
            setups.append(ops.attempt(setup))
            if time.perf_counter() >= until or len(setups) >= MAX_SETUPS * len(runs):
                break
    samples = {"run_s": (runs, "s"), "setup_s": (setups, "s"), "peak_rss_mb": ([rss], "MiB")}
    metrics = {}
    for name, (values, unit) in samples.items():
        values = [v for v in values if v is not None]
        if values:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            spread = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
            print(f"{name:12s} median {metrics[name]['value']:.6g} {unit}  "
                  f"q1 {spread[0]:.6g}  q3 {spread[2]:.6g}  n={len(values)}")
    return metrics


def measure_traced(cli, args, ops: Operations) -> dict:
    tracer = Tracer()
    state = {}

    def before():
        state["missing"] = tracer.install()
        state["root"] = tracer.open(ROOT_SPAN)

    def after():
        tracer.close(state["root"])
        tracer.uninstall()

    plain, traced = [], []
    start = time.perf_counter()
    tried = 0
    while tried < MIN_SAMPLES or time.perf_counter() - start < args.seconds:
        tried += 1
        plain.append(timed_run(cli, ops))
        traced.append(timed_run(cli, ops, before, after))
    plain = [v for v in plain if v is not None]
    traced = [v for v in traced if v is not None]
    missing = state.get("missing", {})
    for target in missing.values():
        print(f"wrap target missing: {target}", file=sys.stderr)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit)
               in layer_metrics(tracer.spans, tried, tuple(missing)).items()}
    if plain and traced:
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(plain), "unit": "s"}
    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    trace_file = OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "traced_runs": tried,
        "spans": [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                   **s.counts} for s in tracer.spans]}))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"spans written to {trace_file}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-child", metavar="OUT_DIR",
                        help="run the workload once into OUT_DIR and exit (internal)")
    args = parser.parse_args(argv)

    cli = load_extinctd()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.rss_child:
        cli.run_experiment(cli.config_from_dict(workload.config(args.seed, args.rss_child)),
                           threads=workload.threads)
        return 0

    out_dir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    ops = Operations(workload, workload.config(args.seed, str(out_dir)), out_dir)
    try:
        run = measure_traced if args.trace else measure
        metrics = run(cli, args, ops)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({"correct": ops.correct, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
