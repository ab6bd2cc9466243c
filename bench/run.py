"""End-to-end and per-layer benchmark of the omfree command line.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Every operation is one call of ``omfree.cli.main([...])`` in a fresh
interpreter (``bench/worker.py``), so the module-level caches (the counts
cache in ``weil`` and the ``lru_cache``s) start cold, as they do for a user
of the ``omfree`` command.  The load is a closed loop with one client: one
operation at a time, beside which only numpy's own BLAS threads run.

Workloads:

* ``e7-certify``: ``certify E7 --wmax 30 --nq 5 --nxi 5``, all 10 E7
  generators.  Paramodular products and the rank dominate; lattice counting
  is light, and one count table serves 10 pullbacks.
* ``d8-pullback-sweep``: ``pullback D8 -k 8 --nq 14`` along 8 directions drawn
  from the seed.  Every direction is a new counts-cache key, so nothing is
  reused: a gain that comes only from reusing counts shows on ``e7-certify``
  and not here.  Only this workload depends on ``--seed``.
* ``d8-e14``: ``verify-e14 --nq 5 --nxi 5``, the weight-14 relation.  D8 bulk
  counting at qmax 25 dominates; one count table serves 8 pullbacks.  It is
  not listed in ``BENCHMARK.json``: one 25-45 s operation per run spread by
  up to a quarter of its median between runs on a shared 2-vCPU host (see
  ``bench/baseline.json``).  Run it by name to reproduce the relation and
  its layer split; list it again once an operation is short enough that a
  run holds several.

With ``--trace 0`` a run first times interpreter start plus ``import
omfree.cli`` in several bare probes, then repeats the workload's operations
until the next one would end after ``--seconds`` (at least one full pass),
checks every output, and reports the end-to-end metrics:

* ``wall_s``: median wall time of one operation, without interpreter start
  and import;
* ``setup_s``: median interpreter start plus ``import omfree.cli``, over the
  probes and the operations;
* ``peak_rss_mb``: largest peak RSS of a worker process.

With ``--trace 1`` a run makes one untraced pass and then one pass under the
outside-in span tracer (``bench/tracer.py``), and reports per-layer self
times and counts summed over that pass.  ``trace.overhead_s`` is the traced
``cli.main`` wall time minus the untraced wall time of the same operations.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it show each operation, the
failed ratio, CPU time and the run environment.  Python bytecode of
``src/omfree`` is cached in the checkout by an unmeasured warm-up probe,
as it is for an installed package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

from checks import check_certify_e7, check_pullback, check_verify_e14, quadratic_norm
from tracer import ROOT as ROOT_SPAN

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 11
RUN_LIMIT_S = 170.0

# D8 Gram matrix in the program's basis: chain 0-1-2-3-4-5 with node 5 joined to 6 and 7.
D8_GRAM = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, 0),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, -1),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, 0, 0, 0, -1, 0, 2),
)
SWEEP_COUNT, SWEEP_WEIGHT, SWEEP_NQ = 8, 8, 14
SWEEP_COORD, SWEEP_NORMS = 3, (12, 40)


@dataclass(frozen=True)
class Operation:
    label: str
    cli_args: List[str]
    check: Callable[[int, dict], None]


@dataclass(frozen=True)
class Workload:
    why: str
    operations: Callable[[int], List[Operation]]
    # Pullbacks that run no pairing_counts, out of all pullbacks, in one pass.
    counts_hits: int
    pullbacks: int


def sweep_directions(seed: int) -> List[tuple]:
    """Distinct nonzero D8 vectors, coordinates in [-3, 3], Q(v) in [12, 40]."""
    rng = random.Random(seed)
    found: List[tuple] = []
    while len(found) < SWEEP_COUNT:
        v = tuple(rng.randint(-SWEEP_COORD, SWEEP_COORD) for _ in range(len(D8_GRAM)))
        if any(v) and v not in found and SWEEP_NORMS[0] <= quadratic_norm(D8_GRAM, v) <= SWEEP_NORMS[1]:
            found.append(v)
    return found


def _sweep_operations(seed: int) -> List[Operation]:
    ops = []
    for v in sweep_directions(seed):
        text = ",".join(map(str, v))
        ops.append(
            Operation(
                f"pullback v=({text}) Q={quadratic_norm(D8_GRAM, v)}",
                ["pullback", "D8", "-k", str(SWEEP_WEIGHT), f"--vector={text}", "--nq", str(SWEEP_NQ), "--json"],
                lambda rc, payload, v=v: check_pullback(rc, payload, D8_GRAM, v, SWEEP_WEIGHT, SWEEP_NQ),
            )
        )
    return ops


WORKLOADS = {
    "d8-e14": Workload(
        "the paper's weight-14 relation; D8 bulk counting at qmax 25 dominates, one count table serves 8 pullbacks",
        lambda seed: [Operation("verify-e14 (5,5)", ["verify-e14", "--nq", "5", "--nxi", "5", "--json"], check_verify_e14)],
        counts_hits=7,
        pullbacks=8,
    ),
    "e7-certify": Workload(
        "all 10 E7 generators; paramodular products and the rank dominate, lattice counting is light",
        lambda seed: [
            Operation(
                "certify E7 w<=30 (5,5)",
                ["certify", "E7", "--wmax", "30", "--nq", "5", "--nxi", "5", "--json"],
                check_certify_e7,
            )
        ],
        counts_hits=9,
        pullbacks=10,
    ),
    "d8-pullback-sweep": Workload(
        "8 seeded D8 directions, each a new counts-cache key; counting at qmax 14 with no reuse",
        _sweep_operations,
        counts_hits=0,
        pullbacks=SWEEP_COUNT,
    ),
}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Outcome:
    setup_s: float
    record: Optional[dict]
    error: Optional[str]


class Runner:
    """Spawns workers with a shared deadline and the checkout's ``src`` on the path."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env.pop("PYTHONDONTWRITEBYTECODE", None)  # cache bytecode, as an installed package has it
        self.env = env

    def spawn(self, extra: List[str]) -> Outcome:
        cmd = [sys.executable, str(WORKER), "--src", str(SRC), *extra]
        t_spawn = _now()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - t_spawn),
            )
        except subprocess.TimeoutExpired:
            return Outcome(float("nan"), None, "timed out")
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            return Outcome(float("nan"), None, f"worker exited with {proc.returncode}: {' | '.join(tail)}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        return Outcome(record["t_ready"] - t_spawn, record, None)

    def probe(self) -> Outcome:
        return self.spawn(["--probe"])

    def operation(self, op: Operation, trace: bool) -> Outcome:
        out = self.spawn(["--trace", str(int(trace)), "--", *op.cli_args])
        if out.error is None:
            try:
                op.check(out.record["rc"], json.loads(out.record["output"]))
            except Exception as exc:  # any malformed or wrong output is a failed check
                out.error = f"check failed: {type(exc).__name__}: {exc}"
        return out


def _trace_checks(trace: dict) -> Optional[str]:
    total_self = sum(rec["self_s"] for rec in trace["per_name"].values())
    if trace["root_names"] != [ROOT_SPAN] or trace["per_name"][ROOT_SPAN]["calls"] != 1:
        return f"expected one {ROOT_SPAN} root span, got {trace['root_names']}"
    if trace["min_self_s"] < -1e-9 or abs(total_self - trace["root_wall_s"]) > 1e-6:
        return f"self times sum to {total_self!r}, not the {ROOT_SPAN} wall time {trace['root_wall_s']!r}"
    return None


def _per_layer(traces: List[dict], untraced_wall: float, untraced_cpu: float) -> dict:
    per_name: dict = {}
    for trace in traces:
        for name, rec in trace["per_name"].items():
            acc = per_name.setdefault(name, {})
            for key, value in rec.items():
                acc[key] = max(acc.get(key, 0), value) if key == "max_bits" else acc.get(key, 0) + value

    def get(name: str, key: str):
        return per_name.get(name, {}).get(key, 0)

    def layer_self(layer: str) -> float:
        return sum(rec["self_s"] for name, rec in per_name.items() if name.split(".")[0] == layer)

    traced_wall = sum(t["root_wall_s"] for t in traces)
    pullbacks = sum(t["pullbacks"] for t in traces)
    hits = sum(t["counts_hits"] for t in traces)
    pc_self = get("lattice.pairing_counts", "self_s")
    m = {
        "lattice.pairing_counts.self_s": (pc_self, "s"),
        "lattice.pairing_counts.calls": (get("lattice.pairing_counts", "calls"), "count"),
        "lattice.pairing_counts.vectors": (get("lattice.pairing_counts", "vectors"), "count"),
        "lattice.pairing_counts.keys": (get("lattice.pairing_counts", "keys"), "count"),
        "lattice.vectors_per_s": (get("lattice.pairing_counts", "vectors") / pc_self if pc_self else 0.0, "1/s"),
        "weil.self_s": (layer_self("weil"), "s"),
        "weil.pullback.self_s": (get("weil.pullback", "self_s"), "s"),
        "weil.pullback.calls": (pullbacks, "count"),
        "weil.pullback.coeffs": (get("weil.pullback", "coeffs"), "count"),
        "weil.counts_hits": (hits, "count"),
        "weil.counts_hit_ratio": (hits / pullbacks if pullbacks else 0.0, "ratio"),
        "weil.jacobi_eisenstein.self_s": (get("weil.jacobi_eisenstein", "self_s"), "s"),
        "classical.self_s": (layer_self("classical"), "s"),
        "classical.slash_level2.calls": (get("classical.slash_level2", "calls"), "count"),
        "qseries.QSeries.__mul__.self_s": (get("qseries.QSeries.__mul__", "self_s"), "s"),
        "qseries.QSeries.__mul__.calls": (get("qseries.QSeries.__mul__", "calls"), "count"),
        "lifts.self_s": (layer_self("lifts"), "s"),
        "lifts.multiply.self_s": (get("lifts.multiply", "self_s"), "s"),
        "lifts.multiply.calls": (get("lifts.multiply", "calls"), "count"),
        "lifts.multiply.pairs": (get("lifts.multiply", "pairs"), "count"),
        "lifts.hecke_V.self_s": (get("lifts.hecke_V", "self_s"), "s"),
        "certify.self_s": (layer_self("certify"), "s"),
        "certify.bareiss_rank.self_s": (get("certify.bareiss_rank", "self_s"), "s"),
        "certify.bareiss_rank.calls": (get("certify.bareiss_rank", "calls"), "count"),
        "certify.bareiss_rank.cells": (get("certify.bareiss_rank", "cells"), "count"),
        "certify.bareiss_rank.max_bits": (get("certify.bareiss_rank", "max_bits"), "bits"),
        "freealg.dim_upper_bound.self_s": (get("freealg.dim_upper_bound", "self_s"), "s"),
        "cli.main.self_s": (get(ROOT_SPAN, "self_s"), "s"),
        "process.cpu_s": (untraced_cpu, "s"),
        "process.wall_s": (untraced_wall, "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_s": (get(ROOT_SPAN, "self_s"), "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }
    return m


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "omfree" / "cli.py").is_file():
        print(f"error: {SRC / 'omfree' / 'cli.py'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2

    t_run = _now()
    workload = WORKLOADS[args.workload]
    ops = workload.operations(args.seed)
    runner = Runner(t_run + RUN_LIMIT_S)
    print(f"# workload {args.workload} (seed {args.seed}, {args.seconds} s, trace {args.trace}): {workload.why}")
    print(f"# env {json.dumps(environment(), sort_keys=True)}")

    failures: List[str] = []
    warm = runner.probe()  # writes src/omfree bytecode; not measured
    if warm.error:
        failures.append(f"warm-up probe: {warm.error}")
    setups = []
    for _ in range(SETUP_PROBES):
        out = runner.probe()
        if out.error:
            failures.append(f"setup probe: {out.error}")
        else:
            setups.append(out.setup_s)

    walls: List[float] = []
    cpus: List[float] = []
    rsss: List[float] = []
    attempted = failed = 0

    def fail(message: str) -> None:
        nonlocal failed
        failed += 1
        failures.append(message)
        print(f"FAILED {message}")

    def run(op: Operation, trace: bool) -> Optional[dict]:
        nonlocal attempted
        attempted += 1
        out = runner.operation(op, trace)
        tag = "traced " if trace else ""
        if out.error:
            fail(f"{tag}{op.label}: {out.error}")
            return None
        rec = out.record
        setups.append(out.setup_s)
        print(f"{tag}{op.label}: wall {rec['wall_s']:.3f} s, setup {out.setup_s:.3f} s, cpu {rec['cpu_s']:.3f} s, rss {rec['peak_rss_mb']:.1f} MB, ok")
        return rec

    t_ops = _now()
    i = 0
    while True:
        rec = run(ops[i % len(ops)], False)
        if rec is not None:
            walls.append(rec["wall_s"])
            cpus.append(rec["cpu_s"])
            rsss.append(rec["peak_rss_mb"])
        i += 1
        if i < len(ops):
            continue
        if args.trace or failures or _now() - t_ops + statistics.median(walls) + statistics.median(setups) > args.seconds:
            break

    metrics: dict = {}
    if args.trace:
        traces = []
        for op in ops:
            rec = run(op, True)
            if rec is None:
                continue
            problem = _trace_checks(rec["trace"])
            if problem:
                fail(f"traced {op.label}: {problem}")
                continue
            traces.append(rec["trace"])
        hits = sum(t["counts_hits"] for t in traces)
        pullbacks = sum(t["pullbacks"] for t in traces)
        if (hits, pullbacks) != (workload.counts_hits, workload.pullbacks):
            failures.append(f"counts cache: {hits} hits of {pullbacks} pullbacks, expected {workload.counts_hits} of {workload.pullbacks}")
        if traces:
            layer = _per_layer(traces, sum(walls[: len(ops)]), sum(cpus[: len(ops)]))
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    elif walls and setups:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": max(rsss), "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"failed_ratio = {failed / attempted!r} ({failed} of {attempted} operations)")
    if cpus:
        print(f"cpu_s median = {statistics.median(cpus)!r} s (wall median {statistics.median(walls)!r} s)")
    print(f"run took {_now() - t_run:.1f} s")
    for f in failures:
        print(f"# failure: {f}")
    correct = not failures and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
