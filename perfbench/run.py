"""The slimlat benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload build-large --seed 1 --seconds 30 --trace 0

It imports slimlat from src/ of the checkout it lives in, prepares the
workload's inputs from the seed (three times, to time the set-up), runs
rounds of the workload while the next one is expected to end within
--seconds, and checks every answer against one computed by another route.  The last line
of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (round_s, setup_s,
peak_rss_mb).  With --trace 1 the run instead replays each prepared batch
once, every call into a layer inside a span, and reports per-layer totals
and call counts; the spans are written to .perfbench/.  The line before
the result holds the run's context and the per-command medians.  See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_ROUNDS = 2

LAYER_SPANS = (
    "grid.closure", "grid.formula", "grid.source_cells", "grid.regenerate",
    "grid.quotient", "grid.heuristic_layout", "grid.phi0",
    "lattice.from_covers", "lattice.diagram_from_json", "lattice.is_slim",
    "lattice.is_semimodular", "lattice.automorphisms", "lattice.is_isomorphic",
    "extract.pi1", "extract.pi2", "extract.pi3", "extract.diagrams_of",
    "perm.rho_equivalent", "perm.rho_class", "perm.count_classes",
    "groups.csl_build", "groups.csl_dual_diagram",
    "cli.startup",
)
LAYER_COUNTERS = ("grid.blocks", "lattice.size", "extract.diagrams.count",
                  "lattice.automorphisms.count")


def import_slimlat():
    """Import the package from this checkout's src/, never an installed copy."""
    for key in [k for k in os.environ if k.startswith("SLIMLAT_")]:
        del os.environ[key]
    if not (SRC / "slimlat" / "__init__.py").is_file():
        raise ImportError(f"no source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import slimlat
    if SRC.resolve() not in Path(slimlat.__file__).resolve().parents:
        raise ImportError(f"imported {slimlat.__file__}, not the package under {SRC}")
    return slimlat


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (never a parent's)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_context(slimlat, args) -> dict:
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(cpus), "python": platform.python_version(),
        "implementation": platform.python_implementation(), "platform": platform.platform(),
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "slimlat_file": slimlat.__file__,
        "kernel_impl": getattr(slimlat, "KERNEL_IMPL", None),
    }


def peak_rss_mb(children: bool) -> float:
    """Peak resident set of the process doing the work: the CLI children, or
    this process for in-process workloads (ru_maxrss is in KiB on Linux)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def closed_loop(workload, batches, seconds: float, tr, tally, samples) -> list[float]:
    """Rounds over the batches in turn, one client, while the next round is
    expected (from the last one) to end within `seconds`.  A run has at least
    MIN_ROUNDS rounds, so that round_s is never a single sample, although a
    verify-exhaustive round alone takes about 20 s; it stops at the first
    failed round, which already makes the run incorrect."""
    rounds: list[float] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rounds.append(workload.run_round(batches[len(rounds) % len(batches)], tr, tally, samples))
        now = time.perf_counter()
        if tally.failed or (len(rounds) >= MIN_ROUNDS and now - start + (now - began) > seconds):
            return rounds


def layer_metrics(tr) -> dict:
    totals = tr.totals()
    metrics = {}
    for name in LAYER_SPANS:
        seconds, calls = totals.get(name, (0.0, 0))
        metrics[f"{name}_s"] = {"value": seconds, "unit": "s"}
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
    for name in LAYER_COUNTERS:
        metrics[name] = {"value": tr.counters.get(name, 0), "unit": "count"}
    metrics["trace.spans"] = {"value": len(tr.spans), "unit": "count"}
    metrics["trace.overhead_s"] = {"value": tr.overhead_s(), "unit": "s"}
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one workload of the slimlat benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=["verify-exhaustive", "build-large", "classify-mid"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        slimlat = import_slimlat()
    except ImportError as exc:
        print(f"perfbench: cannot import slimlat: {exc}", file=sys.stderr)
        return 2
    from spans import NULL_TRACER, Tally, Tracer
    from workloads import WORKLOADS, WORK, SetupError

    workload = WORKLOADS[args.workload]()
    tr = Tracer() if args.trace else NULL_TRACER
    tally = Tally()
    samples: dict[str, list[float]] = defaultdict(list)
    batches, setups = [], []
    try:
        for index in range(SETUP_REPEATS):
            began = time.perf_counter()
            with tr.span("setup"):
                batches.append(workload.prepare(args.seed, index, tr, tally))
            setups.append(time.perf_counter() - began)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    detail = {}
    if args.trace:
        began = time.perf_counter()
        workload.replay(batches, tr, tally, samples)
        detail["trace_wall_s"] = time.perf_counter() - began
        metrics = layer_metrics(tr)
        tr.write(WORK / f"{args.workload}-seed{args.seed}.spans.json")
    else:
        rounds = closed_loop(workload, batches, args.seconds, tr, tally, samples)
        detail["rounds"] = len(rounds)
        metrics = {
            "round_s": {"value": statistics.median(rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(workload.uses_cli), "unit": "MB"},
        }
    detail["context"] = {**run_context(slimlat, args), **workload.context()}
    detail["setup_runs_s"] = setups
    detail["commands"] = {name: {"median": statistics.median(values), "samples": len(values)}
                          for name, values in sorted(samples.items())}
    detail["error_rate"] = tally.failed / max(tally.attempted, 1)
    detail["failures"] = tally.failures
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
