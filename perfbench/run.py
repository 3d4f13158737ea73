"""Benchmark of codedpid: one workload, one seed, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-k64 --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics on a timed run, with times at
reference speed (see ``speed.py``) and, on extra lines, as measured.  ``--trace 1``
runs a fixed amount of work twice, untraced and then traced, each time in a
fresh child process so that neither sees caches the other warmed, and
reports the per-layer metrics and the tracing overhead; its spans go to
``.bench_trace/<workload>-seed<seed>.json``.  Environment facts and every
metric go to standard output as ``name value unit`` lines; the last line is
the JSON result.  Exit code 2 means the checkout has no codedpid sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# Printed but kept out of the result line: it is 0 on every correct run, so
# a bound relative to its median means nothing; ``failed``/``attempted``
# carry it there.
PRINTED_ONLY = ("fail_ratio",)
# The two halves of a traced run share the 180 s a run may take.
PART_TIMEOUT_S = 85


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = root / ".git"
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
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def environment(workload: str, seed: int, trace: int) -> dict[str, object]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(ROOT),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set by a traced run on the child processes it starts.
    parser.add_argument("--part", choices=("plain", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def measure(workloads, speed, args) -> tuple[dict, list[str], int, int, list[str]]:
    """Run the workload; returns (metrics, notes, attempted, failed, problems)."""
    if not args.trace:
        stats = workloads.run(
            args.workload, args.seed, workloads.timed_plan(args.workload, args.seconds)
        )
        # Read before the summaries below, whose lists grow with the rounds.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = workloads.end_to_end(stats)
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        measured = workloads.end_to_end(stats, at_reference_speed=False)
        notes = [
            f"measured {name} {value} {unit}"
            for name, (value, unit) in measured.items()
            if name != "fail_ratio"
        ]
        probes = stats.speed.seconds
        notes.append(
            f"speed probe median {statistics.median(probes) * 1e3} ms over "
            f"{len(probes)} probes, reference {speed.REFERENCE_S * 1e3} ms"
        )
        return metrics, notes, stats.attempted, stats.failed, stats.problems

    plain = run_part(args, "plain")
    traced = run_part(args, "traced")
    metrics = {name: tuple(m) for name, m in traced["metrics"].items()}
    metrics["trace.overhead_ratio"] = (traced["seconds"] / plain["seconds"], "ratio")
    return (
        metrics,
        [],
        plain["attempted"] + traced["attempted"],
        plain["failed"] + traced["failed"],
        plain["problems"] + traced["problems"],
    )


def run_part(args, part: str) -> dict:
    """``trace_part`` in a child process; returns its result."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1",
         "--part", part],
        cwd=ROOT, capture_output=True, text=True, timeout=PART_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{part} half exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def trace_part(workloads, workload: str, seed: int, part: str) -> dict:
    """One half of a traced run: the workload's fixed plan, untraced or traced."""
    import tracing

    tracer = tracing.Tracer()
    with tracer.installed(workloads) if part == "traced" else nullcontext():
        start = time.perf_counter()
        stats = workloads.run(workload, seed, workloads.fixed_plan(workload))
        seconds = time.perf_counter() - start
    result = {
        "seconds": seconds,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "problems": stats.problems,
    }
    if part == "traced":
        result["metrics"] = tracer.layer_metrics(stats)
        tracer.write(
            ROOT / ".bench_trace" / f"{workload}-seed{seed}.json",
            workload=workload,
            seed=seed,
        )
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "codedpid" / "__init__.py").is_file():
        print(f"error: no codedpid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if not workloads.Q5_CONFIG.is_file():
        print(f"error: missing {workloads.Q5_CONFIG}", file=sys.stderr)
        return 2

    if args.part:
        print(json.dumps(trace_part(workloads, args.workload, args.seed, args.part)))
        return 0
    env = environment(args.workload, args.seed, args.trace)
    print("env " + json.dumps(env))
    metrics, notes, attempted, failed, problems = measure(workloads, speed, args)
    for problem in problems:
        print(f"check failed: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for note in notes:
        print(note)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if name not in PRINTED_ONLY
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
