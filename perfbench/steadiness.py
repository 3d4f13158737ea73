"""Steadiness check: repeat the benchmark and hold every spread to its bound.

Run from the root of a checkout:

    python3 perfbench/steadiness.py --runs 10 --seed0 100 --out /tmp/set1.json
    python3 perfbench/steadiness.py --runs 10 --seed0 200 --compare /tmp/set1.json

For each workload this runs ``run.py --trace 0`` once per seed (seeds
seed0 .. seed0+runs-1, one run at a time) and reports, per end-to-end
metric, the median, the quartiles from ``statistics.quantiles(n=4)`` and the
spread (q3 - q1) / median.  It then runs ``--trace 1`` twice with seed0 and
requires every count metric to repeat exactly.  It fails (exit 1) when a run
fails or checks wrong, a metric or unit differs from BENCHMARK.json, a spread
exceeds its bound, a count metric does not repeat, or, with ``--compare``, a
median is worse than the earlier set's by more than its bound.  ``--compare``
takes a summary written by ``--out`` or a trajectory file (its last entry).
It also prints how much each median moved as measured, so that a slowdown
the speed probe divides out can be seen; that figure is not gated, since
the machine's own speed moves it by more than any bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from tracing import COUNT_METRICS  # noqa: E402

RUN_TIMEOUT_S = 180


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run in a child process; returns its result line, with
    the ``measured`` lines (times not scaled to reference speed) added."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = next(
        json.loads(line[4:]) for line in lines if line.startswith("env ")
    )
    result["measured"] = {
        name: float(value)
        for _, name, value, _ in (
            line.split() for line in lines if line.startswith("measured ")
        )
    }
    return result


def unit_errors(result: dict, declared: list[dict]) -> list[str]:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    errors = [f"metric {n} missing" for n in want if n not in got]
    errors += [f"metric {n} not declared" for n in got if n not in want]
    errors += [
        f"metric {n} has unit {got[n]}, declared {u}"
        for n, u in want.items()
        if n in got and got[n] != u
    ]
    return errors


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def worse(metric: dict, now: float, before: float) -> float:
    """By what share ``now`` is worse than ``before`` (negative when better)."""
    change = (now - before) / before
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=100)
    parser.add_argument("--out", type=Path, default=None, help="write the summary here")
    parser.add_argument(
        "--compare", type=Path, default=None,
        help="an earlier summary, or a trajectory file to compare with its last entry",
    )
    parser.add_argument(
        "--record", type=Path, default=None,
        help="append the summary as an entry to this trajectory file",
    )
    parser.add_argument("--label", default="", help="what the recorded entry measures")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    errors: list[str] = []
    summary = {"run_seconds": seconds, "runs": args.runs, "seed0": args.seed0,
               "workloads": {}}

    values = {w: {name: [] for name in metrics} for w in workloads}
    measured = {w: {name: [] for name in metrics} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            result = bench(w, args.seed0 + i, seconds, 0)
            summary.setdefault("env", {
                k: v for k, v in result["env"].items() if k not in ("workload", "seed")
            })
            if not result["correct"] or result["failed"]:
                errors.append(f"{w} seed {args.seed0 + i}: {result['failed']} failed")
            errors += [f"{w}: {e}" for e in unit_errors(result, spec["end_to_end"])]
            for name in metrics:
                if name in result["metrics"]:
                    values[w][name].append(result["metrics"][name]["value"])
                if name in result["measured"]:
                    measured[w][name].append(result["measured"][name])
            print(f"run {i + 1}/{args.runs} {w} done", file=sys.stderr, flush=True)

    earlier = json.loads(args.compare.read_text()) if args.compare else None
    if earlier and "entries" in earlier:
        earlier = earlier["entries"][-1]
    for w in workloads:
        table = summary["workloads"][w] = {}
        for name, metric in metrics.items():
            if len(values[w][name]) < 2:
                continue
            stats = table[name] = summarize(values[w][name])
            stats["bound"] = metric["bound"]
            stats["unit"] = metric["unit"]
            line = (
                f"{w:10} {name:17} median {stats['median']:.6g} {metric['unit']:4} "
                f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} "
                f"spread {stats['spread']:.4f} bound {metric['bound']}"
            )
            if len(measured[w][name]) >= 2:
                stats["measured"] = summarize(measured[w][name])
                line += f" (as measured: spread {stats['measured']['spread']:.4f})"
            if stats["spread"] > metric["bound"]:
                errors.append(f"{w} {name}: spread {stats['spread']:.4f} over bound")
            before = earlier["workloads"].get(w, {}).get(name) if earlier else None
            if before:
                change = worse(metric, stats["median"], before["median"])
                line += f" vs earlier {change:+.4f}"
                if change > metric["bound"]:
                    errors.append(f"{w} {name}: median worse by {change:.4f}")
                # Shown, not gated: as measured, the medians of one commit
                # moved by up to half between two sets 20 minutes apart.
                if "measured" in stats and "measured" in before:
                    change = worse(
                        metric, stats["measured"]["median"], before["measured"]["median"]
                    )
                    line += f" (as measured {change:+.4f})"
            print(line)

    for w in workloads:
        first, second = (bench(w, args.seed0, seconds, 1) for _ in range(2))
        for result in (first, second):
            errors += [f"{w} trace: {e}" for e in unit_errors(result, spec["per_layer"])]
            if not result["correct"]:
                errors.append(f"{w} trace: {result['failed']} failed")
        moved = [
            f"{w} {name}: count {first['metrics'].get(name)} then "
            f"{second['metrics'].get(name)}"
            for name in COUNT_METRICS
            if first["metrics"].get(name) != second["metrics"].get(name)
        ]
        errors += moved
        summary["workloads"].setdefault(w, {})["trace"] = {
            name: m["value"] for name, m in first["metrics"].items()
        }
        print(f"{w:10} trace counts repeat: {not moved}")

    summary["errors"] = errors
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    if args.record:
        trajectory = (
            json.loads(args.record.read_text()) if args.record.exists() else {"entries": []}
        )
        trajectory["entries"].append({"label": args.label, **summary})
        args.record.write_text(json.dumps(trajectory, indent=1) + "\n")
    for error in errors:
        print(f"FAIL {error}")
    print("steady" if not errors else f"{len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
