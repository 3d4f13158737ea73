"""Self-test of the benchmark itself.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks two things, on shortened plans so that it takes well under a
minute:

1. every metric named in BENCHMARK.json comes out of ``run.py`` with the
   declared unit, untraced (``end_to_end``) and traced (``per_layer``), and
   nothing else does;
2. a bad decode injected under the round checks (wrong symbols, then an
   exception) is counted in ``failed`` and ``fail_ratio`` instead of ending
   the run, and a set-up that raises still leaves a result line, with
   ``correct`` false.

The traced halves run in this process here, so that they take the short
plans too; ``steadiness.py`` runs them as child processes.

Exit code 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from steadiness import unit_errors  # noqa: E402
from codedpid.codes import CodePair  # noqa: E402

SHORT_ROUNDS = 5


def short_plan(*_args) -> workloads.Plan:
    return workloads.Plan(setups=1, rounds=SHORT_ROUNDS, audits=1)


@contextlib.contextmanager
def replaced(owner, attr, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def in_process(args, part: str) -> dict:
    return run.trace_part(workloads, args.workload, args.seed, part)


def run_lines(workload: str, trace: int) -> list[str]:
    out = io.StringIO()
    with replaced(workloads, "timed_plan", short_plan), replaced(
        workloads, "fixed_plan", short_plan
    ), replaced(run, "run_part", in_process), contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace)]
        )
    if code != 0:
        raise RuntimeError(f"run.py exited {code} on {workload} trace {trace}")
    return out.getvalue().splitlines()


def metric_errors() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            lines = run_lines(workload, trace)
            result = json.loads(lines[-1])
            errors += [
                f"{workload} trace {trace}: {e}" for e in unit_errors(result, declared)
            ]
            if not result["correct"] or result["failed"]:
                errors.append(f"{workload} trace {trace}: checks failed on a good build")
            if trace == 0 and not any(line.startswith("fail_ratio 0") for line in lines):
                errors.append(f"{workload}: no fail_ratio line reading 0")
    return errors


def injection_errors() -> list[str]:
    original = CodePair.decode_vector

    def wrong_symbols(self, answers):
        decoded = original(self, answers)
        return ((decoded[0] + 1) % self.modulus,) + decoded[1:]

    def broken(self, answers):
        raise ValueError("injected decode failure")

    errors = []
    for name, fake in (("wrong symbols", wrong_symbols), ("exception", broken)):
        with replaced(CodePair, "decode_vector", fake):
            stats = workloads.run("audit-q5", 5, short_plan())
        ratio = workloads.end_to_end(stats)["fail_ratio"][0]
        rounds = SHORT_ROUNDS + 1  # plus the warm-up round
        if stats.failed != rounds or not ratio > 0:
            errors.append(
                f"injected {name}: {stats.failed} failed of {stats.attempted}, "
                f"fail_ratio {ratio}; expected {rounds} failed rounds"
            )

    def broken_build(*_args):
        raise ValueError("injected set-up failure")

    with replaced(workloads, "build_vandermonde_pair", broken_build):
        result = json.loads(run_lines("serve-k64", 0)[-1])
    if result["correct"] or not result["failed"]:
        errors.append(f"injected set-up failure: result {result}")
    return errors


def main() -> int:
    errors = metric_errors() + injection_errors()
    for error in errors:
        print(f"FAIL {error}")
    print("selftest ok" if not errors else f"selftest: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
