"""The benchmark's workloads: what each one runs, and the checks on every output.

Every workload has the same three phases, so that every end-to-end metric is
measured on every workload:

* set-up: build the workload's instance(s);
* rounds: a closed loop of delivery rounds, each doing what ``pid deliver``
  does minus the disk writes (one caller, the next request only after the
  previous one returned);
* audits: ``pid verify`` on ``configs/q5-k3.cfg`` plus its two negative
  controls, called in-process through ``cli.main``.

The workload named after a phase gives it most of the run.  The audits are
spread evenly over the run, between rounds, so that a slow stretch of a
shared machine does not fall on one phase only.  All inputs come from the
workload seed.  A failed check is counted, never raised, so one bad output
does not end the run.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import time
import traceback
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from codedpid import cli
from codedpid.analysis import download_floor_check, rate_report
from codedpid.codes import build_vandermonde_pair
from codedpid.protocol import (
    Message,
    encode_storage,
    make_association,
    random_messages,
)
from codedpid.sim import byte_accounting, decode_frame, frames_to_bytes, simulate_round
from speed import SpeedLog

ROOT = Path(__file__).resolve().parent.parent
Q5_CONFIG = ROOT / "configs" / "q5-k3.cfg"
# The masked q5-k3 audit sees every one of the q^N = 5^3 answer vectors.
Q5_CENSUS = 5**3

# p99 is reported, so a timed run makes at least 100 x 10 rounds.
MIN_ROUNDS = 1000
K64 = {"q": 257, "k_messages": 64, "n_servers": 64, "msg_len": 32}
# Each build takes about 0.4 s; the median of 11 keeps setup_s within a
# tenth from seed to seed where the median of 5 spread by a fifth.
K64_SETUPS = 11
Q5_SETUPS = 100
# Primes below the 4-byte symbol; moduli near 2^32 overflow code
# construction today and are left out.
CHURN_PRIMES = (5, 7, 11, 13, 17, 31, 257)
# Every (N, L) shape comes once per cycle, in a seeded order.  Building the
# code takes about 0.5 ms at N=4 and over 100 ms at N=12, L=6, so with shapes
# drawn independently the count of the few costly ones, and rounds_per_s
# with it, swung by a fifth from seed to seed.
CHURN_SHAPES = tuple((n, l) for n in range(4, 13) for l in range(1, n))
CHURN_MAX_K = 24
CHURN_ROUNDS = 4

WORKLOADS = ("serve-k64", "churn-n12", "audit-q5")
# Audits (the masked one and both controls) per timed run.  At about 3.5 s
# each they take a quarter to a third of a 40 s run on serve-k64 and
# churn-n12 and half of it on audit-q5.  serve-k64 keeps more time for its
# slow rounds, so that its p99 rests on more samples.
TIMED_AUDITS = {"serve-k64": 3, "churn-n12": 4, "audit-q5": 5}


@dataclass(frozen=True)
class Plan:
    """How much work one run does.

    ``setups`` counts the builds of the served instance (churn-n12 builds a
    fresh one per step instead); the first one is served.  ``rounds`` and
    ``audits`` are minimums.  A timed plan (``seconds`` > 0) keeps serving
    rounds until ``seconds`` have passed and places the audits and the other
    builds evenly over that time; a fixed plan (``seconds`` == 0) does
    exactly ``rounds`` rounds, then the rest.
    """

    setups: int
    rounds: int
    audits: int
    seconds: float = 0.0


def timed_plan(workload: str, seconds: float) -> Plan:
    """The plan of an untraced run."""
    return Plan(
        setups={"serve-k64": K64_SETUPS, "audit-q5": Q5_SETUPS}.get(workload, 0),
        rounds=MIN_ROUNDS,
        audits=TIMED_AUDITS[workload],
        seconds=seconds,
    )


def fixed_plan(workload: str) -> Plan:
    """The plan of a traced run: a fixed amount of work, so counts repeat."""
    rounds = {"serve-k64": 100, "churn-n12": 40 * CHURN_ROUNDS, "audit-q5": 300}
    return Plan(setups=1, rounds=rounds[workload], audits=1)


Interval = tuple[float, float]  # (start, end) on time.perf_counter


@dataclass
class Stats:
    """Timed intervals and check results of one run of a workload."""

    setups: list[Interval] = field(default_factory=list)
    # Flat start, end, start, end, ...: a run makes up to a hundred thousand,
    # and a list of tuples would grow peak_rss_mb with the machine's speed.
    rounds: array = field(default_factory=lambda: array("d"))
    # Round steps (on churn-n12 with their instance builds), flat like
    # ``rounds``, and the rounds they served, for throughput.
    steps: array = field(default_factory=lambda: array("d"))
    stepped_rounds: int = 0
    verifies: list[Interval] = field(default_factory=list)
    controls: list[tuple[Interval, Interval]] = field(default_factory=list)
    speed: SpeedLog = field(default_factory=SpeedLog)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    frames: int = 0
    wire_bytes: int = 0
    answer_bytes: int = 0

    def record(self, problems: list[str]) -> None:
        """Count one operation, failed when any of its checks failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.extend(problems[: 5 - len(self.problems)])

    def attempt(self, what: str, fn, *args):
        """Run ``fn``; an exception counts as a failed operation."""
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - the run must go on
            where = traceback.extract_tb(exc.__traceback__)[-1]
            self.record(
                [
                    f"{what} raised {type(exc).__name__}: {exc} "
                    f"({Path(where.filename).name}:{where.lineno})"
                ]
            )
            return None


# -- rounds ----------------------------------------------------------------------


@dataclass(frozen=True)
class Round:
    result: object
    wire: bytes
    parsed: tuple
    accounting: object
    report: object
    floor: object


def deliver(config, code, messages, d: int, seed: int) -> Round:
    """One ``pid deliver`` round minus the disk writes."""
    result = simulate_round(config, code, messages, d, seed=seed)
    wire = frames_to_bytes(result.frames)
    parsed, offset = [], 0
    while offset < len(wire):
        frame, offset = decode_frame(wire, offset)
        parsed.append(frame)
    return Round(
        result=result,
        wire=wire,
        parsed=tuple(parsed),
        accounting=byte_accounting(parsed, config.n_servers),
        report=rate_report(config, result.transcript),
        floor=download_floor_check(config, result.transcript),
    )


def round_problems(config, messages, d: int, rnd: Round) -> list[str]:
    problems = []
    if rnd.result.transcript.decoded != messages[d - 1].symbols:
        problems.append(f"round d={d}: decoded symbols differ from message {d}")
    if rnd.parsed != rnd.result.frames:
        problems.append(f"round d={d}: parsed frames differ from the frames sent")
    if rnd.accounting.answer_symbols != (1,) * config.n_servers:
        problems.append(f"round d={d}: a server did not send exactly one symbol")
    if rnd.report.achieved != Fraction(config.msg_len, config.n_servers):
        problems.append(f"round d={d}: rate {rnd.report.achieved} is not L/N")
    if not rnd.floor.ok:
        problems.append(f"round d={d}: download floor violated")
    return problems


def one_round(stats: Stats, config, code, messages, rng) -> int:
    """Serve and check one uniformly drawn request; returns 1 (one round)."""
    d = int(rng.integers(1, config.k_messages + 1))
    seed = int(rng.integers(2**31))
    start = time.perf_counter()
    rnd = stats.attempt(f"round d={d}", deliver, config, code, messages, d, seed)
    stats.rounds.extend((start, time.perf_counter()))
    if rnd is not None:
        stats.record(round_problems(config, messages, d, rnd))
        stats.frames += len(rnd.parsed)
        stats.wire_bytes += len(rnd.wire)
        stats.answer_bytes += sum(rnd.accounting.answer_payload_bytes)
    return 1


# -- churn -----------------------------------------------------------------------


def churn_shapes(rng):
    """(N, L) of each instance: every one of CHURN_SHAPES, cycle after cycle."""
    while True:
        for i in rng.permutation(len(CHURN_SHAPES)):
            yield CHURN_SHAPES[i]


def churn_params(rng, shapes) -> tuple[int, int, int, int]:
    """A balanced canonical (q, K, N, L) with N in 4..12 and L < N."""
    n, l = next(shapes)
    step = n // math.gcd(n, l)  # K*L divisible by N
    k = step * int(rng.integers(1, max(1, CHURN_MAX_K // step) + 1))
    q = int(rng.choice([p for p in CHURN_PRIMES if p >= n]))
    return q, k, n, l


def build_churn_instance(q: int, k: int, n: int, l: int, seed: int):
    config = make_association(q, k, n, l)
    code = build_vandermonde_pair(q, n, l)
    messages = random_messages(config, seed=seed)
    storage = encode_storage(config, code, messages)
    return config, code, messages, storage


def rewrite_one(messages, rng):
    """Replace one message with fresh symbols."""
    old = messages[int(rng.integers(len(messages)))]
    symbols = tuple(int(s) for s in rng.integers(0, old.modulus, len(old.symbols)))
    new = Message(index=old.index, symbols=symbols, modulus=old.modulus)
    return tuple(new if m.index == new.index else m for m in messages)


def churn_instance(stats: Stats, rng, shapes) -> int:
    """A fresh instance serving a few rounds, one message rewritten between
    rounds; returns the number of rounds."""
    q, k, n, l = churn_params(rng, shapes)
    seed = int(rng.integers(2**31))
    began = time.perf_counter()
    built = stats.attempt(
        f"instance q={q} K={k} N={n} L={l}", build_churn_instance, q, k, n, l, seed
    )
    stats.setups.append((began, time.perf_counter()))
    if built is None:
        return 0
    config, code, messages, storage = built
    loads = {st.stored_symbol_count for st in storage}
    stats.record([] if loads == {k * l // n} else [f"instance N={n}: unbalanced {loads}"])
    for r in range(CHURN_ROUNDS):
        if r:
            messages = rewrite_one(messages, rng)
        one_round(stats, config, code, messages, rng)
    return CHURN_ROUNDS


# -- audits ----------------------------------------------------------------------


def run_cli(args: list[str]) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(args)
    return code, out.getvalue().splitlines()


def _has(lines: list[str], *parts: str) -> bool:
    return any(all(p in line for p in parts) for line in lines)


def masked_problems(code: int, lines: list[str]) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"masked audit exited {code}, expected 0")
    if sum("VERDICT=pass" in line for line in lines) != 2 or _has(lines, "VERDICT=fail"):
        problems.append("masked audit did not print two VERDICT=pass lines")
    if not _has(lines, f"distinct answer vectors: {Q5_CENSUS}; uniform over them: yes"):
        problems.append(f"masked audit census is not uniform over {Q5_CENSUS} vectors")
    return problems


def split_problems(code: int, lines: list[str]) -> list[str]:
    problems = []
    if code != 3:
        problems.append(f"split control exited {code}, expected 3")
    if not _has(lines, "PROPERTY=privacy", "VERDICT=fail"):
        problems.append("split control printed no privacy fail")
    if not any(line.strip().startswith("leak:") for line in lines):
        problems.append("split control printed no leak line")
    return problems


def corrupt_problems(code: int, lines: list[str]) -> list[str]:
    problems = []
    if code != 3:
        problems.append(f"corrupt control exited {code}, expected 3")
    if not _has(lines, "PROPERTY=correctness", "VERDICT=fail"):
        problems.append("corrupt control printed no correctness fail")
    if not _has(lines, "counterexample:"):
        problems.append("corrupt control printed no counterexample")
    return problems


AUDITS = (
    ([], masked_problems),
    (["--scheme", "split"], split_problems),
    (["--corrupt", "1,1,1,2"], corrupt_problems),
)


def audit_once(stats: Stats) -> None:
    """The masked audit, then both controls, with a speed probe around each."""
    intervals = []
    for extra, problems in AUDITS:
        stats.speed.probe()
        start = time.perf_counter()
        outcome = stats.attempt(
            "verify " + " ".join(extra), run_cli, ["verify", "-c", str(Q5_CONFIG), *extra]
        )
        intervals.append((start, time.perf_counter()))
        if outcome is not None:
            stats.record(problems(*outcome))
    stats.speed.probe()
    stats.verifies.append(intervals[0])
    stats.controls.append((intervals[1], intervals[2]))


def interleave(stats: Stats, plan: Plan, step, rebuild=None) -> None:
    """Serve round steps, audits and the builds after the first as ``plan``
    says; ``step`` serves one or more rounds and returns how many,
    ``rebuild`` times one more build of the served instance."""
    start = time.perf_counter()
    rounds = 0
    # [how many, how many done, what]; spread evenly over a timed plan.
    spread = [[plan.audits, 0, lambda: audit_once(stats)]]
    if rebuild is not None:
        spread.append([plan.setups - 1, 0, rebuild])
    while True:
        elapsed = time.perf_counter() - start
        for entry in spread:
            total, done, action = entry
            if done >= total:
                continue
            if plan.seconds:
                due = elapsed >= (done + 0.5) * plan.seconds / total
            else:
                due = rounds >= plan.rounds
            if due:
                action()
                entry[1] += 1
                break
        else:
            if rounds >= plan.rounds and elapsed >= plan.seconds:
                break
            stats.speed.maybe_probe()
            began = time.perf_counter()
            served = step()
            stats.steps.extend((began, time.perf_counter()))
            stats.stepped_rounds += served
            rounds += served


# -- set-up ----------------------------------------------------------------------


def build_k64(seed: int):
    config = make_association(**K64)
    code = build_vandermonde_pair(K64["q"], K64["n_servers"], K64["msg_len"])
    return config, code, random_messages(config, seed=seed)


def build_q5():
    cfg = cli.load_config(Q5_CONFIG)
    config, code = cli.build_instance(cfg)
    return config, code, cli.instance_messages(cfg, config, cfg.seed)


def set_up(stats: Stats, make, *args):
    """Build the instance once, timed; returns it, or None on failure."""
    stats.speed.maybe_probe()
    start = time.perf_counter()
    instance = stats.attempt("set-up", make, *args)
    stats.setups.append((start, time.perf_counter()))
    if instance is not None:
        stats.record([])
    return instance


# -- one run ---------------------------------------------------------------------


def run(workload: str, seed: int, plan: Plan) -> Stats:
    """Run every phase of ``workload`` under ``plan``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    stats = Stats()
    messages_seed, loop_seed = np.random.SeedSequence(seed).generate_state(2)
    rng = np.random.default_rng(loop_seed)
    stats.speed.probe()
    if workload == "churn-n12":
        shapes = churn_shapes(rng)
        interleave(stats, plan, lambda: churn_instance(stats, rng, shapes))
    else:
        if workload == "serve-k64":
            build = (build_k64, int(messages_seed))
        else:
            build = (build_q5,)
            # Warm-up: the first build pays one-off costs a user pays once.
            stats.attempt("warm-up set-up", build_q5)
        instance = set_up(stats, *build)
        if instance is not None:
            one_round(stats, *instance, rng)  # warm-up: checked, latency dropped
            del stats.rounds[:]
            interleave(
                stats,
                plan,
                lambda: one_round(stats, *instance, rng),
                lambda: set_up(stats, *build),
            )
    stats.speed.probe()
    return stats


def end_to_end(stats: Stats, at_reference_speed: bool = True) -> dict:
    """The end-to-end metrics of an untraced run, by name: (value, unit).

    Times are at reference speed (see ``speed``) unless
    ``at_reference_speed`` is false, when they are as measured.  A metric
    whose phase never ran, because its set-up failed, is left out; the
    failure is counted in ``fail_ratio``.
    """
    if at_reference_speed:
        seconds = stats.speed.scaled
    else:
        def seconds(start, end):
            return end - start

    def each(intervals):
        return [seconds(*iv) for iv in intervals]

    def pairs(flat):
        flat = iter(flat)
        return zip(flat, flat)

    rounds = each(pairs(stats.rounds))
    setups = each(stats.setups)
    verifies = each(stats.verifies)
    controls = [seconds(*a) + seconds(*b) for a, b in stats.controls]
    metrics = {}
    if setups:
        metrics["setup_s"] = (statistics.median(setups), "s")
    if len(rounds) >= 2:
        metrics["round_p50_ms"] = (statistics.median(rounds) * 1e3, "ms")
        metrics["round_p99_ms"] = (
            statistics.quantiles(rounds, n=100, method="inclusive")[98] * 1e3,
            "ms",
        )
    if stats.stepped_rounds:
        metrics["rounds_per_s"] = (stats.stepped_rounds / sum(each(pairs(stats.steps))), "1/s")
    if verifies:
        metrics["verify_s"] = (statistics.median(verifies), "s")
    if controls:
        metrics["control_verify_s"] = (statistics.median(controls), "s")
    metrics["fail_ratio"] = (stats.failed / max(stats.attempted, 1), "ratio")
    return metrics
