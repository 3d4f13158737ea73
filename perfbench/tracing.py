"""Per-layer spans and counts for the traced run.

The tracer wraps the library's public functions at the names the running code
looks them up by: the benchmark's own imports in ``workloads``, the library
modules' imports of each other (``codedpid.sim.encode_storage`` and so on)
and the methods of the public classes.  Every wrapped call records a span
(name, start, end, parent, root); a round's spans share the root of its
``bench.round`` span.  The per-case callables of the audited schemes run
hundreds of thousands of times per audit, so they keep a call count and a
cumulative time instead of one span each.  Spans stay in memory and are
written out once, at the end.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import codedpid.cli
import codedpid.sim
import codedpid.verify
from codedpid.codes import CodePair
from codedpid.field import FieldMatrix
from codedpid.sim import ServerActor, UserActor

# (metric, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("field.determinant_calls", "count"),
    ("field.inverse_calls", "count"),
    ("field.null_space_basis_ms", "ms"),
    ("codes.build_vandermonde_pair_ms", "ms"),
    ("protocol.encode_storage_ms", "ms"),
    ("protocol.encode_storage_calls", "count"),
    ("codes.h_sub_inverse_calls", "count"),
    ("protocol.draw_randomness_us", "us"),
    ("protocol.attach_shares_us", "us"),
    ("sim.round_self_ms", "ms"),
    ("sim.server_receive_ms", "ms"),
    ("sim.user_receive_ms", "ms"),
    ("codes.decode_vector_us", "us"),
    ("sim.frame_encode_ms", "ms"),
    ("sim.frame_decode_ms", "ms"),
    ("sim.frames_per_round", "count"),
    ("sim.wire_bytes_per_round", "bytes"),
    ("sim.answer_bytes_per_round", "bytes"),
    ("analysis.report_us", "us"),
    ("verify.cases", "count"),
    ("verify.cases_per_s", "1/s"),
    ("verify.correctness_s", "s"),
    ("verify.privacy_s", "s"),
    ("verify.build_storage_calls", "count"),
    ("verify.answers_calls", "count"),
    ("verify.answers_s", "s"),
    ("verify.census_size", "count"),
    ("cli.build_instance_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)

# Metrics that count work: they must repeat exactly for one commit and seed.
COUNT_METRICS = tuple(
    name
    for name, _ in LAYER_METRICS
    if name.endswith("_calls")
    or name.endswith("_per_round")
    or name in ("verify.cases", "verify.census_size")
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, root]
        self._stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.reports: list[tuple[str, int, int | None]] = []

    # -- wrappers ---------------------------------------------------------------

    def spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            record = [name, clock(), 0.0, parent, spans[parent][4] if stack else index]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def tallied(self, name: str, fn):
        calls, busy, clock = self.calls, self.busy, time.perf_counter

        def wrapper(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                calls[name] += 1
                busy[name] += clock() - start

        return wrapper

    def audited(self, name: str, fn):
        inner = self.spanned(name, fn)

        def wrapper(*args, **kwargs):
            report = inner(*args, **kwargs)
            self.reports.append(
                (name, report.cases, getattr(report, "distinct_answers", None))
            )
            return report

        return wrapper

    def scheme_factory(self, fn):
        def wrapper(*args, **kwargs):
            scheme = fn(*args, **kwargs)
            return dataclasses.replace(
                scheme,
                build_storage=self.tallied("verify.build_storage", scheme.build_storage),
                answers=self.tallied("verify.answers", scheme.answers),
                decode=self.tallied("verify.decode", scheme.decode),
            )

        return wrapper

    def _targets(self, bench):
        span = self.spanned
        return (
            (bench, "deliver", span, "bench.round"),
            (bench, "audit_once", span, "bench.audit"),
            (bench, "simulate_round", span, "sim.simulate_round"),
            (bench, "frames_to_bytes", span, "sim.frames_to_bytes"),
            (bench, "decode_frame", span, "sim.decode_frame"),
            (bench, "rate_report", span, "analysis.rate_report"),
            (bench, "download_floor_check", span, "analysis.download_floor_check"),
            (bench, "build_vandermonde_pair", span, "codes.build_vandermonde_pair"),
            (bench, "encode_storage", span, "protocol.encode_storage"),
            (codedpid.sim, "encode_storage", span, "protocol.encode_storage"),
            (codedpid.sim, "draw_randomness", span, "protocol.draw_randomness"),
            (codedpid.sim, "attach_shares", span, "protocol.attach_shares"),
            (codedpid.cli, "main", span, "cli.main"),
            (codedpid.cli, "build_instance", span, "cli.build_instance"),
            (codedpid.cli, "build_vandermonde_pair", span, "codes.build_vandermonde_pair"),
            (ServerActor, "receive", span, "sim.server_receive"),
            (UserActor, "receive", span, "sim.user_receive"),
            (CodePair, "decode_vector", span, "codes.decode_vector"),
            (CodePair, "h_sub_inverse", span, "codes.h_sub_inverse"),
            (FieldMatrix, "determinant", span, "field.determinant"),
            (FieldMatrix, "inverse", span, "field.inverse"),
            (FieldMatrix, "null_space_basis", span, "field.null_space_basis"),
            (codedpid.verify, "scheme_correctness", self.audited, "verify.correctness"),
            (codedpid.verify, "scheme_privacy", self.audited, "verify.privacy"),
            (codedpid.verify, "masked_scheme", lambda _n, fn: self.scheme_factory(fn), None),
            (codedpid.verify, "split_scheme", lambda _n, fn: self.scheme_factory(fn), None),
        )

    @contextmanager
    def installed(self, bench):
        """Wrap every target while the block runs; restore them after."""
        saved = []
        try:
            for owner, attr, wrap, name in self._targets(bench):
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def _by_name(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        return {name: tuple(v) for name, v in out.items()}

    def layer_metrics(self, stats) -> dict[str, tuple[float, str]]:
        """Every per-layer metric but ``trace.overhead_ratio``, which needs
        an untraced run of the same work."""
        spans = self._by_name()

        def calls(name):
            return spans.get(name, (0, 0.0, 0.0))[0]

        def total(name):
            return spans.get(name, (0, 0.0, 0.0))[1]

        def mean(name, scale):
            return total(name) / calls(name) * scale if calls(name) else 0.0

        rounds = calls("sim.simulate_round")

        def per_round(value):
            return value / rounds if rounds else 0.0

        cases = sum(c for _, c, _ in self.reports)
        audit_s = total("verify.correctness") + total("verify.privacy")
        census = [d for name, _, d in self.reports if name == "verify.privacy"]
        values = {
            "field.determinant_calls": calls("field.determinant"),
            "field.inverse_calls": calls("field.inverse"),
            "field.null_space_basis_ms": mean("field.null_space_basis", 1e3),
            "codes.build_vandermonde_pair_ms": mean("codes.build_vandermonde_pair", 1e3),
            "protocol.encode_storage_ms": mean("protocol.encode_storage", 1e3),
            "protocol.encode_storage_calls": calls("protocol.encode_storage"),
            "codes.h_sub_inverse_calls": calls("codes.h_sub_inverse"),
            "protocol.draw_randomness_us": mean("protocol.draw_randomness", 1e6),
            "protocol.attach_shares_us": mean("protocol.attach_shares", 1e6),
            "sim.round_self_ms": per_round(spans.get("sim.simulate_round", (0, 0, 0))[2]) * 1e3,
            "sim.server_receive_ms": per_round(total("sim.server_receive")) * 1e3,
            "sim.user_receive_ms": per_round(total("sim.user_receive")) * 1e3,
            "codes.decode_vector_us": mean("codes.decode_vector", 1e6),
            "sim.frame_encode_ms": per_round(total("sim.frames_to_bytes")) * 1e3,
            "sim.frame_decode_ms": per_round(total("sim.decode_frame")) * 1e3,
            "sim.frames_per_round": per_round(stats.frames),
            "sim.wire_bytes_per_round": per_round(stats.wire_bytes),
            "sim.answer_bytes_per_round": per_round(stats.answer_bytes),
            "analysis.report_us": per_round(
                total("analysis.rate_report") + total("analysis.download_floor_check")
            ) * 1e6,
            "verify.cases": cases,
            "verify.cases_per_s": cases / audit_s if audit_s else 0.0,
            "verify.correctness_s": total("verify.correctness"),
            "verify.privacy_s": total("verify.privacy"),
            "verify.build_storage_calls": self.calls["verify.build_storage"],
            "verify.answers_calls": self.calls["verify.answers"],
            "verify.answers_s": self.busy["verify.answers"],
            "verify.census_size": census[0] if census else 0,
            "cli.build_instance_ms": mean("cli.build_instance", 1e3),
        }
        return {name: (values[name], unit) for name, unit in LAYER_METRICS if name in values}

    def write(self, path, **header) -> None:
        """Write the spans and tallies as one JSON document."""
        origin = self.spans[0][1] if self.spans else 0.0
        doc = {
            **header,
            "span_fields": ["name", "start_us", "end_us", "parent", "root"],
            "spans": [
                [name, round((s - origin) * 1e6, 3), round((e - origin) * 1e6, 3), p, r]
                for name, s, e, p, r in self.spans
            ],
            "tallies": {
                name: {"calls": self.calls[name], "seconds": self.busy[name]}
                for name in sorted(self.calls)
            },
            "reports": self.reports,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
