"""Exact rate, storage and randomness accounting.

Everything here is a ``fractions.Fraction``; no floats.  The quantities:

* ``coded_capacity``: with minimal balanced storage (K/N messages per
  server), the best possible download rate is L/N, and the coded scheme
  meets it.  ``rate_report`` claims it for balanced associations only.
* ``subset_scheme_rate``: with room for M messages per server, running the
  scheme on only ceil(K/M) servers lifts the rate to L/ceil(K/M), and to 1
  once L reaches that count.
* ``uncoded_bounds``: storing whole messages (integer M per server) caps the
  rate between 1/ceil(K/M) and M/K.
* ``randomness_overheads``: mask symbols per delivered symbol, total and per
  server.
* ``download_floor_check``: any correct+private delivery must download at
  least L symbols from every host set; checks a transcript against that.
* ``sweep_rate_vs_n`` / ``sweep_to_csv``: tabulate all of the above over a
  range of server counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from codedpid.protocol import (
    DeliveryTranscript,
    PidConfig,
    _active_count,
    _check_positive,
    _subset_active,
    valid_msg_lens,
)

__all__ = [
    "coded_capacity",
    "active_server_count",
    "achievable_coded_rate",
    "subset_scheme_rate",
    "uncoded_bounds",
    "randomness_overheads",
    "RandomnessReport",
    "uncoded_randomness_overhead",
    "valid_msg_lens",
    "download_floor_check",
    "DownloadFloorCheck",
    "rate_report",
    "RateReport",
    "SweepRow",
    "sweep_rate_vs_n",
    "sweep_to_csv",
    "format_fraction",
    "CSV_HEADER",
]


def coded_capacity(k_messages: int, n_servers: int, msg_len: int) -> Fraction:
    """Best possible rate at minimal balanced storage: L/N.

    Equivalently M*L/K with M = K/N messages of storage per server.
    """
    _check_positive(k_messages=k_messages, n_servers=n_servers, msg_len=msg_len)
    if msg_len > n_servers:
        raise ValueError(f"message length {msg_len} exceeds {n_servers} servers")
    return Fraction(msg_len, n_servers)


def active_server_count(k_messages: int, storage_limit) -> int:
    """ceil(K/M): how many servers must participate given M storage each."""
    return _active_count(k_messages, storage_limit)


def achievable_coded_rate(
    k_messages: int, n_servers: int, storage_limit, msg_len: int
) -> Fraction:
    """Coded rate with M messages of storage per server: L/ceil(K/M), capped at 1.

    Runs the scheme on the ceil(K/M) servers that suffice to hold everything
    (all N of them when M = K/N exactly).  Requires K/N <= M and the
    divisibility that makes the active association balanced (active | K*L
    when L is below the active count, active | L at or above it); raises
    otherwise.  These are the checks of ``protocol.run_subset_scheme``.
    """
    active = _subset_active(k_messages, n_servers, storage_limit, msg_len)
    if msg_len < active:
        return Fraction(msg_len, active)
    return Fraction(1)


def subset_scheme_rate(
    k_messages: int, n_servers: int, storage_limit, msg_len: int
) -> Fraction:
    """Rate of the proper subset scheme: L/ceil(K/M), saturating at 1.

    The strict form: requires N > K/M, so at least the slack to leave some
    work undone (with M = K/N exactly, see ``coded_capacity`` instead).
    Divisibility as in ``achievable_coded_rate``; raises when undefined.
    """
    m = Fraction(storage_limit)
    # achievable_coded_rate refuses M <= 0; the strict form needs M > 0 to test.
    if m > 0 and Fraction(k_messages) / m >= n_servers:
        raise ValueError(
            f"subset scheme needs N > K/M, got N={n_servers}, "
            f"K/M={Fraction(k_messages) / m}"
        )
    return achievable_coded_rate(k_messages, n_servers, m, msg_len)


def uncoded_bounds(k_messages: int, storage_limit: int) -> tuple[Fraction, Fraction]:
    """Rate bounds when servers store whole messages: 1/ceil(K/M) .. M/K.

    Only defined for integer storage (whole messages); raises otherwise.
    """
    if storage_limit != int(storage_limit):
        raise ValueError(
            f"uncoded storage must be a whole number of messages, got {storage_limit}"
        )
    m = int(storage_limit)
    if not 1 <= m:
        raise ValueError(f"storage limit must be positive, got {m}")
    _check_positive(k_messages=k_messages)
    lower = Fraction(1, math.ceil(Fraction(k_messages, m)))
    upper = min(Fraction(m, k_messages), Fraction(1))
    return lower, upper


@dataclass(frozen=True)
class RandomnessReport:
    """Mask symbols per delivered message symbol."""

    total: Fraction
    per_server: Fraction


def randomness_overheads(
    k_messages: int, n_servers: int, msg_len: int
) -> RandomnessReport:
    """Coded-scheme randomness cost at minimal storage.

    The dealer draws N-L mask symbols per delivery of L symbols: total
    overhead (N-L)/L = N/L - 1, of which each server holds a 1/L share.
    With L = N no mask is drawn, so a server holds no share of it.
    """
    _check_positive(k_messages=k_messages, n_servers=n_servers, msg_len=msg_len)
    if msg_len > n_servers:
        raise ValueError(f"message length {msg_len} exceeds {n_servers} servers")
    return RandomnessReport(
        total=Fraction(n_servers, msg_len) - 1,
        per_server=Fraction(1 if msg_len < n_servers else 0, msg_len),
    )


def uncoded_randomness_overhead(k_messages: int, storage_limit: int) -> Fraction:
    """Randomness cost of the whole-message analogue: K/M - 1."""
    if storage_limit != int(storage_limit) or storage_limit < 1:
        raise ValueError(
            f"uncoded storage must be a positive whole number, got {storage_limit}"
        )
    return Fraction(k_messages, int(storage_limit)) - 1


@dataclass(frozen=True)
class DownloadFloorCheck:
    """Host-set download sums versus the feasibility floor L."""

    ok: bool
    sums: tuple[int, ...]
    floor: int
    failing_messages: tuple[int, ...]


def download_floor_check(
    config: PidConfig, transcript: DeliveryTranscript
) -> DownloadFloorCheck:
    """Check sum of downloads over every host set is at least L.

    Any scheme that is correct for every possible request and keeps the
    request private must pull at least L symbols out of each message's host
    set; a transcript violating this cannot come from such a scheme.

    The K host-set sums are one product of the config's host incidence
    (``PidConfig.host_incidence``, built once per config) with the N
    per-server counts.
    """
    counts = transcript.transmission_counts
    if len(counts) != config.n_servers:
        raise ValueError(
            f"transcript has {len(counts)} servers, config has {config.n_servers}"
        )
    sums = config.host_incidence @ np.array(counts, dtype=np.int64)
    failing = tuple((np.flatnonzero(sums < config.msg_len) + 1).tolist())
    return DownloadFloorCheck(
        ok=not failing,
        sums=tuple(sums.tolist()),
        floor=config.msg_len,
        failing_messages=failing,
    )


@dataclass(frozen=True)
class RateReport:
    """A transcript's achieved rate against the instance capacity, which is
    None where it is not characterized."""

    achieved: Fraction
    capacity: Fraction | None
    meets_capacity: bool
    randomness: RandomnessReport


def rate_report(config: PidConfig, transcript: DeliveryTranscript) -> RateReport:
    """The capacity L/N is proved for balanced associations only (every
    server hosting as many fragments); an unbalanced one can beat it, so its
    capacity is reported as not characterized (None)."""
    capacity = None
    if config.is_balanced:
        capacity = coded_capacity(config.k_messages, config.n_servers, config.msg_len)
    achieved = transcript.rate
    return RateReport(
        achieved=achieved,
        capacity=capacity,
        meets_capacity=achieved == capacity,
        randomness=randomness_overheads(
            config.k_messages, config.n_servers, config.msg_len
        ),
    )


# -- sweeps -------------------------------------------------------------------

CSV_HEADER = "N,c_us_lower,c_us_upper,coded_rate,valid"


@dataclass(frozen=True)
class SweepRow:
    """One server count in a rate sweep; None marks an undefined quantity."""

    n_servers: int
    c_us_lower: Fraction | None
    c_us_upper: Fraction | None
    coded_rate: Fraction | None

    @property
    def valid(self) -> bool:
        return self.coded_rate is not None


def sweep_rate_vs_n(
    k_messages: int, storage_limit, msg_len: int, n_values
) -> tuple[SweepRow, ...]:
    """Rates across server counts at fixed K, M, L.

    Whole-message bounds need integer M and enough servers to hold every
    message somewhere; the coded subset rate needs N > K/M plus the
    divisibility conditions.  Undefined cells become None.
    """
    m = Fraction(storage_limit)
    rows = []
    for n in n_values:
        lower = upper = None
        if m.denominator == 1:
            needed = active_server_count(k_messages, m)
            if n >= needed:
                lower, upper = uncoded_bounds(k_messages, int(m))
        try:
            coded = achievable_coded_rate(k_messages, n, m, msg_len)
        except ValueError:
            coded = None
        rows.append(
            SweepRow(
                n_servers=int(n),
                c_us_lower=lower,
                c_us_upper=upper,
                coded_rate=coded,
            )
        )
    return tuple(rows)


def format_fraction(value: Fraction | None) -> str:
    """Exact p/q rendering; '-' for undefined."""
    if value is None:
        return "-"
    return str(value)


def sweep_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                [
                    str(row.n_servers),
                    format_fraction(row.c_us_lower),
                    format_fraction(row.c_us_upper),
                    format_fraction(row.coded_rate),
                    "1" if row.valid else "0",
                ]
            )
        )
    return "\n".join(lines) + "\n"
