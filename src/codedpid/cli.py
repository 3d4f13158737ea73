"""Command-line interface.

Subcommands::

    pid setup   -c CONFIG -o DIR        build an instance directory
    pid deliver -i DIR -d D [--seed S]  run one delivery round over the wire
    pid verify  -i DIR | -c CONFIG      audit correctness / privacy
    pid sweep   --k K --m M --l L --n-range A:B    rate table as CSV
    pid table-l --k-range A:B --n-range A:B        valid message lengths

Exit codes: 0 success, 2 bad input, 3 verification failure.  ``pid verify``
certifies every case by rank, so a valid config ends in a verdict, 0 or 3.
It writes its counts in decimal for an instance of at most
``DECIMAL_CASES`` (10^7) cases, and as powers of q past it.  ``main``
reports every refusal, the command line's (``CliError``) and the
library's (any ``ValueError``), and any file that cannot be read or
written (``OSError``), as one ``error:`` line and exit 2.

Config files are ``key = value`` lines; values are Python literals (lists,
ints, quoted strings; integers, integer lists and plain strings are read with
no compile) with ``#`` comments outside quotes.  Keys: q, K, N, L,
mode, association, points, generator_override, seed, messages, name.  Numbers and
list entries must be integers (not floats or bools), and q must lie below
2^32, the 4-byte wire symbol; anything else exits 2.  Instance
directories hold instance.cfg, code.txt, messages.txt, storage.txt and gain
transcript.txt + frames.log after a delivery; messages.txt and storage.txt
are read like configs, and storage.txt must hold its messages' storage.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import functools
import json
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from codedpid.analysis import (
    download_floor_check,
    rate_report,
    sweep_rate_vs_n,
    sweep_to_csv,
    valid_msg_lens,
)
from codedpid.codes import CodePair, _override_pair, build_vandermonde_pair
from codedpid.field import MODULUS_LIMIT
from codedpid.protocol import (
    CANONICAL,
    EXPLICIT,
    Message,
    PidConfig,
    _all_ints,
    _check_messages,
    encode_storage,
    make_association,
    random_messages,
)
from codedpid.sim import byte_accounting, simulate_round, write_frame_log
from codedpid import verify as verify_mod

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERDICT_FAIL = 3
# Most cases whose counts ``pid verify`` writes in decimal.
DECIMAL_CASES = 10**7


class CliError(ValueError):
    """Input that the command line itself refuses (exit 2, as every
    ``ValueError`` that reaches ``main``)."""


# -- config files --------------------------------------------------------------

_CONFIG_KEYS = {
    "name",
    "q",
    "K",
    "N",
    "L",
    "mode",
    "association",
    "points",
    "generator_override",
    "seed",
    "messages",
}
_REQUIRED_KEYS = ("q", "K", "N", "L")


@dataclass(frozen=True)
class InstanceConfig:
    """Parsed contents of a config file."""

    name: str
    q: int
    k_messages: int
    n_servers: int
    msg_len: int
    mode: str
    association: tuple | None
    points: tuple | None
    generator_override: tuple | None
    seed: int | None
    messages: tuple | None


# A line's text before its first ``#`` outside a quoted string; a quote
# that never closes is read as a plain character.
_BEFORE_COMMENT = re.compile(
    r"""(?:[^#'"]|'(?:\\.|[^'\\])*'|"(?:\\.|[^"\\])*"|['"])*"""
)
# Values ``_literal`` reads without compiling: ints and int lists nested at most
# 3 deep (``json.loads`` reads deeper lists that ``literal_eval`` refuses past
# 200 levels), and quoted strings free of escapes, NUL, line breaks, surrogates.
_INT_TEXT = r"[-0-9, \t]"
_INT_LISTS = re.compile(
    rf"(?:{_INT_TEXT}|\[(?:{_INT_TEXT}|\[(?:{_INT_TEXT}|\[{_INT_TEXT}*\])*\])*\])*"
)
_PLAIN_STRING = re.compile(
    "|".join(rf"{q}[^{q}\\\0\n\r\ud800-\udfff]*{q}" for q in "'\"")
)


def _literal(rhs: str):
    """``rhs`` as ``ast.literal_eval`` reads it (value and type), else the
    bare text; only what the patterns above do not read is compiled."""
    if _PLAIN_STRING.fullmatch(rhs):
        return rhs[1:-1]
    if _INT_LISTS.fullmatch(rhs):
        with contextlib.suppress(ValueError):  # such as ``- 5``, ``[1,]``, ``00``
            return json.loads(rhs)
    try:
        return ast.literal_eval(rhs)
    except (ValueError, SyntaxError, TypeError):
        return rhs


def _read_kv(text: str, known, where: str = "") -> dict[str, object]:
    """The ``key = value`` lines of a config, messages.txt or storage.txt:
    Python literals, else the bare text (e.g. mode names), ``#`` comments.
    A ``#`` inside a quoted value is part of it.  Refuses a line without
    ``=``, a key outside ``known`` and a repeated key, naming the line after
    ``where``."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _BEFORE_COMMENT.match(raw).group().strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{where}line {lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key not in known:
            raise CliError(
                f"{where}line {lineno}: unknown key {key!r} (known: {sorted(known)})"
            )
        if key in values:
            raise CliError(f"{where}line {lineno}: duplicate key {key!r}")
        values[key] = _literal(rhs)
    return values


def _ints(key: str, v, what: str) -> tuple[int, ...]:
    """``v`` as a tuple of integers, refusing floats and bools."""
    if not isinstance(v, (list, tuple)):
        raise CliError(f"key {key!r} must be {what}, got {v!r}")
    if not _all_ints(v):
        entry = next(entry for entry in v if not _all_ints((entry,)))
        raise CliError(f"key {key!r} entries must be integers, got {entry!r}")
    return tuple(v)


def _int_rows(key: str, rows, what: str) -> tuple[tuple[int, ...], ...] | None:
    """``rows`` as a tuple of integer tuples; None stays None."""
    if rows is None:
        return None
    if not isinstance(rows, (list, tuple)):
        raise CliError(f"key {key!r} must be a list of {what}")
    return tuple(_ints(key, row, f"a list of {what}") for row in rows)


def parse_config_text(text: str, name: str = "instance") -> InstanceConfig:
    values = _read_kv(text, _CONFIG_KEYS)
    for key in _REQUIRED_KEYS:
        if key not in values:
            raise CliError(f"config is missing required key {key!r}")

    def _as_int(key: str) -> int:
        v = values[key]
        if not _all_ints((v,)):
            raise CliError(f"key {key!r} must be an integer, got {v!r}")
        return v

    q = _as_int("q")
    if q >= MODULUS_LIMIT:
        raise CliError(
            f"key 'q' must be below 2^32 (one 4-byte wire symbol), got {q}"
        )
    k = _as_int("K")
    n = _as_int("N")
    l = _as_int("L")
    association = _int_rows("association", values.get("association"), "host lists")
    mode = values.get("mode")
    if mode is None:
        mode = EXPLICIT if association is not None else CANONICAL
    if not isinstance(mode, str) or mode not in (CANONICAL, EXPLICIT):
        raise CliError(
            f"key 'mode' must be '{CANONICAL}' or '{EXPLICIT}', got {mode!r}"
        )
    points = values.get("points")
    if points is not None:
        points = _ints("points", points, "a list of integers")
    gen = _int_rows("generator_override", values.get("generator_override"), "rows")
    seed = values.get("seed")
    if seed is not None and (not _all_ints((seed,)) or seed < 0):
        raise CliError(f"key 'seed' must be a non-negative integer, got {seed!r}")
    messages = _int_rows("messages", values.get("messages"), "symbol lists")
    cfg_name = values.get("name", name)
    if not isinstance(cfg_name, str):
        raise CliError(f"key 'name' must be a string, got {cfg_name!r}")
    return InstanceConfig(
        name=cfg_name,
        q=q,
        k_messages=k,
        n_servers=n,
        msg_len=l,
        mode=mode,
        association=association,
        points=points,
        generator_override=gen,
        seed=seed,
        messages=messages,
    )


def load_config(path: str | Path) -> InstanceConfig:
    path = Path(path)
    if not path.is_file():
        raise CliError(f"config file not found: {path}")
    return parse_config_text(path.read_text(), name=path.stem)


def build_instance(cfg: InstanceConfig) -> tuple[PidConfig, CodePair]:
    config = make_association(
        q=cfg.q,
        k_messages=cfg.k_messages,
        n_servers=cfg.n_servers,
        msg_len=cfg.msg_len,
        mode=cfg.mode,
        association=cfg.association,
    )
    code_args = (cfg.q, cfg.n_servers, cfg.msg_len, cfg.points)
    if cfg.generator_override is None:
        return config, build_vandermonde_pair(*code_args)
    return config, _override_pair(*code_args, cfg.generator_override)


def instance_messages(
    cfg: InstanceConfig, config: PidConfig, seed: int | None
) -> tuple[Message, ...]:
    """The config's messages if it lists them, else K random ones drawn
    from ``seed``."""
    if cfg.messages is None:
        return random_messages(config, seed)
    return _messages(cfg.messages, config)


def _messages(rows, config: PidConfig) -> tuple[Message, ...]:
    """Messages 1..K from integer ``rows``, refused unless there are K rows
    of L symbols mod q."""
    messages = tuple(
        Message(index=i, symbols=row, modulus=config.modulus)
        for i, row in enumerate(rows, start=1)
    )
    _check_messages(messages, config.k_messages, config.modulus, config.msg_len)
    return messages


# -- instance directories -------------------------------------------------------


def _storage_entries(storage) -> dict[str, list]:
    """The storage.txt entries of ``storage``: ``server_n`` maps to server
    n's [message id, [symbols]] pairs."""
    return {
        f"server_{st.server_id}": [[k, list(syms)] for k, syms in st.fragments]
        for st in storage
    }


def write_instance_dir(
    out_dir: Path,
    cfg: InstanceConfig,
    config: PidConfig,
    code: CodePair,
    messages: tuple[Message, ...],
) -> None:
    entries = _storage_entries(encode_storage(config, code, messages))
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [
        f"name = {cfg.name!r}",
        f"q = {config.modulus}",
        f"K = {config.k_messages}",
        f"N = {config.n_servers}",
        f"L = {config.msg_len}",
        f"mode = {config.mode!r}",
    ]
    if config.mode == EXPLICIT:
        # Canonical mode derives its association and refuses a given one.
        lines.append(
            f"association = {[list(h) for h in config.association]!r}"
        )
    lines.append(f"points = {list(code.points)!r}")
    if cfg.generator_override is not None:
        lines.append(
            f"generator_override = {[list(r) for r in cfg.generator_override]!r}"
        )
    if cfg.seed is not None:
        lines.append(f"seed = {cfg.seed}")
    (out_dir / "instance.cfg").write_text("\n".join(lines) + "\n")

    code_lines = [
        f"q = {code.modulus}",
        f"points = {list(code.points)!r}",
        f"parity_check = {code.parity_check.to_lists()!r}",
        f"generator = {code.generator.to_lists()!r}",
    ]
    (out_dir / "code.txt").write_text("\n".join(code_lines) + "\n")

    (out_dir / "messages.txt").write_text(
        f"messages = {[list(m.symbols) for m in messages]!r}\n"
    )
    (out_dir / "storage.txt").write_text(
        "".join(f"{key} = {entry!r}\n" for key, entry in entries.items())
    )


def _instance_file(inst: Path, name: str) -> str:
    path = inst / name
    if not path.is_file():
        raise CliError(f"instance directory is missing {name}: {inst}")
    return path.read_text()


def load_instance_dir(
    path: str | Path,
) -> tuple[InstanceConfig, PidConfig, CodePair, tuple[Message, ...]]:
    """The instance in directory ``path``, refused unless its messages.txt
    holds K messages of L symbols and its storage.txt exactly their
    storage under its config and code."""
    inst = Path(path)
    cfg_path = inst / "instance.cfg"
    if not cfg_path.is_file():
        raise CliError(f"not an instance directory (no instance.cfg): {inst}")
    cfg = load_config(cfg_path)
    config, code = build_instance(cfg)
    text = _instance_file(inst, "messages.txt")
    listed = _read_kv(text, {"messages"}, "messages.txt ").get("messages", ())
    messages = _messages(_int_rows("messages", listed, "symbol lists"), config)
    entries = _storage_entries(encode_storage(config, code, messages))
    stored = _read_kv(_instance_file(inst, "storage.txt"), entries, "storage.txt ")
    if stored != entries:
        raise CliError("storage.txt does not match the messages in this instance")
    return cfg, config, code, messages


# -- subcommands ----------------------------------------------------------------


def _seed(flag: int | None, cfg: InstanceConfig) -> int | None:
    """The ``--seed`` flag if given, else the config's seed."""
    if flag is None:
        return cfg.seed
    if flag < 0:
        raise CliError(f"--seed must be non-negative, got {flag}")
    return flag


def cmd_setup(args) -> int:
    cfg = load_config(args.config)
    config, code = build_instance(cfg)
    # instance.cfg records the seed that drew the messages; a later
    # ``pid deliver`` without --seed masks with it
    cfg = replace(cfg, seed=_seed(args.seed, cfg))
    messages = instance_messages(cfg, config, cfg.seed)
    out_dir = Path(args.output)
    write_instance_dir(out_dir, cfg, config, code, messages)
    print(f"instance '{cfg.name}' written to {out_dir}")
    print(
        f"q={config.modulus} K={config.k_messages} N={config.n_servers} "
        f"L={config.msg_len} mode={config.mode}"
    )
    print(f"storage per server: {config.storage_per_server} messages"
          if config.is_balanced else "storage is not balanced across servers")
    return EXIT_OK


def cmd_deliver(args) -> int:
    cfg, config, code, messages = load_instance_dir(args.instance)
    d = args.message
    seed = _seed(args.seed, cfg)
    # The library refuses a request outside 1..K.
    result = simulate_round(config, code, messages, d, seed=seed)
    transcript = result.transcript

    inst = Path(args.instance)
    t_lines = [
        f"d = {transcript.requested}",
        f"seed = {seed!r}",
        f"mask = {list(transcript.mask_vector or ())!r}",
        f"answers = {[list(a) for a in transcript.answers]!r}",
        f"counts = {list(transcript.transmission_counts)!r}",
        f"decoded = {list(transcript.decoded)!r}",
        f"rate = {str(transcript.rate)!r}",
    ]
    (inst / "transcript.txt").write_text("\n".join(t_lines) + "\n")
    write_frame_log(inst / "frames.log", result.frames)

    report = rate_report(config, transcript)
    floor_check = download_floor_check(config, transcript)
    accounting = byte_accounting(result.frames, config.n_servers)
    ok = transcript.decoded == messages[d - 1].symbols
    print(f"delivered message {d}: {'ok' if ok else 'MISMATCH'}")
    print(f"downloaded symbols per server: {list(transcript.transmission_counts)}")
    if report.capacity is None:
        print(f"rate = {report.achieved} (capacity not characterized: "
              f"storage is not balanced)")
    else:
        print(f"rate = {report.achieved} (capacity {report.capacity}, "
              f"{'met' if report.meets_capacity else 'NOT met'})")
    print(f"mask overhead: total {report.randomness.total}, "
          f"per server {report.randomness.per_server}")
    print(f"host-set download sums: {list(floor_check.sums)} (floor {floor_check.floor}, "
          f"{'ok' if floor_check.ok else 'VIOLATED'})")
    print(f"wire: {accounting.total_bytes} bytes total, "
          f"{accounting.header_bytes} header, "
          f"answer payloads {sum(accounting.answer_payload_bytes)}")
    print(f"transcript.txt and frames.log written to {inst}")
    if not ok:
        return EXIT_VERDICT_FAIL
    return EXIT_OK


def _parse_corrupt(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise CliError(
            "--corrupt takes SERVER,MESSAGE,POSITION,DELTA (four integers)"
        )
    try:
        server, msg, pos, delta = (int(p) for p in parts)
    except ValueError:
        raise CliError("--corrupt values must be integers") from None
    return server, msg, pos, delta


def cmd_verify(args) -> int:
    if args.instance:
        cfg, config, code, _ = load_instance_dir(args.instance)
    else:
        cfg = load_config(args.config)
        config, code = build_instance(cfg)

    if args.scheme == "split" and args.corrupt:
        raise CliError("--corrupt applies to the masked scheme only")
    corrupt = _parse_corrupt(args.corrupt) if args.corrupt else None
    if args.scheme == "split":
        scheme = verify_mod.split_scheme(config)
    else:
        scheme = verify_mod.masked_scheme(config, code, corrupt=corrupt)
    c_report, p_report = verify_mod.scheme_audit(
        scheme,
        correctness=args.property != "privacy",
        privacy=args.property != "correctness",
    )
    # Past DECIMAL_CASES, counts are written as powers of q: they can run
    # past the digits ``str`` writes.
    power = verify_mod.case_count(scheme) > DECIMAL_CASES
    count = functools.partial(verify_mod.power_text, q=config.modulus) if power else str
    if c_report is not None:
        print(
            verify_mod.verdict_line(
                "correctness", cfg.name, c_report.passed,
                verify_mod.case_text(scheme) if power else c_report.cases,
            )
        )
        if not c_report.passed:
            ce = c_report.counterexample
            print(
                f"  counterexample: messages={ce.messages} mask={ce.mask} "
                f"d={ce.requested} decoded={ce.decoded} expected={ce.expected}"
            )
    if p_report is not None:
        print(
            verify_mod.verdict_line(
                "privacy", cfg.name, p_report.passed,
                verify_mod.case_text(scheme) if power else p_report.cases,
            )
        )
        print(
            f"  distinct answer vectors: {count(p_report.distinct_answers)}; "
            f"uniform over them: {'yes' if p_report.uniform else 'no'}"
        )
        if not p_report.passed:
            mm = p_report.mismatch
            print(
                f"  leak: answer {mm.answer} occurs {count(mm.count_a)}x for "
                f"d={mm.request_a} but {count(mm.count_b)}x for d={mm.request_b}"
            )
    passed = all(r.passed for r in (c_report, p_report) if r is not None)
    return EXIT_OK if passed else EXIT_VERDICT_FAIL


def _parse_range(text: str) -> range:
    lo, _, hi = text.partition(":")
    try:
        start, stop = int(lo), int(hi)
    except ValueError:
        raise CliError(f"range must be A:B with integers, got {text!r}") from None
    if stop < start:
        raise CliError(f"empty range {text!r}")
    return range(start, stop + 1)


def cmd_sweep(args) -> int:
    try:
        m = Fraction(args.m)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"--m must be an integer or fraction, got {args.m!r}") from None
    if m <= 0:
        raise CliError(f"--m must be positive, got {args.m!r}")
    n_values = _parse_range(args.n_range)
    if n_values.start < 1:
        raise CliError("--n-range must be positive")
    if args.k < 1 or args.l < 1:
        raise CliError("--k and --l must be positive")
    rows = sweep_rate_vs_n(args.k, m, args.l, n_values)
    csv = sweep_to_csv(rows)
    if args.output:
        Path(args.output).write_text(csv)
        print(f"wrote {len(rows)} rows to {args.output}")
    else:
        print(csv, end="")
    return EXIT_OK


def cmd_table_l(args) -> int:
    k_values = _parse_range(args.k_range)
    n_values = _parse_range(args.n_range)
    if k_values.start < 1 or n_values.start < 1:
        raise CliError("--k-range and --n-range must be positive")
    header = ["K\\N"] + [str(n) for n in n_values]
    rows = [header]
    for k in k_values:
        row = [str(k)]
        for n in n_values:
            lens = valid_msg_lens(k, n)
            if lens == tuple(range(1, n + 1)):
                row.append(f"[{n}]")
            else:
                row.append(",".join(str(v) for v in lens))
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    for r in rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``pid`` parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="pid",
        description="Private delivery of one of K messages from coded server storage.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_setup = sub.add_parser("setup", help="build an instance directory from a config")
    p_setup.add_argument("-c", "--config", required=True, help="config file")
    p_setup.add_argument("-o", "--output", required=True, help="instance directory")
    p_setup.add_argument("--seed", type=int, default=None, help="message seed")
    p_setup.set_defaults(func=cmd_setup)

    p_deliver = sub.add_parser("deliver", help="run one delivery round")
    p_deliver.add_argument("-i", "--instance", required=True, help="instance directory")
    p_deliver.add_argument("-d", "--message", type=int, required=True,
                           help="message id to retrieve (1-based)")
    p_deliver.add_argument("--seed", type=int, default=None, help="mask seed")
    p_deliver.set_defaults(func=cmd_deliver)

    p_verify = sub.add_parser("verify", help="audit correctness and privacy")
    src = p_verify.add_mutually_exclusive_group(required=True)
    src.add_argument("-i", "--instance", help="instance directory")
    src.add_argument("-c", "--config", help="config file")
    p_verify.add_argument("--property", choices=["correctness", "privacy", "both"],
                          default="both")
    p_verify.add_argument("--scheme", choices=["masked", "split"], default="masked",
                          help="audit the real scheme or the unmasked negative control")
    p_verify.add_argument("--corrupt", default=None, metavar="N,K,POS,DELTA",
                          help="flip one stored symbol before the audit")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="rate vs server count, as CSV")
    p_sweep.add_argument("--k", type=int, required=True, help="message count K")
    p_sweep.add_argument("--m", required=True,
                         help="storage per server in messages (int or p/q)")
    p_sweep.add_argument("--l", type=int, required=True, help="message length L")
    p_sweep.add_argument("--n-range", required=True, metavar="A:B",
                         help="server counts, inclusive")
    p_sweep.add_argument("-o", "--output", default=None, help="write CSV here")
    p_sweep.set_defaults(func=cmd_sweep)

    p_table = sub.add_parser("table-l", help="valid message lengths per (K, N)")
    p_table.add_argument("--k-range", required=True, metavar="A:B")
    p_table.add_argument("--n-range", required=True, metavar="A:B")
    p_table.set_defaults(func=cmd_table_l)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
