"""Command-line interface.

Subcommands::

    pid setup   -c CONFIG -o DIR        build an instance directory
    pid deliver -i DIR -d D [--seed S]  run one delivery round over the wire
    pid verify  -i DIR | -c CONFIG      audit correctness / privacy
    pid sweep   --k K --m M --l L --n-range A:B    rate table as CSV
    pid table-l --k-range A:B --n-range A:B        valid message lengths

Exit codes: 0 success, 2 validation error, 3 verification failure,
4 exhaustive budget exceeded.  The PID_BUDGET environment variable overrides
the default exhaustive-audit budget.

Config files are ``key = value`` lines; values are Python literals (lists,
ints, quoted strings) with ``#`` comments.  Keys: q, K, N, L, mode,
association, points, generator_override, seed, messages, name.  Instance
directories hold instance.cfg, code.txt, messages.txt, storage.txt and gain
transcript.txt + frames.log after a delivery.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from codedpid.analysis import (
    download_floor_check,
    rate_report,
    sweep_rate_vs_n,
    sweep_to_csv,
    valid_msg_lens,
)
from codedpid.codes import CodePair, build_vandermonde_pair, override_generator
from codedpid.protocol import (
    CANONICAL,
    EXPLICIT,
    Message,
    PidConfig,
    ServerState,
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
EXIT_BUDGET = 4


class CliError(Exception):
    def __init__(self, message: str, exit_code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.exit_code = exit_code


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


def parse_config_text(text: str, name: str = "instance") -> InstanceConfig:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key not in _CONFIG_KEYS:
            raise CliError(
                f"line {lineno}: unknown key {key!r} (known: {sorted(_CONFIG_KEYS)})"
            )
        if key in values:
            raise CliError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = ast.literal_eval(rhs)
        except (ValueError, SyntaxError):
            # bare words (e.g. mode names) read as strings
            values[key] = rhs
    for key in _REQUIRED_KEYS:
        if key not in values:
            raise CliError(f"config is missing required key {key!r}")

    def _as_int(key: str) -> int:
        v = values[key]
        if not isinstance(v, int) or isinstance(v, bool):
            raise CliError(f"key {key!r} must be an integer, got {v!r}")
        return v

    q = _as_int("q")
    k = _as_int("K")
    n = _as_int("N")
    l = _as_int("L")
    association = values.get("association")
    mode = values.get("mode")
    if mode is None:
        mode = EXPLICIT if association is not None else CANONICAL
    if not isinstance(mode, str) or mode not in (CANONICAL, EXPLICIT):
        raise CliError(
            f"key 'mode' must be '{CANONICAL}' or '{EXPLICIT}', got {mode!r}"
        )
    if association is not None:
        if not isinstance(association, (list, tuple)):
            raise CliError("key 'association' must be a list of host lists")
        association = tuple(tuple(h) for h in association)
    points = values.get("points")
    if points is not None:
        if not isinstance(points, (list, tuple)):
            raise CliError("key 'points' must be a list of integers")
        points = tuple(points)
    gen = values.get("generator_override")
    if gen is not None:
        if not isinstance(gen, (list, tuple)):
            raise CliError("key 'generator_override' must be a list of rows")
        gen = tuple(tuple(row) for row in gen)
    seed = values.get("seed")
    if seed is not None and (
        not isinstance(seed, int) or isinstance(seed, bool) or seed < 0
    ):
        raise CliError(f"key 'seed' must be a non-negative integer, got {seed!r}")
    messages = values.get("messages")
    if messages is not None:
        if not isinstance(messages, (list, tuple)):
            raise CliError("key 'messages' must be a list of symbol lists")
        messages = tuple(tuple(m) for m in messages)
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
    try:
        config = make_association(
            q=cfg.q,
            k_messages=cfg.k_messages,
            n_servers=cfg.n_servers,
            msg_len=cfg.msg_len,
            mode=cfg.mode,
            association=cfg.association,
        )
        code = build_vandermonde_pair(
            cfg.q, cfg.n_servers, cfg.msg_len, points=cfg.points
        )
        if cfg.generator_override is not None:
            code = override_generator(code, cfg.generator_override)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return config, code


def instance_messages(
    cfg: InstanceConfig, config: PidConfig, seed: int | None
) -> tuple[Message, ...]:
    if cfg.messages is not None:
        if len(cfg.messages) != config.k_messages:
            raise CliError(
                f"config lists {len(cfg.messages)} messages, expected "
                f"{config.k_messages}"
            )
        try:
            return tuple(
                Message(index=i + 1, symbols=tuple(row), modulus=config.modulus)
                for i, row in enumerate(cfg.messages)
            )
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    return random_messages(config, seed)


# -- instance directories -------------------------------------------------------


def _fmt(value) -> str:
    return repr(value)


def write_instance_dir(
    out_dir: Path,
    cfg: InstanceConfig,
    config: PidConfig,
    code: CodePair,
    messages: tuple[Message, ...],
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [
        f"name = {_fmt(cfg.name)}",
        f"q = {config.modulus}",
        f"K = {config.k_messages}",
        f"N = {config.n_servers}",
        f"L = {config.msg_len}",
        f"mode = {_fmt(config.mode)}",
        f"association = {_fmt([list(h) for h in config.association])}",
        f"points = {_fmt(list(code.points))}",
    ]
    if cfg.generator_override is not None:
        lines.append(
            f"generator_override = {_fmt([list(r) for r in cfg.generator_override])}"
        )
    if cfg.seed is not None:
        lines.append(f"seed = {cfg.seed}")
    (out_dir / "instance.cfg").write_text("\n".join(lines) + "\n")

    code_lines = [
        f"q = {code.modulus}",
        f"points = {_fmt(list(code.points))}",
        f"parity_check = {_fmt(code.parity_check.to_lists())}",
        f"generator = {_fmt(code.generator.to_lists())}",
    ]
    (out_dir / "code.txt").write_text("\n".join(code_lines) + "\n")

    (out_dir / "messages.txt").write_text(
        f"messages = {_fmt([list(m.symbols) for m in messages])}\n"
    )

    storage = encode_storage(config, code, messages)
    storage_lines = [
        f"server_{st.server_id} = "
        f"{_fmt([[k, list(syms)] for k, syms in st.fragments])}"
        for st in storage
    ]
    (out_dir / "storage.txt").write_text("\n".join(storage_lines) + "\n")


def _parse_kv_file(path: Path) -> dict[str, object]:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path.name} line {lineno}: expected 'key = value'")
        key, _, rhs = line.partition("=")
        try:
            values[key.strip()] = ast.literal_eval(rhs.strip())
        except (ValueError, SyntaxError):
            values[key.strip()] = rhs.strip()
    return values


def load_instance_dir(
    path: str | Path,
) -> tuple[InstanceConfig, PidConfig, CodePair, tuple[Message, ...], tuple[ServerState, ...]]:
    inst = Path(path)
    cfg_path = inst / "instance.cfg"
    if not cfg_path.is_file():
        raise CliError(f"not an instance directory (no instance.cfg): {inst}")
    cfg = load_config(cfg_path)
    config, code = build_instance(cfg)

    msg_path = inst / "messages.txt"
    if not msg_path.is_file():
        raise CliError(f"instance directory is missing messages.txt: {inst}")
    msg_values = _parse_kv_file(msg_path)
    rows = msg_values.get("messages")
    if not isinstance(rows, (list, tuple)) or len(rows) != config.k_messages:
        raise CliError("messages.txt must define 'messages' with K rows")
    try:
        messages = tuple(
            Message(index=i + 1, symbols=tuple(row), modulus=config.modulus)
            for i, row in enumerate(rows)
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    storage_path = inst / "storage.txt"
    if not storage_path.is_file():
        raise CliError(f"instance directory is missing storage.txt: {inst}")
    storage_values = _parse_kv_file(storage_path)
    states = []
    for n in range(1, config.n_servers + 1):
        entry = storage_values.get(f"server_{n}")
        if not isinstance(entry, (list, tuple)):
            raise CliError(f"storage.txt is missing server_{n}")
        try:
            states.append(
                ServerState(
                    server_id=n,
                    fragments=tuple((k, tuple(syms)) for k, syms in entry),
                    share=None,
                    modulus=config.modulus,
                )
            )
        except (TypeError, ValueError) as exc:
            raise CliError(f"storage.txt server_{n}: {exc}") from exc
    return cfg, config, code, messages, tuple(states)


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
    seed = _seed(args.seed, cfg)
    messages = instance_messages(cfg, config, seed)
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
    cfg, config, code, messages, stored = load_instance_dir(args.instance)
    d = args.message
    if not 1 <= d <= config.k_messages:
        raise CliError(f"message id {d} outside 1..{config.k_messages}")
    seed = _seed(args.seed, cfg)

    # The stored fragments must agree with a fresh encode of the stored
    # messages (they do for directories written by `pid setup`).
    fresh = encode_storage(config, code, messages)
    if tuple(st.fragments for st in stored) != tuple(st.fragments for st in fresh):
        raise CliError("storage.txt does not match the messages in this instance")

    result = simulate_round(config, code, messages, d, seed=seed)
    transcript = result.transcript

    inst = Path(args.instance)
    t_lines = [
        f"d = {transcript.requested}",
        f"seed = {_fmt(seed)}",
        f"mask = {_fmt(list(transcript.mask_vector or ()))}",
        f"answers = {_fmt([list(a) for a in transcript.answers])}",
        f"counts = {_fmt(list(transcript.transmission_counts))}",
        f"decoded = {_fmt(list(transcript.decoded))}",
        f"rate = {_fmt(str(transcript.rate))}",
    ]
    (inst / "transcript.txt").write_text("\n".join(t_lines) + "\n")
    write_frame_log(inst / "frames.log", result.frames)

    report = rate_report(config, transcript)
    floor_check = download_floor_check(config, transcript)
    accounting = byte_accounting(result.frames, config.n_servers)
    ok = transcript.decoded == messages[d - 1].symbols
    print(f"delivered message {d}: {'ok' if ok else 'MISMATCH'}")
    print(f"downloaded symbols per server: {list(transcript.transmission_counts)}")
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
        cfg, config, code, _messages, _storage = load_instance_dir(args.instance)
    else:
        cfg = load_config(args.config)
        config, code = build_instance(cfg)

    if args.scheme == "split" and args.corrupt:
        raise CliError("--corrupt applies to the masked scheme only")
    corrupt = _parse_corrupt(args.corrupt) if args.corrupt else None
    try:
        if args.scheme == "split":
            scheme = verify_mod.split_scheme(config)
        else:
            scheme = verify_mod.masked_scheme(config, code, corrupt=corrupt)
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    properties = (
        ["correctness", "privacy"] if args.property == "both" else [args.property]
    )

    try:
        budget = verify_mod.resolve_budget(args.budget)
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    if args.probe is not None:
        try:
            report = verify_mod.randomized_privacy_probe(
                config, code, trials=args.probe, seed=args.seed, scheme=scheme
            )
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        anomaly = "yes" if report.pattern_anomaly else "no"
        stat = (
            "-"
            if report.max_marginal_stat is None
            else f"{report.max_marginal_stat:.2f}"
        )
        bound = "-" if report.stat_bound is None else f"{report.stat_bound:.2f}"
        print(
            f"PROBE INSTANCE={cfg.name} TRIALS={report.trials} "
            f"PATTERN_ANOMALY={anomaly} MAX_STAT={stat} BOUND={bound}"
        )
        if report.suspicious:
            print("probe flagged the scheme as suspicious")
            return EXIT_VERDICT_FAIL
        return EXIT_OK

    failed = False
    try:
        for prop in properties:
            if prop == "correctness":
                c_report = verify_mod.scheme_correctness(scheme, budget=budget)
                print(
                    verify_mod.verdict_line(
                        "correctness", cfg.name, c_report.passed, c_report.cases
                    )
                )
                if not c_report.passed:
                    failed = True
                    ce = c_report.counterexample
                    print(
                        f"  counterexample: messages={ce.messages} mask={ce.mask} "
                        f"d={ce.requested} decoded={ce.decoded} expected={ce.expected}"
                    )
            else:
                p_report = verify_mod.scheme_privacy(scheme, budget=budget)
                print(
                    verify_mod.verdict_line(
                        "privacy", cfg.name, p_report.passed, p_report.cases
                    )
                )
                print(
                    f"  distinct answer vectors: {p_report.distinct_answers}; "
                    f"uniform over them: {'yes' if p_report.uniform else 'no'}"
                )
                if not p_report.passed:
                    failed = True
                    mm = p_report.mismatch
                    print(
                        f"  leak: answer {mm.answer} occurs {mm.count_a}x for "
                        f"d={mm.request_a} but {mm.count_b}x for d={mm.request_b}"
                    )
    except verify_mod.InexactArithmeticError as exc:
        raise CliError(str(exc)) from exc
    except verify_mod.BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        print(
            "hint: raise PID_BUDGET or use --probe TRIALS for a sampled audit",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    return EXIT_VERDICT_FAIL if failed else EXIT_OK


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


def build_parser() -> argparse.ArgumentParser:
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
    p_verify.add_argument("--probe", type=int, default=None, metavar="TRIALS",
                          help="sampled audit instead of exhaustive")
    p_verify.add_argument("--budget", type=int, default=None,
                          help="max exhaustive cases (default 10^7 or PID_BUDGET)")
    p_verify.add_argument("--scheme", choices=["masked", "split"], default="masked",
                          help="audit the real scheme or the unmasked negative control")
    p_verify.add_argument("--corrupt", default=None, metavar="N,K,POS,DELTA",
                          help="flip one stored symbol before the audit")
    p_verify.add_argument("--seed", type=int, default=0, help="probe seed")
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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except verify_mod.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
