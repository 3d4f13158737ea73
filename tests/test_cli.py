"""End-to-end CLI behaviour: exit codes, file outputs, frozen line formats."""

import ast
import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from codedpid import verify as verify_mod
from codedpid.cli import (
    CliError,
    build_instance,
    build_parser,
    load_config,
    main,
    parse_config_text,
)
from codedpid.instances import q5_instance, q11_instance
from codedpid.protocol import random_messages
from codedpid.sim import read_frame_log

REPO = Path(__file__).resolve().parent.parent
Q5_CFG = REPO / "configs" / "q5-k3.cfg"
Q11_CFG = REPO / "configs" / "q11-k8.cfg"

# One run per refusal class: each malformed config, each tampered instance
# directory file and each bad flag.  An entry writes its ``config`` to
# bad.cfg, or sets up q5-k3 in inst/ and replaces (None: deletes) the files
# named in ``instance``, then runs ``argv`` in that directory.
REFUSAL_GOLDEN = json.loads((REPO / "tests" / "refusal_golden.json").read_text())

VERDICT_RE = re.compile(
    r"^PROPERTY=(correctness|privacy) INSTANCE=\S+ VERDICT=(pass|fail) CASES=\d+$"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def q5_dir(tmp_path, capsys):
    out = tmp_path / "inst"
    code, _, _ = run(capsys, "setup", "-c", str(Q5_CFG), "-o", str(out))
    assert code == 0
    return out


class TestConfigParsing:
    def write(self, tmp_path, text):
        path = tmp_path / "test.cfg"
        path.write_text(text)
        return path

    def test_shipped_configs_parse(self, capsys, tmp_path):
        for cfg in (Q5_CFG, Q11_CFG):
            assert cfg.is_file()
        code, out, _ = run(
            capsys, "setup", "-c", str(Q11_CFG), "-o", str(tmp_path / "x")
        )
        assert code == 0
        assert "instance 'q11-k8' written" in out
        assert "q=11 K=8 N=6 L=3 mode=explicit" in out
        assert "storage per server: 4/3 messages" in out

    @pytest.mark.parametrize(
        "cfg, instance", [(Q5_CFG, q5_instance), (Q11_CFG, q11_instance)]
    )
    def test_shipped_configs_are_the_worked_instances(self, cfg, instance):
        # the demos audit ``instances``; ``pid verify`` and the benchmark
        # audit the shipped configs under the same names
        assert build_instance(load_config(cfg)) == instance()

    def test_unknown_key(self, capsys, tmp_path):
        path = self.write(tmp_path, "q = 5\nK = 3\nN = 3\nL = 2\nbogus = 1\n")
        code, _, err = run(capsys, "setup", "-c", str(path), "-o", str(tmp_path / "o"))
        assert code == 2
        assert "unknown key 'bogus'" in err

    def test_duplicate_key(self, capsys, tmp_path):
        path = self.write(tmp_path, "q = 5\nq = 7\nK = 3\nN = 3\nL = 2\n")
        code, _, err = run(capsys, "setup", "-c", str(path), "-o", str(tmp_path / "o"))
        assert code == 2
        assert "duplicate key 'q'" in err

    def test_missing_required_key(self, capsys, tmp_path):
        path = self.write(tmp_path, "q = 5\nK = 3\nN = 3\n")
        code, _, err = run(capsys, "setup", "-c", str(path), "-o", str(tmp_path / "o"))
        assert code == 2
        assert "missing required key 'L'" in err

    def test_hash_inside_quoted_value(self, capsys, tmp_path):
        # a quoted '#' belongs to the value; bare text ends at its first '#'
        base = "q = 5\nK = 3\nN = 3\nL = 2\nassociation = [[1, 2], [2, 3], [1, 3]]\n"
        cfg = parse_config_text(base + "name = 'q#5'  # note\nmode = explicit # x\n")
        assert (cfg.name, cfg.mode) == ("q#5", "explicit")
        assert parse_config_text(base + 'name = "a\\"#b" # c\nmode = explicit\n').name == 'a"#b'
        path = self.write(tmp_path, base + "name = 'q#5'  # note\nmode = 'explicit'\n")
        out = tmp_path / "o"
        code, stdout, _ = run(capsys, "setup", "-c", str(path), "-o", str(out))
        assert code == 0
        assert stdout.startswith(f"instance 'q#5' written to {out}\n")
        assert "name = 'q#5'\n" in (out / "instance.cfg").read_text()

    def test_non_integer_value(self, capsys, tmp_path):
        path = self.write(tmp_path, "q = 'five'\nK = 3\nN = 3\nL = 2\n")
        code, _, err = run(capsys, "setup", "-c", str(path), "-o", str(tmp_path / "o"))
        assert code == 2
        assert "must be an integer" in err

    def test_invalid_msg_len_names_alternatives(self, capsys, tmp_path):
        path = self.write(tmp_path, "q = 7\nK = 3\nN = 6\nL = 1\n")
        code, _, err = run(capsys, "setup", "-c", str(path), "-o", str(tmp_path / "o"))
        assert code == 2
        assert "L=1 does not balance K=3 messages over N=6 servers" in err
        assert "valid lengths are (2, 4, 6)" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "setup", "-c", str(tmp_path / "nope.cfg"), "-o", str(tmp_path / "o")
        )
        assert code == 2
        assert "not found" in err

    def test_bad_mode(self, capsys, tmp_path):
        path = self.write(tmp_path, "q = 5\nK = 3\nN = 3\nL = 2\nmode = 'magic'\n")
        code, _, err = run(capsys, "setup", "-c", str(path), "-o", str(tmp_path / "o"))
        assert code == 2
        assert "mode" in err


    @pytest.mark.parametrize(
        "line, key",
        [
            ("points = [1, 2, 3.5]", "points"),
            ("generator_override = [[1, 3.0, True]]", "generator_override"),
            ("association = [[1, 2], [2, 3], [1, 3.9]]", "association"),
            ("messages = [[1, 2], [3, 4], [0, False]]", "messages"),
            ("points = [1, True, 3]", "points"),
            ("association = [[1, 2], 3, [1, 3]]", "association"),
        ],
    )
    def test_non_integer_entries(self, capsys, tmp_path, line, key):
        key_re = re.compile(rf"^{key} = .*$", re.M)
        text = Q5_CFG.read_text()
        text = key_re.sub(line, text) if key_re.search(text) else text + line + "\n"
        path = self.write(tmp_path, text)
        code, out, err = run(capsys, "verify", "-c", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: key {key!r}")

    @pytest.mark.parametrize("q", [2**32, 4294967311, 18446744073709551557])
    def test_modulus_must_fit_a_wire_symbol(self, capsys, tmp_path, q):
        path = self.write(tmp_path, f"q = {q}\nK = 2\nN = 4\nL = 2\n")
        for argv in (["verify", "-c", str(path)],
                     ["setup", "-c", str(path), "-o", str(tmp_path / "o")]):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err == f"error: key 'q' must be below 2^32 (one 4-byte wire symbol), got {q}\n"

    def test_largest_modulus_accepted(self, capsys, tmp_path):
        path = self.write(tmp_path, "q = 4294967291\nK = 2\nN = 4\nL = 2\nseed = 3\n")
        out_dir = tmp_path / "inst"
        assert run(capsys, "setup", "-c", str(path), "-o", str(out_dir))[0] == 0
        code, out, _ = run(capsys, "deliver", "-i", str(out_dir), "-d", "2")
        assert code == 0
        assert "delivered message 2: ok" in out


LIST_KEYS = st.sampled_from(("points", "association", "generator_override", "messages"))
NON_INTS = st.one_of(
    st.booleans(), st.floats(allow_nan=False, allow_infinity=False)
)


class TestConfigEntriesProperty:
    """``parse_config_text`` keeps lists of integers and refuses any entry
    that is a float or a bool, whatever the key and position."""

    base = "q = 5\nK = 3\nN = 3\nL = 2\n"

    @staticmethod
    def nested(key, entries):
        return entries if key == "points" else [[0, 1], entries]

    @given(LIST_KEYS, st.lists(st.integers(-(10**12), 10**12), max_size=5),
           NON_INTS, st.integers(0, 5))
    def test_non_integer_entry_refused(self, key, entries, bad, at):
        entries.insert(at, bad)
        text = f"{self.base}{key} = {self.nested(key, entries)!r}\n"
        with pytest.raises(CliError, match=f"key '{key}' entries must be integers") as exc:
            parse_config_text(text)
        # ``main`` reports every ValueError as one error line and exit 2
        assert isinstance(exc.value, ValueError)

    @given(LIST_KEYS, st.lists(st.integers(-(10**12), 10**12), max_size=5))
    def test_integer_entries_kept(self, key, entries):
        cfg = parse_config_text(f"{self.base}{key} = {self.nested(key, entries)!r}\n")
        value = {
            "points": cfg.points,
            "association": cfg.association,
            "generator_override": cfg.generator_override,
            "messages": cfg.messages,
        }[key]
        assert value == (tuple(entries) if key == "points" else ((0, 1), tuple(entries)))


class TestSetup:
    def test_writes_all_files(self, q5_dir):
        for name in ("instance.cfg", "code.txt", "messages.txt", "storage.txt"):
            assert (q5_dir / name).is_file(), name

    def test_storage_matches_library_encoding(self, q5_dir):
        # config pins seed 11; the stored fragments must equal a fresh encode
        from codedpid.instances import q5_instance
        from codedpid.protocol import encode_storage

        config, code = q5_instance()
        messages = random_messages(config, seed=11)
        expected = encode_storage(config, code, messages)

        text = (q5_dir / "storage.txt").read_text()
        for st in expected:
            entry = [[k, list(syms)] for k, syms in st.fragments]
            assert f"server_{st.server_id} = {entry!r}" in text

        msg_rows = ast.literal_eval(
            (q5_dir / "messages.txt").read_text().partition("=")[2].strip()
        )
        assert tuple(tuple(r) for r in msg_rows) == tuple(
            m.symbols for m in messages
        )

    def test_explicit_messages_key(self, capsys, tmp_path):
        cfg = tmp_path / "explicit.cfg"
        cfg.write_text(
            "q = 5\nK = 3\nN = 3\nL = 2\n"
            "association = [[1, 2], [2, 3], [1, 3]]\n"
            "points = [1, 2, 3]\n"
            "generator_override = [[1, 3, 1]]\n"
            "messages = [[1, 2], [3, 4], [0, 1]]\n"
        )
        out = tmp_path / "inst"
        code, _, _ = run(capsys, "setup", "-c", str(cfg), "-o", str(out))
        assert code == 0
        storage = (out / "storage.txt").read_text().splitlines()
        assert storage[0] == "server_1 = [[1, [0]], [3, [2]]]"
        assert storage[1] == "server_2 = [[1, [1]], [2, [0]]]"
        assert storage[2] == "server_3 = [[2, [3]], [3, [3]]]"

    def test_rerun_is_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "setup", "-c", str(Q5_CFG), "-o", str(a))[0] == 0
        assert run(capsys, "setup", "-c", str(Q5_CFG), "-o", str(b))[0] == 0
        for name in ("instance.cfg", "code.txt", "messages.txt", "storage.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_flag_overrides_config(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "setup", "-c", str(Q5_CFG), "-o", str(a), "--seed", "99")
        run(capsys, "setup", "-c", str(Q5_CFG), "-o", str(b))
        assert (a / "messages.txt").read_text() != (b / "messages.txt").read_text()
        # instance.cfg names the seed that drew the messages, and a deliver
        # without --seed masks with it
        assert "seed = 99\n" in (a / "instance.cfg").read_text()
        assert "seed = 11\n" in (b / "instance.cfg").read_text()
        assert run(capsys, "deliver", "-i", str(a), "-d", "1")[0] == 0
        assert "seed = 99\n" in (a / "transcript.txt").read_text()


    def test_canonical_round_trip(self, capsys, tmp_path):
        cfg = tmp_path / "canonical.cfg"
        cfg.write_text("q = 7\nK = 2\nN = 4\nL = 2\nseed = 1\n")
        out = tmp_path / "inst"
        assert run(capsys, "setup", "-c", str(cfg), "-o", str(out))[0] == 0
        instance = (out / "instance.cfg").read_text()
        assert "mode = 'biregular-canonical'" in instance
        assert "association" not in instance
        for d in ("1", "2"):
            code, stdout, err = run(capsys, "deliver", "-i", str(out), "-d", d)
            assert (code, err) == (0, "")
            assert f"delivered message {d}: ok" in stdout
        code, stdout, _ = run(capsys, "verify", "-i", str(out))
        assert code == 0
        assert stdout.count("VERDICT=pass") == 2


class TestDeliver:
    def test_successful_round(self, capsys, q5_dir):
        code, out, _ = run(
            capsys, "deliver", "-i", str(q5_dir), "-d", "2", "--seed", "3"
        )
        assert code == 0
        assert "delivered message 2: ok" in out
        assert "downloaded symbols per server: [1, 1, 1]" in out
        assert "rate = 2/3 (capacity 2/3, met)" in out
        assert "mask overhead: total 1/2, per server 1/2" in out
        assert "host-set download sums: [2, 2, 2] (floor 2, ok)" in out
        assert "wire: 219 bytes total, 91 header, answer payloads 12" in out
        assert (q5_dir / "transcript.txt").is_file()
        frames = read_frame_log(q5_dir / "frames.log")
        assert len(frames) == 13

    def test_unbalanced_capacity_is_not_claimed(self, capsys, tmp_path):
        # servers 1-2 could send message d's fragments alone, at rate 1 and
        # privately, so L/N = 2/3 is not this instance's capacity
        cfg = tmp_path / "unbalanced.cfg"
        cfg.write_text("q = 5\nK = 2\nN = 3\nL = 2\nassociation = [[1, 2], [1, 2]]\n")
        out = tmp_path / "inst"
        assert run(capsys, "setup", "-c", str(cfg), "-o", str(out))[0] == 0
        code, stdout, _ = run(capsys, "deliver", "-i", str(out), "-d", "1", "--seed", "3")
        assert code == 0
        assert "rate = 2/3 (capacity not characterized: storage is not balanced)\n" in stdout

    def test_no_mask_overhead_when_l_equals_n(self, capsys, tmp_path):
        # K = N = L = 2 over F_2: no mask is drawn, so no server holds a share
        cfg, inst = tmp_path / "full.cfg", str(tmp_path / "inst")
        cfg.write_text("q = 2\nK = 2\nN = 2\nL = 2\n")
        assert run(capsys, "setup", "-c", str(cfg), "-o", inst)[0] == 0
        code, out, _ = run(capsys, "deliver", "-i", inst, "-d", "1")
        assert code == 0
        assert "mask overhead: total 0, per server 0\n" in out

    def test_transcript_content_and_reproducibility(self, capsys, q5_dir):
        run(capsys, "deliver", "-i", str(q5_dir), "-d", "1", "--seed", "7")
        first = (q5_dir / "transcript.txt").read_bytes()
        first_log = (q5_dir / "frames.log").read_bytes()
        run(capsys, "deliver", "-i", str(q5_dir), "-d", "1", "--seed", "7")
        assert (q5_dir / "transcript.txt").read_bytes() == first
        assert (q5_dir / "frames.log").read_bytes() == first_log
        text = first.decode()
        assert "d = 1" in text
        assert "rate = '2/3'" in text

    def test_bad_message_id(self, capsys, q5_dir):
        code, _, err = run(capsys, "deliver", "-i", str(q5_dir), "-d", "9")
        assert code == 2
        assert "message id 9 outside 1..3" in err

    def test_tampered_storage_rejected(self, capsys, q5_dir):
        path = q5_dir / "storage.txt"
        lines = path.read_text().splitlines()
        entry = ast.literal_eval(lines[0].partition("=")[2].strip())
        entry[0][1][0] = (entry[0][1][0] + 1) % 5
        lines[0] = f"server_1 = {entry!r}"
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "deliver", "-i", str(q5_dir), "-d", "1")
        assert code == 2
        assert "storage.txt does not match" in err

    def test_not_an_instance_dir(self, capsys, tmp_path):
        code, _, err = run(capsys, "deliver", "-i", str(tmp_path), "-d", "1")
        assert code == 2
        assert "no instance.cfg" in err

    def test_negative_seed(self, capsys, q5_dir):
        code, out, err = run(capsys, "deliver", "-i", str(q5_dir), "-d", "1", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: --seed must be non-negative, got -1\n"
        assert not (q5_dir / "frames.log").exists()

    def test_negative_seed_in_setup_and_config(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "setup", "-c", str(Q5_CFG), "-o", str(tmp_path / "a"), "--seed", "-1"
        )
        assert code == 2
        assert err == "error: --seed must be non-negative, got -1\n"
        cfg = tmp_path / "neg.cfg"
        cfg.write_text(Q5_CFG.read_text().replace("seed = 11", "seed = -1"))
        code, _, err = run(capsys, "setup", "-c", str(cfg), "-o", str(tmp_path / "b"))
        assert code == 2
        assert "key 'seed' must be a non-negative integer, got -1" in err


class TestVerify:
    def test_q5_both_properties_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "-c", str(Q5_CFG))
        assert code == 0
        lines = out.strip().splitlines()
        verdicts = [l for l in lines if l.startswith("PROPERTY=")]
        assert len(verdicts) == 2
        assert all(VERDICT_RE.match(v) for v in verdicts)
        assert (
            "PROPERTY=correctness INSTANCE=q5-k3 VERDICT=pass CASES=234375"
            in verdicts
        )
        assert (
            "PROPERTY=privacy INSTANCE=q5-k3 VERDICT=pass CASES=234375" in verdicts
        )
        assert "distinct answer vectors: 125; uniform over them: yes" in out

    def test_q5_passes_without_evaluating_a_case(self, capsys, monkeypatch):
        # the audit reads the scheme's maps alone: with every stage raising,
        # ``pid verify`` prints the golden q5-k3 lines
        def stage(*_):
            raise AssertionError("pid verify evaluated a stage")

        def raising(scheme):
            return dataclasses.replace(
                scheme, build_storage=stage, answers=stage, decode=stage
            )

        make = verify_mod.masked_scheme
        monkeypatch.setattr(verify_mod, "masked_scheme", lambda *a, **kw: raising(make(*a, **kw)))
        code, out, err = run(capsys, "verify", "-c", str(Q5_CFG))
        assert (code, err) == (0, "")
        assert out == (
            "PROPERTY=correctness INSTANCE=q5-k3 VERDICT=pass CASES=234375\n"
            "PROPERTY=privacy INSTANCE=q5-k3 VERDICT=pass CASES=234375\n"
            "  distinct answer vectors: 125; uniform over them: yes\n"
        )

    def test_single_property(self, capsys):
        code, out, _ = run(
            capsys, "verify", "-c", str(Q5_CFG), "--property", "correctness"
        )
        assert code == 0
        assert out.count("PROPERTY=") == 1

    def test_instance_dir_source(self, capsys, q5_dir):
        code, out, _ = run(
            capsys, "verify", "-i", str(q5_dir), "--property", "correctness"
        )
        assert code == 0
        assert "VERDICT=pass" in out

    def test_split_scheme_fails_privacy(self, capsys):
        code, out, _ = run(capsys, "verify", "-c", str(Q5_CFG), "--scheme", "split")
        assert code == 3
        assert "PROPERTY=correctness INSTANCE=q5-k3 VERDICT=pass CASES=46875" in out
        assert "PROPERTY=privacy INSTANCE=q5-k3 VERDICT=fail CASES=46875" in out
        assert "leak: answer" in out
        assert "uniform over them: no" in out

    def test_corrupt_fails_correctness(self, capsys):
        code, out, _ = run(
            capsys, "verify", "-c", str(Q5_CFG), "--property", "correctness",
            "--corrupt", "1,1,1,2"
        )
        assert code == 3
        assert "VERDICT=fail" in out
        assert "counterexample: messages=((0, 0), (0, 0), (0, 0))" in out

    def test_corrupt_rejected_for_split(self, capsys):
        code, _, err = run(
            capsys, "verify", "-c", str(Q5_CFG), "--scheme", "split",
            "--corrupt", "1,1,1,2"
        )
        assert code == 2
        assert "masked scheme only" in err

    def test_corrupt_format_errors(self, capsys):
        code, _, err = run(capsys, "verify", "-c", str(Q5_CFG), "--corrupt", "1,2")
        assert code == 2
        assert "four integers" in err
        code, _, err = run(capsys, "verify", "-c", str(Q5_CFG), "--corrupt", "a,b,c,d")
        assert code == 2
        assert "must be integers" in err

    def test_corrupt_out_of_range(self, capsys):
        code, _, err = run(capsys, "verify", "-c", str(Q5_CFG), "--corrupt", "3,1,1,2")
        assert code == 2
        assert "stores nothing" in err

    def test_q11_exceeds_budget(self, capsys):
        # 11^27 * 8 = 104879953531999442936491682968 cases: certified by rank
        code, out, err = run(capsys, "verify", "-c", str(Q11_CFG))
        assert (code, err) == (0, "")
        assert out.count("VERDICT=pass CASES=11^27*8\n") == 2

    def test_budget_flag(self, capsys):
        # the method follows from the instance: there is no budget to set
        with pytest.raises(SystemExit) as info:
            main(["verify", "-c", str(Q5_CFG), "--budget", "100"])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --budget 100" in err

    def test_budget_env(self, capsys, monkeypatch):
        # PID_BUDGET is not read: q5's counts are still in decimal
        monkeypatch.setenv("PID_BUDGET", "100")
        code, out, _ = run(capsys, "verify", "-c", str(Q5_CFG))
        assert code == 0
        assert out.count("CASES=234375\n") == 2

    def test_garbage_budget_env(self, capsys, monkeypatch):
        # nor refused
        monkeypatch.setenv("PID_BUDGET", "unlimited")
        code, out, err = run(capsys, "verify", "-c", str(Q5_CFG))
        assert (code, err) == (0, "")
        assert out.count("CASES=234375\n") == 2

    def test_negative_budget_is_bad_input(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "-c", str(Q5_CFG), "--budget", "-1"])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --budget -1" in err

    def test_negative_probe_is_bad_input(self, capsys):
        # the sampled probe is gone with its options
        for extra in (["--probe", "-5"], ["--seed", "3"]):
            with pytest.raises(SystemExit) as info:
                main(["verify", "-c", str(Q5_CFG), *extra])
            assert info.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert f"unrecognized arguments: {' '.join(extra)}" in err

    def test_modulus_too_large_for_exact_audit(self, capsys, tmp_path):
        # 2147483659 is the first prime past 2^31 - 1, the largest modulus
        # with 2*(q-1)^2 + q below 2^63; rank decides its q^2 cases exactly
        path = tmp_path / "big.cfg"
        path.write_text(
            "q = 2147483659\nK = 1\nN = 2\nL = 2\n"
            "mode = 'explicit'\nassociation = [[1, 2]]\n"
        )
        code, out, err = run(capsys, "verify", "-c", str(path))
        assert (code, err) == (0, "")
        assert out == (
            "PROPERTY=correctness INSTANCE=big VERDICT=pass CASES=2147483659^2*1\n"
            "PROPERTY=privacy INSTANCE=big VERDICT=pass CASES=2147483659^2*1\n"
            "  distinct answer vectors: 2147483659^2; uniform over them: yes\n"
        )

    def split_cfg(self, tmp_path, k):
        # q=17 with 16 servers and K one-host messages: split answers are
        # keyed by 18^16 values; K = 16 makes 17^16 * 16 cases, far past 10^7
        path = tmp_path / f"split-k{k}.cfg"
        hosts = [[j] for j in range(1, k + 1)]
        path.write_text(
            f"q = 17\nK = {k}\nN = 16\nL = 1\n"
            f"mode = 'explicit'\nassociation = {hosts}\n"
        )
        return str(path)

    def test_refusal_order(self, capsys, tmp_path):
        # no config is refused; past 10^7 cases the counts are powers of q
        both = ("--scheme", "split", "--property", "both")
        wide = self.split_cfg(tmp_path, 16)
        code, out, err = run(capsys, "verify", "-c", wide, *both)
        assert (code, err) == (3, "")
        assert "PROPERTY=privacy INSTANCE=split-k16 VERDICT=fail CASES=17^16*16\n" in out
        # 17 cases, in decimal whatever the 18^16 answer keys
        narrow = self.split_cfg(tmp_path, 1)
        code, out, err = run(capsys, "verify", "-c", narrow, *both)
        assert (code, err) == (0, "")
        assert out == (
            "PROPERTY=correctness INSTANCE=split-k1 VERDICT=pass CASES=17\n"
            "PROPERTY=privacy INSTANCE=split-k1 VERDICT=pass CASES=17\n"
            "  distinct answer vectors: 17; uniform over them: no\n"
        )
        # one CASES form per instance, whichever properties are audited
        code, out, _ = run(
            capsys, "verify", "-c", narrow, "--scheme", "split",
            "--property", "correctness",
        )
        assert code == 0
        assert out == "PROPERTY=correctness INSTANCE=split-k1 VERDICT=pass CASES=17\n"

    def test_golden_outputs(self, capsys, monkeypatch):
        # stdout and exit code of each run, recorded before the audits were
        # batched (the last three, on q11-k8 and by rank, when the rank
        # certificate came); every byte must stay the same
        monkeypatch.chdir(REPO)
        golden = json.loads((Path(__file__).parent / "verify_golden.json").read_text())
        assert len(golden) == 19
        for entry in golden:
            code, out, _ = run(capsys, *entry["argv"])
            assert (code, out) == (entry["exit"], entry["stdout"]), entry["argv"]

    def test_probe_clean_on_q11(self, capsys):
        # the instance the sampled probe was for gets exact verdicts by rank
        code, out, _ = run(capsys, "verify", "-c", str(Q11_CFG), "--property", "privacy")
        assert code == 0
        assert out == (
            "PROPERTY=privacy INSTANCE=q11-k8 VERDICT=pass CASES=11^27*8\n"
            "  distinct answer vectors: 11^6; uniform over them: yes\n"
        )

    def test_probe_flags_split(self, capsys):
        code, out, _ = run(capsys, "verify", "-c", str(Q11_CFG), "--scheme", "split")
        assert code == 3
        assert out == (
            "PROPERTY=correctness INSTANCE=q11-k8 VERDICT=pass CASES=11^24*8\n"
            "PROPERTY=privacy INSTANCE=q11-k8 VERDICT=fail CASES=11^24*8\n"
            "  distinct answer vectors: 2662; uniform over them: no\n"
            "  leak: answer ((0,), (0,), (0,), (), (), ()) occurs 11^21x for d=1 "
            "but 0x for d=5\n"
        )

    def k64_cfg(self, tmp_path):
        # the layout the serve benchmark serves: 257^2080 * 64 cases, a
        # number of 5012 digits, past the 4300 that ``str`` writes
        path = tmp_path / "k64.cfg"
        path.write_text("name = 'k64'\nq = 257\nK = 64\nN = 64\nL = 32\n")
        return str(path)

    def test_k64_certified_by_rank(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", "-c", self.k64_cfg(tmp_path))
        assert (code, err) == (0, "")
        assert out == (
            "PROPERTY=correctness INSTANCE=k64 VERDICT=pass CASES=257^2080*64\n"
            "PROPERTY=privacy INSTANCE=k64 VERDICT=pass CASES=257^2080*64\n"
            "  distinct answer vectors: 257^64; uniform over them: yes\n"
        )

    def test_k64_split_leak_counts_in_power_form(self, capsys, tmp_path):
        # the leak is counted 257^2016 times, 4858 digits
        cfg = self.k64_cfg(tmp_path)
        code, out, err = run(capsys, "verify", "-c", cfg, "--scheme", "split")
        assert (code, err) == (3, "")
        leak = out.splitlines()[-1]
        assert leak.startswith("  leak: answer ((0,), (0,), ")
        assert leak.endswith(" occurs 257^2016x for d=1 but 0x for d=2")


class TestRefusals:
    @pytest.mark.parametrize("entry", REFUSAL_GOLDEN, ids=lambda e: e["name"])
    def test_golden_refusals(self, capsys, monkeypatch, tmp_path, entry):
        # stdout, stderr and exit code of each run; every byte must stay the
        # same (CHANGES.md lists the entries that changed when the refusals
        # were gathered in ``main``)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty").mkdir()
        if "config" in entry:
            (tmp_path / "bad.cfg").write_text(entry["config"])
        if "instance" in entry:
            assert run(capsys, "setup", "-c", str(Q5_CFG), "-o", "inst")[0] == 0
            for name, text in entry["instance"].items():
                if text is None:
                    (tmp_path / "inst" / name).unlink()
                else:
                    (tmp_path / "inst" / name).write_text(text)
        assert run(capsys, *entry["argv"]) == (
            entry["exit"], entry["stdout"], entry["stderr"]
        )

    def test_short_message_rows_write_nothing(self, capsys, tmp_path, q5_dir):
        cfg = tmp_path / "short.cfg"
        cfg.write_text(Q5_CFG.read_text() + "messages = [[1, 2], [3], [0, 1]]\n")
        out = tmp_path / "out"
        error = "error: message 2 has 1 symbols, expected 2\n"
        assert run(capsys, "setup", "-c", str(cfg), "-o", str(out)) == (2, "", error)
        assert not out.exists()
        (q5_dir / "messages.txt").write_text("messages = [[1, 2], [3], [0, 1]]\n")
        assert run(capsys, "deliver", "-i", str(q5_dir), "-d", "1") == (2, "", error)
        assert not (q5_dir / "transcript.txt").exists()


class TestSweep:
    EXPECTED = (
        "N,c_us_lower,c_us_upper,coded_rate,valid\n"
        "5,-,-,-,0\n"
        "6,1/6,1/6,2/3,1\n"
        "7,1/6,1/6,2/3,1\n"
        "8,1/6,1/6,2/3,1\n"
    )

    def test_stdout(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--k", "12", "--m", "2", "--l", "4", "--n-range", "5:8"
        )
        assert code == 0
        assert out == self.EXPECTED

    def test_fractional_m(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--k", "8", "--m", "4/3", "--l", "3", "--n-range", "6:6"
        )
        assert code == 0
        assert "6,-,-,1/2,1" in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "rates.csv"
        code, out, _ = run(
            capsys, "sweep", "--k", "12", "--m", "2", "--l", "4",
            "--n-range", "5:8", "-o", str(target)
        )
        assert code == 0
        assert "wrote 4 rows" in out
        assert target.read_text() == self.EXPECTED

    def test_bad_m(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--k", "12", "--m", "two", "--l", "4", "--n-range", "5:8"
        )
        assert code == 2
        assert "--m must be an integer or fraction" in err

    def test_nonpositive_m(self, capsys):
        for m in ("0", "-1", "-1/2"):
            code, out, err = run(
                capsys, "sweep", "--k", "4", f"--m={m}", "--l", "2", "--n-range", "2:4"
            )
            assert code == 2
            assert out == ""
            assert err == f"error: --m must be positive, got {m!r}\n"

    def test_bad_range(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--k", "12", "--m", "2", "--l", "4", "--n-range", "8:5"
        )
        assert code == 2
        assert "empty range" in err
        code, _, err = run(
            capsys, "sweep", "--k", "12", "--m", "2", "--l", "4", "--n-range", "abc"
        )
        assert code == 2
        assert "A:B" in err

    def test_nonpositive_server_count(self, capsys):
        for n_range in ("0:2", "-1:3"):
            code, out, err = run(
                capsys, "sweep", "--k", "4", "--m", "1", "--l", "2",
                f"--n-range={n_range}"
            )
            assert code == 2
            assert out == ""
            assert err == "error: --n-range must be positive\n"


class TestTableL:
    def test_cells(self, capsys):
        code, out, _ = run(
            capsys, "table-l", "--k-range", "7:8", "--n-range", "4:7"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["K\\N", "4", "5", "6", "7"]
        assert lines[1].split() == ["7", "4", "5", "6", "[7]"]
        assert lines[2].split() == ["8", "[4]", "5", "3,6", "7"]

    def test_nonpositive_range(self, capsys):
        code, _, err = run(capsys, "table-l", "--k-range", "0:2", "--n-range", "1:2")
        assert code == 2
        assert err == "error: --k-range and --n-range must be positive\n"

    def test_full_range_brackets(self, capsys):
        _, out, _ = run(capsys, "table-l", "--k-range", "12:12", "--n-range", "4:4")
        assert out.strip().splitlines()[1].split() == ["12", "[4]"]


class TestEntryPoints:
    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_parser_built_once_and_reused(self, capsys):
        # one parser per process; a failed parse leaves it as it was
        assert build_parser() is build_parser()
        outputs = []
        for argv in (["verify"], ["sweep", "--k", "3"], ["verify"]):
            with pytest.raises(SystemExit):
                main(argv)
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[2]
        assert "one of the arguments -i/--instance -c/--config is required" in outputs[0].err
        code, out, _ = run(capsys, "table-l", "--k-range", "3:3", "--n-range", "3:3")
        assert code == 0 and out

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "codedpid", "sweep", "--k", "12", "--m", "2",
             "--l", "4", "--n-range", "6:6"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "6,1/6,1/6,2/3,1" in result.stdout

    def test_console_script(self):
        import importlib
        import shutil

        # The declared entry point names ``main``, installed or not.
        module, _, attr = script_entry(REPO / "pyproject.toml", "pid").partition(":")
        assert getattr(importlib.import_module(module), attr) is main
        exe = shutil.which("pid")
        if exe is not None:
            result = subprocess.run([exe, "--help"], capture_output=True, text=True)
            assert result.returncode == 0
            assert "setup" in result.stdout


def script_entry(pyproject: Path, name: str) -> str:
    """The ``[project.scripts]`` entry ``name`` of ``pyproject``, read line
    by line: Python 3.10 has no ``tomllib``."""
    section = None
    for line in pyproject.read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]":
            key, _, value = line.partition("=")
            if key.strip() == name:
                return value.strip().strip('"')
    raise AssertionError(f"no [project.scripts] entry {name!r} in {pyproject}")
