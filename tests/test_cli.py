"""End-to-end CLI behaviour: exit codes, file outputs, frozen line formats."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from codedpid.cli import main
from codedpid.protocol import random_messages
from codedpid.sim import read_frame_log

REPO = Path(__file__).resolve().parent.parent
Q5_CFG = REPO / "configs" / "q5-k3.cfg"
Q11_CFG = REPO / "configs" / "q11-k8.cfg"

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

    def test_q11_exceeds_budget(self, capsys, monkeypatch):
        monkeypatch.delenv("PID_BUDGET", raising=False)
        code, _, err = run(capsys, "verify", "-c", str(Q11_CFG))
        assert code == 4
        assert "budget exceeded: exhaustive audit needs" in err
        assert "104879953531999442936491682968" in err
        assert "--probe" in err  # the hint

    def test_budget_flag(self, capsys):
        code, _, err = run(capsys, "verify", "-c", str(Q5_CFG), "--budget", "100")
        assert code == 4
        assert "budget is 100" in err

    def test_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PID_BUDGET", "100")
        code, _, _ = run(capsys, "verify", "-c", str(Q5_CFG))
        assert code == 4

    def test_budget_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PID_BUDGET", "100")
        code, _, _ = run(
            capsys, "verify", "-c", str(Q5_CFG), "--budget", "300000",
            "--property", "correctness"
        )
        assert code == 0

    def test_garbage_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PID_BUDGET", "unlimited")
        code, _, err = run(capsys, "verify", "-c", str(Q5_CFG))
        assert code == 2
        assert "PID_BUDGET must be an integer" in err

    def test_negative_budget_is_bad_input(self, capsys, monkeypatch):
        code, out, err = run(capsys, "verify", "-c", str(Q5_CFG), "--budget", "-1")
        assert code == 2
        assert out == ""
        assert "budget must be non-negative, got -1" in err
        monkeypatch.setenv("PID_BUDGET", "-1")
        code, _, err = run(capsys, "verify", "-c", str(Q5_CFG))
        assert code == 2
        assert "budget must be non-negative, got -1" in err

    def test_negative_probe_is_bad_input(self, capsys):
        code, out, err = run(capsys, "verify", "-c", str(Q5_CFG), "--probe", "-5")
        assert code == 2
        assert out == ""
        assert "non-negative trial count, got -5" in err

    def test_modulus_too_large_for_exact_audit(self, capsys, tmp_path):
        # 2147483659 is the first prime past 2^31 - 1, the largest modulus
        # whose N=2 instances keep 2*(q-1)^2 + q below 2^63
        path = tmp_path / "big.cfg"
        path.write_text(
            "q = 2147483659\nK = 1\nN = 2\nL = 2\n"
            "mode = 'explicit'\nassociation = [[1, 2]]\n"
        )
        code, out, err = run(
            capsys, "verify", "-c", str(path), "--budget", str(10**19)
        )
        assert code == 2
        assert out == ""
        assert "too large for exact int64 audits" in err

    def test_golden_outputs(self, capsys, monkeypatch):
        # stdout and exit code of each run, recorded before the audits were
        # batched; every byte must stay the same
        monkeypatch.chdir(REPO)
        golden = json.loads((Path(__file__).parent / "verify_golden.json").read_text())
        assert len(golden) == 18
        for entry in golden:
            code, out, _ = run(capsys, *entry["argv"])
            assert (code, out) == (entry["exit"], entry["stdout"]), entry["argv"]

    def test_probe_clean_on_q11(self, capsys):
        code, out, _ = run(capsys, "verify", "-c", str(Q11_CFG), "--probe", "100")
        assert code == 0
        assert re.search(
            r"^PROBE INSTANCE=q11-k8 TRIALS=100 PATTERN_ANOMALY=no "
            r"MAX_STAT=\d+\.\d\d BOUND=35\.97$",
            out,
            re.M,
        )

    def test_probe_flags_split(self, capsys):
        code, out, _ = run(
            capsys, "verify", "-c", str(Q5_CFG), "--scheme", "split",
            "--probe", "30"
        )
        assert code == 3
        assert "PATTERN_ANOMALY=yes" in out
        assert "MAX_STAT=- BOUND=-" in out
        assert "suspicious" in out


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
        import shutil

        exe = shutil.which("pid")
        if exe is None:
            pytest.skip("console script not on PATH")
        result = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert result.returncode == 0
        assert "setup" in result.stdout
