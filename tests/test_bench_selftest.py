"""The benchmark's own self-test passes on this tree.

``perfbench/selftest.py`` runs every workload on shortened plans, traced and
untraced, and injects decode and set-up failures; a library change that
breaks the traced benchmark fails here rather than only in a run by hand.
It writes only to the gitignored ``.bench_trace/``.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_selftest_passes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "selftest.py")],
        capture_output=True, text=True, cwd=REPO, env=env,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "selftest ok\n"
