"""The demos print the same bytes as when they were pinned."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((REPO / "tests" / "demo_golden.json").read_text())


@pytest.mark.parametrize("demo", sorted(GOLDEN))
def test_demo_output(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(REPO / "demos" / demo)],
        capture_output=True, text=True, cwd=REPO, env=env,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == GOLDEN[demo]
