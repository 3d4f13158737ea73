"""The benchmark tracer wraps library names by attribute; each must exist.

``perfbench/tracing.py`` replaces functions and methods at the names the
running code looks them up by (``codedpid.sim.encode_storage``,
``FieldMatrix.determinant`` and so on).  A library change that deletes or
renames one of them would only fail a traced benchmark run; this test fails
first.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    targets = tracing.Tracer()._targets(workloads)
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in targets
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
