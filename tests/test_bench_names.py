"""The benchmark tracer wraps library names by attribute; each must exist.

``perfbench/tracing.py`` replaces functions and methods at the names the
running code looks them up by (``codedpid.sim.encode_storage``,
``FieldMatrix.determinant`` and so on), and rebuilds each audited scheme
with ``dataclasses.replace`` on its stage fields.  A library change that
deletes or renames one of them would only fail a traced benchmark run; these
tests fail first.
"""

from pathlib import Path

import pytest

from codedpid.instances import q5_instance
from codedpid.verify import masked_scheme, scheme_audit, split_scheme

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_every_traced_name_exists(monkeypatch, tracing):
    import workloads

    targets = tracing.Tracer()._targets(workloads)
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in targets
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize(
    "make, passed",
    [
        (lambda config, code: masked_scheme(config, code), (True, True)),
        (lambda config, code: split_scheme(config), (True, False)),
        (lambda config, code: masked_scheme(config, code, corrupt=(1, 1, 1, 2)), (False, True)),
    ],
    ids=["masked", "split", "corrupt"],
)
def test_traced_schemes_audit(tracing, make, passed):
    # the tracer's scheme wrap replaces every stage field and keeps the maps,
    # which are all an audit reads: the reports are unchanged and no stage runs
    config, code = q5_instance()
    tracer = tracing.Tracer()
    scheme = tracer.scheme_factory(make)(config, code)
    correct, private = scheme_audit(scheme)
    assert (correct.passed, private.passed) == passed
    assert (correct, private) == scheme_audit(make(config, code))
    stages = ("verify.build_storage", "verify.answers", "verify.decode")
    assert [tracer.calls[name] for name in stages] == [0, 0, 0]


def test_build_instance_is_traced_where_it_runs(monkeypatch, tracing, capsys):
    # ``cli.build_instance_ms`` is the span on ``codedpid.cli.build_instance``;
    # ``pid verify -c`` and the audit-q5 set-up must each look it up there
    import workloads
    from codedpid import cli

    calls = []
    build = cli.build_instance

    def counted(cfg):
        calls.append(cfg)
        return build(cfg)

    monkeypatch.setattr(cli, "build_instance", counted)
    assert cli.main(["verify", "-c", str(workloads.Q5_CONFIG)]) == 0
    assert len(calls) == 1
    workloads.build_q5()
    assert len(calls) == 2
