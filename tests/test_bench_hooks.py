"""The benchmark's tracer wraps lanefuse names in place; a renamed or removed
name must fail here rather than break ``perfbench/run.py --trace 1``."""

import importlib
from pathlib import Path

import lanefuse.cli
import lanefuse.evaluation
import lanefuse.fusion
import lanefuse.mapmodel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracing_hooks_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    owners = (lanefuse.cli, lanefuse.evaluation, lanefuse.fusion)
    before = [dict(vars(owner)) for owner in owners]
    commands = dict(lanefuse.cli.COMMANDS)
    post_init = lanefuse.mapmodel.Point3.__post_init__

    uninstall = tracing.install(tracing.Tracer("t"))
    assert lanefuse.fusion.icp_align is not before[2]["icp_align"]
    uninstall()

    assert [dict(vars(owner)) for owner in owners] == before
    assert lanefuse.cli.COMMANDS == commands
    assert lanefuse.mapmodel.Point3.__post_init__ is post_init
