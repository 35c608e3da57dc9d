"""The benchmark keeps its own copies of package tables.

``perfbench/workloads.py`` writes the inputs the benchmark runs on and
names directions, roles and document kinds itself, so that it reads like
the files it writes, and ``perfbench/gate.py`` checks portfolio weights
against its own direction boxes. This checks that each copy still agrees
with the table it copies, so a change to a package table cannot leave the
benchmark generating inputs the program no longer accepts, or gating its
outputs by an old rule.
"""

import importlib.util
import sys
from datetime import date
from pathlib import Path
from types import SimpleNamespace

from fincon.agents import ROLES
from fincon.data_ingest import DOCUMENT_KINDS
from fincon.portfolio import DIRECTION_BOXES

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, name: str):
    """``perfbench/<name>.py``, loaded as the module ``name``, as the
    benchmark imports it."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while they are built, and
    # workloads puts the package and the tests on the import path
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec.loader.exec_module(module)
    return module


def load_workloads(monkeypatch):
    return load_perfbench(monkeypatch, "workloads")


def test_workload_tables_equal_the_package_tables(monkeypatch):
    workloads = load_workloads(monkeypatch)
    assert workloads.DIRECTIONS == tuple(DIRECTION_BOXES)
    assert workloads.ALL_ROLES == tuple(ROLES)
    assert workloads.TEXT_KIND == {role: spec.source for role, spec in ROLES.items()
                                   if spec.source in DOCUMENT_KINDS}
    assert workloads.ALL_KINDS == DOCUMENT_KINDS


def test_gate_accepts_each_direction_box_and_nothing_past_it(monkeypatch):
    load_workloads(monkeypatch)  # gate.py imports it by this name
    gate = load_perfbench(monkeypatch, "gate")
    day = date(2022, 1, 3)
    for direction, (lo, hi) in DIRECTION_BOXES.items():
        directions = {"AAA": direction, "BBB": direction}
        inputs = SimpleNamespace(train_days=[day], directions={1: [directions]},
                                 workload=SimpleNamespace(tickers=("AAA", "BBB")))
        for weight, inside in ((lo, True), (hi, True), (lo - 1e-9, False), (hi + 1e-9, False)):
            record = {"date": day.isoformat(), "directions": directions,
                      "weights": {"AAA": weight, "BBB": lo}}
            errors = gate.check_trajectory(inputs, 1, [record])
            assert not errors if inside else errors, (direction, weight)
