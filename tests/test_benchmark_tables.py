"""The benchmark's input generator keeps its own copies of package tables.

``perfbench/workloads.py`` writes the inputs the benchmark runs on and
names directions, roles and document kinds itself, so that it reads like
the files it writes. This checks that each copy still equals the table it
copies, so a change to a package table cannot leave the benchmark
generating inputs the program no longer accepts, or no longer exercises.
"""

import importlib.util
import sys
from pathlib import Path

from fincon.agents import ROLES
from fincon.data_ingest import DOCUMENT_KINDS
from fincon.portfolio import DIRECTION_BOXES

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built, and
    # it puts the package and the tests on the import path
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec.loader.exec_module(module)
    return module


def test_workload_tables_equal_the_package_tables(monkeypatch):
    workloads = load_workloads(monkeypatch)
    assert workloads.DIRECTIONS == tuple(DIRECTION_BOXES)
    assert workloads.ALL_ROLES == tuple(ROLES)
    assert workloads.TEXT_KIND == {role: spec.source for role, spec in ROLES.items()
                                   if spec.source in DOCUMENT_KINDS}
    assert workloads.ALL_KINDS == DOCUMENT_KINDS
