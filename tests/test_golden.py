"""Golden run-directory digests: a refactor must leave every artifact byte-identical.

``golden_digests.json`` holds the SHA-256 of every file in the train and test
run directories of a single-stock and a two-ticker portfolio fixture run.
The same runs with one and with four analyst workers must give the same
files: only config.used.json, which records the worker count, may differ.
Regenerate the digests only for an intended change of the outputs:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from fincon import backtest
from fincon.backtest import RunConfig
from fincon.llm_gateway import LlmGateway, load_mock_script

from fixtures import build_portfolio_fixture, build_single_stock_fixture

GOLDEN = Path(__file__).with_name("golden_digests.json")


def _train_and_test(config_path: Path, script_path: Path, workers: int | None) -> None:
    """Train into ``./train``, then test into ``./test`` from it.

    Run from the config's directory, so the run directories sit next to the
    config. ``train_run_dir`` resolves against that directory and lands in
    config.used.json verbatim, so it stays the relative ``train``.
    """
    payload = json.loads(config_path.read_text())
    if workers is not None:
        payload["agents"]["workers"] = workers
    config = RunConfig.from_dict(payload, base_dir=config_path.parent)
    backtest.train(config, LlmGateway(load_mock_script(script_path)), "train")
    payload["mode"] = "test"
    payload["backtest"]["train_run_dir"] = "train"
    test_config = RunConfig.from_dict(payload, base_dir=config_path.parent)
    backtest.test(test_config, LlmGateway(load_mock_script(script_path)), "test")


def run_digests(root: Path, workers: int | None = None) -> dict[str, str]:
    """SHA-256 of every run-directory file, keyed ``case/stage/relative path``;
    ``workers`` overrides the configs' ``agents.workers``."""
    root = root.resolve()
    single = build_single_stock_fixture(root / "single" / "fixture", n_train=12, n_test=6,
                                        episodes=3, news_every=2)
    portfolio_config, portfolio_script, *_ = build_portfolio_fixture(
        root / "portfolio" / "fixture", n_days=8, n_test=4)
    cwd = os.getcwd()
    try:
        for case, config_path, script_path in (
                ("single", single.config_path, single.script_path),
                ("portfolio", portfolio_config, portfolio_script)):
            os.chdir(config_path.parent)
            _train_and_test(config_path, script_path, workers)
    finally:
        os.chdir(cwd)
    digests = {}
    for case in ("single", "portfolio"):
        for stage in ("train", "test"):
            stage_dir = root / case / "fixture" / stage
            for path in sorted(p for p in stage_dir.rglob("*") if p.is_file()):
                key = f"{case}/{stage}/{path.relative_to(stage_dir).as_posix()}"
                digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_run_directories_match_golden_digests(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = run_digests(tmp_path)
    differing = [name for name in sorted(set(want) | set(got)) if got.get(name) != want.get(name)]
    assert not differing, f"run-directory files differ from {GOLDEN.name}: {differing}"


def test_run_directories_do_not_depend_on_worker_count(tmp_path):
    """One and four analyst workers reproduce the golden (two-worker) files."""
    want = json.loads(GOLDEN.read_text())
    for workers in (1, 4):
        got = run_digests(tmp_path / f"workers_{workers}", workers=workers)
        assert set(got) == set(want), f"workers={workers}"
        differing = [name for name in sorted(want) if got[name] != want[name]
                     and not name.endswith("/config.used.json")]
        assert not differing, f"workers={workers} changes {differing}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(run_digests(Path(tmp)), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
