"""The benchmark's tracer wraps engine names from outside the package.

``perfbench/spans.py`` patches functions and methods by name; this checks
that every name it wraps still exists, that a traced train and test run
records spans through them that pass the benchmark's span checks, and that
``uninstall`` restores the originals.
"""

import importlib.util
from pathlib import Path
from time import perf_counter

from fincon import backtest
from fincon.backtest import RunConfig
from fincon.llm_gateway import LlmGateway, load_mock_script

from fixtures import build_single_stock_fixture

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_records_and_uninstalls(tmp_path):
    spans = load_spans()
    targets = [(owner, attr) for owner, attr, _ in spans.WRAPPED]
    targets += [(backtest, "assemble_observation"),
                (backtest.BacktestEngine, "run_episode")]
    originals = [vars(owner)[attr] for owner, attr in targets]

    fix = build_single_stock_fixture(tmp_path, n_train=4, n_test=3, episodes=1,
                                     news_every=2)
    payload = dict(fix.payload, mode="test")
    payload["backtest"] = dict(payload["backtest"], train_run_dir=str(tmp_path / "run"))
    tracer = spans.Tracer()
    tracer.install()
    try:
        config = RunConfig.load(fix.config_path)
        test_config = RunConfig.from_dict(payload, fix.root)
        gateway = LlmGateway(load_mock_script(fix.script_path))
        tracer.begin(1)
        t0 = perf_counter()
        backtest.train(config, gateway, tmp_path / "run")
        backtest.test(test_config, gateway, tmp_path / "test_run")
        t1 = perf_counter()
    finally:
        tracer.uninstall()

    assert [vars(owner)[attr] for owner, attr in targets] == originals
    names = {span[1] for span in tracer.spans}
    for name in ("backtest.train", "backtest.test", "backtest.episode", spans.DAY,
                 spans.ANALYST, "memory.embed", "memory.retrieve", "memory.snapshot",
                 "llm_gateway.complete"):
        assert name in names, name
    # the test stage loads the inherited snapshot under its own span
    test_ids = {span[0] for span in tracer.spans if span[1] == "backtest.test"}
    assert any(span[1] == "memory.snapshot" and span[4] in test_ids
               for span in tracer.spans)
    assert spans.check_spans(tracer.spans, t0, t1) == []
