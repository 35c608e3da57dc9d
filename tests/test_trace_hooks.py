"""The benchmark's tracer wraps engine names from outside the package.

``perfbench/spans.py`` patches functions and methods by name; this checks
that every name it wraps still exists, that a traced run records spans
through them that pass the benchmark's span checks, and that ``uninstall``
restores the originals.
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

    fix = build_single_stock_fixture(tmp_path, n_train=4, episodes=1, news_every=2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        config = RunConfig.load(fix.config_path)
        gateway = LlmGateway(load_mock_script(fix.script_path))
        tracer.begin(1)
        t0 = perf_counter()
        backtest.train(config, gateway, tmp_path / "run")
        t1 = perf_counter()
    finally:
        tracer.uninstall()

    assert [vars(owner)[attr] for owner, attr in targets] == originals
    names = {span[1] for span in tracer.spans}
    for name in ("backtest.train", "backtest.episode", spans.DAY, spans.ANALYST,
                 "memory.embed", "memory.retrieve", "llm_gateway.complete"):
        assert name in names, name
    assert spans.check_spans(tracer.spans, t0, t1) == []
