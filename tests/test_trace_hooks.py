"""The benchmark's tracer wraps engine names from outside the package.

``perfbench/spans.py`` patches functions and methods by name; this checks
that every name it wraps still exists, that traced train and test runs
record spans through them that pass the benchmark's span checks, on the
scripted backend and through one whose calls fan out on the pool, and that
``uninstall`` restores the originals.
"""

import importlib.util
import threading
from pathlib import Path
from time import perf_counter

from fincon import backtest
from fincon.backtest import RunConfig
from fincon.llm_gateway import LlmGateway, load_mock_script

from fixtures import build_single_stock_fixture
from test_golden import PassThrough

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


def test_pooled_days_trace_inside_their_day_spans(tmp_path, monkeypatch):
    """Through a backend that is not a ``ScriptedBackend``, each day's
    analyst calls go out on the pool before the day before decides; the
    spans still pass the span checks, and each call made on a pool thread
    lies under a decision day."""
    spans = load_spans()
    fix = build_single_stock_fixture(tmp_path, n_train=8, n_test=4, episodes=2,
                                     news_every=2)
    payload = dict(fix.payload, mode="test")
    payload["backtest"] = dict(payload["backtest"], train_run_dir=str(tmp_path / "run"))
    tracer = spans.Tracer()
    engine = threading.current_thread()
    # the ids of the gateway-call spans opened on a pool thread: the tracer
    # pushes a span's id before it calls the wrapped function
    pooled = set()
    complete = LlmGateway.complete

    def complete_on_thread(self, request):
        if threading.current_thread() is not engine:
            pooled.add(tracer._stack()[-1])
        return complete(self, request)

    monkeypatch.setattr(LlmGateway, "complete", complete_on_thread)
    threads, reflect_threads = set(), set()
    tracer.install()
    try:
        gateway = LlmGateway(PassThrough(load_mock_script(fix.script_path), threads,
                                         reflect_threads))
        tracer.begin(1)
        t0 = perf_counter()
        backtest.train(RunConfig.load(fix.config_path), gateway, tmp_path / "run")
        backtest.test(RunConfig.from_dict(payload, fix.root), gateway, tmp_path / "test_run")
        t1 = perf_counter()
    finally:
        tracer.uninstall()

    assert spans.check_spans(tracer.spans, t0, t1) == []
    names = {span[1] for span in tracer.spans}
    assert {spans.ANALYST, "agents.reflect"} <= names
    assert reflect_threads - {engine}, "no reflection on the pool"
    by_id = {span[0]: span for span in tracer.spans}
    assert pooled
    for sid in pooled:
        span = by_id[sid]
        assert span[1] == "llm_gateway.complete"
        while span[1] != spans.DAY:
            assert span[4] is not None, f"pool-thread span {sid} has no decision day above it"
            span = by_id[span[4]]
