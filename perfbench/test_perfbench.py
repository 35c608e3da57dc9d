"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import re

import workloads  # first: puts src/ and tests/ on sys.path
import gate
import spans
from fincon import backtest
from fincon.llm_gateway import LlmGateway, load_mock_script

BENCHMARK = workloads.REPO / "BENCHMARK.json"


def small(name: str, **changes) -> workloads.Workload:
    shape = {"train_days": 8, "test_days": 4, "latency_ms": 0.0}
    shape.update(changes)
    return dataclasses.replace(workloads.WORKLOADS[name], **shape)


def read_tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def train_and_test(root, gateway, workers=None):
    config = backtest.RunConfig.load(root / workloads.TRAIN_CONFIG)
    test_config = backtest.RunConfig.load(root / workloads.TEST_CONFIG)
    test_config.backtest["train_run_dir"] = str(root / workloads.TRAIN_DIR)
    if workers is not None:
        config.agents["workers"] = test_config.agents["workers"] = workers
    backtest.train(config, gateway, root / workloads.TRAIN_DIR)
    backtest.test(test_config, gateway, root / workloads.TEST_DIR)


def test_generator_is_byte_deterministic_per_seed(tmp_path):
    for name in workloads.WORKLOADS:
        wl = small(name)
        workloads.generate(wl, 7, tmp_path / "a" / name)
        workloads.generate(wl, 7, tmp_path / "b" / name)
        workloads.generate(wl, 8, tmp_path / "c" / name)
        a = read_tree(tmp_path / "a" / name)
        assert a == read_tree(tmp_path / "b" / name)
        assert a != read_tree(tmp_path / "c" / name)


def test_fault_wrapper_faults_the_same_keys_under_any_worker_count(tmp_path):
    wl = small("latency_fanout", fault_rate=0.2)
    workloads.generate(wl, 3, tmp_path)
    faulted, digests = [], []
    for workers in (1, 2):
        backend = workloads.LatencyFaultBackend(load_mock_script(tmp_path / workloads.SCRIPT),
                                                seed=3, latency_ms=0.0, fault_rate=0.2)
        train_and_test(tmp_path, LlmGateway(backend), workers=workers)
        faulted.append(backend.faulted)
        digests.append(gate.run_digest(tmp_path / workloads.TRAIN_DIR,
                                       tmp_path / workloads.TEST_DIR))
    assert faulted[0] and faulted[0] == faulted[1]
    assert all(backend.is_faulty(*key) for key in faulted[0])
    # retries leave no trace: the artifacts equal those of a fault-free run
    # with the same (default) worker count, which config.used.json records
    train_and_test(tmp_path, LlmGateway(load_mock_script(tmp_path / workloads.SCRIPT)))
    clean = gate.run_digest(tmp_path / workloads.TRAIN_DIR, tmp_path / workloads.TEST_DIR)
    assert digests[1] == clean


def test_gate_accepts_a_clean_run_and_rejects_a_corrupted_trajectory(tmp_path):
    wl = small("single_train", episodes=2)
    inputs = workloads.generate(wl, 5, tmp_path)
    train_and_test(tmp_path, LlmGateway(load_mock_script(tmp_path / workloads.SCRIPT)))
    assert all(not errors for errors in gate.check_run(inputs, tmp_path).values())

    path = tmp_path / workloads.TRAIN_DIR / "trajectory_2.jsonl"
    records = gate.read_trajectory(path)
    records[3]["pnl"] += 1e-9
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    checks = gate.check_run(inputs, tmp_path)
    assert checks["trajectory 2"] and not checks["trajectory 1"]


def test_gate_rejects_a_portfolio_weight_outside_its_box(tmp_path):
    wl = small("portfolio_wide", warmup=70)
    inputs = workloads.generate(wl, 5, tmp_path)
    train_and_test(tmp_path, LlmGateway(load_mock_script(tmp_path / workloads.SCRIPT)))
    records = gate.read_trajectory(tmp_path / workloads.TEST_DIR / "trajectory_test.jsonl")
    assert not gate.check_trajectory(inputs, "test", records)
    day = records[0]
    ticker = next(t for t, d in day["directions"].items() if d == "short")
    day["weights"][ticker] = 0.25
    assert gate.check_trajectory(inputs, "test", records)


def test_attribution_shares_overlapping_children_and_sums_to_wall():
    # a day span [0, 10] with two pool-thread children overlapping on [4, 6]
    recorded = [(2, "a", 2.0, 6.0, 1, 0), (3, "b", 4.0, 8.0, 1, 0),
                (1, "day", 0.0, 10.0, None, 0)]
    share, uncovered = spans.attribute(recorded, -1.0, 11.0)
    assert share == {1: 4.0, 2: 3.0, 3: 3.0}
    assert uncovered == 2.0


def test_span_check_passes_a_nested_trace_and_flags_broken_ones():
    day = (1, spans.DAY, 0.0, 10.0, None, 0)
    analyst = (2, spans.ANALYST, 2.0, 6.0, 1, 0)
    assert spans.check_spans([analyst, day], 0.0, 10.0) == []
    # a pool thread that lost the day, a child outliving its parent, a parent
    # that never closed, and top-level spans that miss most of the interval
    orphan = (3, spans.ANALYST, 3.0, 4.0, None, 0)
    late = (4, "memory.retrieve", 5.0, 11.0, 1, 0)
    lost = (5, "memory.embed", 5.0, 6.0, 99, 0)
    for broken in ([analyst, day, orphan], [analyst, day, late], [analyst, day, lost]):
        assert len(spans.check_spans(broken, 0.0, 10.0)) == 1
    assert spans.check_spans([analyst, day], 0.0, 20.0)


def test_benchmark_json_metric_names_are_well_formed():
    spec = json.loads(BENCHMARK.read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    assert len(names) == len(set(names))
