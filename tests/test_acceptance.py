"""Acceptance criteria, one test per criterion with its stated tolerance.

Each test prints a single PASS line on success; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import itertools
import json
import math
import os
import time
from datetime import date

import numpy as np
import pytest

from fincon import backtest
from fincon.backtest import RunConfig, Trajectory, cumulative_return, max_drawdown, sharpe_ratio, wilcoxon_signed_rank
from fincon.cli import main
from fincon.errors import ZeroVolatility
from fincon.llm_gateway import LlmGateway, load_mock_script
from fincon.memory import HashEmbedder, MemoryEvent, MemoryQuery, MemoryStore, importance_score
from fincon.portfolio import MVInputs, direction_bounds, mv_objective, solve_mean_variance
from fincon.risk_control import RiskState, overlap_percentage, var_cvar, within_episode_check

from fixtures import (
    build_portfolio_fixture,
    build_single_stock_fixture,
    constant_directions,
    oracle_grid,
    oracle_pg,
    oracle_top_k,
    oracle_var_cvar,
)
from test_memory import random_store


def _report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_risk_metric_oracle_equivalence():
    start = time.monotonic()
    var, cv = var_cvar([-5, -3, -1, 0, 2, 4, 6, 8, 10, 12], 0.2)
    assert var == -3.0
    assert cv == -4.0
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = int(rng.integers(1, 501))
        history = (rng.standard_normal(n) * rng.uniform(0.1, 5)).tolist()
        alpha = float(rng.uniform(0.005, 0.995))
        got = var_cvar(history, alpha)
        want = oracle_var_cvar(history, alpha)
        assert abs(got[0] - want[0]) <= 1e-12
        assert abs(got[1] - want[1]) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(1, f"VaR/CVaR == sort-and-tail oracle on 1000 histories in {elapsed:.2f}s")


def test_criterion_02_mean_variance_solver():
    start = time.monotonic()
    w = solve_mean_variance(MVInputs(mu=np.array([0.4, 1.2]), sigma=np.eye(2),
                                     directions=("long", "long")))
    assert abs(w[0] - 0.2) < 1e-6 and abs(w[1] - 0.6) < 1e-6
    rng = np.random.default_rng(102)
    for trial in range(500):
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n))
        sigma = (a.T @ a / n) * float(rng.choice([0.05, 1.0, 4.0]))
        mu = rng.standard_normal(n)
        directions = [str(rng.choice(["long", "short", "neutral"])) for _ in range(n)]
        lo, hi = direction_bounds(directions)
        got = mv_objective(solve_mean_variance(
            MVInputs(mu=mu, sigma=sigma, directions=directions)), mu, sigma)
        assert abs(got - oracle_pg(mu, sigma, lo, hi)) < 1e-6, f"trial {trial}"
    for trial in range(10):
        n = int(rng.integers(1, 3))
        a = rng.standard_normal((n, n))
        sigma = a.T @ a / n
        mu = rng.standard_normal(n)
        directions = [str(rng.choice(["long", "short", "neutral"])) for _ in range(n)]
        lo, hi = direction_bounds(directions)
        got = mv_objective(solve_mean_variance(
            MVInputs(mu=mu, sigma=sigma, directions=directions)), mu, sigma)
        want = oracle_grid(mu, sigma, lo, hi)
        assert got >= want - 1e-9 and abs(got - want) < 1e-5
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(2, f"500 QP instances within 1e-6 of the PG oracle in {elapsed:.2f}s")


def test_criterion_03_memory_retrieval():
    start = time.monotonic()
    emb = HashEmbedder(16)
    event = MemoryEvent(event_id="e", owner="a", layer="procedural", content="c",
                        embedding=emb.embed("c"), initial_importance=0.8,
                        decay_ratio=0.9, created_at=date(2022, 1, 3))
    got = importance_score(event, date(2022, 1, 5))
    assert abs(got - 0.648) < 1e-12  # 0.8 * 0.9**2 at IEEE double precision
    store = MemoryStore()
    store.add(event)
    store.boost_access("e")
    assert store.get("e").access_bonus == 5.0
    assert abs(importance_score(store.get("e"), date(2022, 1, 5)) - 5.648) < 1e-12

    rng = np.random.default_rng(103)
    from datetime import timedelta
    for size in (100, 1000, 10_000):
        events = random_store(rng, size, owners=("agent", "other"))
        big = MemoryStore()
        for e in events:
            big.add(e)
        as_of = date(2022, 1, 1) + timedelta(days=60)
        q = rng.standard_normal(16)
        k = 7
        got_ids = [s.event.event_id for s in
                   big.retrieve_top_k(MemoryQuery("q", q, as_of, k, "agent"))]
        assert got_ids == [hit[0] for hit in oracle_top_k(events, q, as_of, k, "agent")]
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(3, f"top-K == brute force up to 10k events in {elapsed:.2f}s")


def test_criterion_04_overlap_learning_rate():
    base = ["long"] * 49
    for agree, pct in ((23, 46.939), (35, 71.429), (40, 81.633)):
        seq = ["long"] * agree + ["short"] * (49 - agree)
        got = overlap_percentage(base, seq) * 100.0
        assert abs(got - pct) <= 0.001
    _report(4, "49-day overlaps reproduce 46.939/71.429/81.633%")


def test_criterion_05_trigger_truth_table():
    for rho_delta in (-1.0, 0.0, 1.0):
        for r_t in (-0.01, 0.0, 0.01):
            state = RiskState(date=date(2022, 6, 1), cvar=-2.0 + rho_delta,
                              prev_cvar=-2.0, alert=False, history_len=15)
            got = within_episode_check(state, r_t, min_history=10).alert
            assert got == (rho_delta < 0 or r_t < 0), (rho_delta, r_t)
    # r_t = 0 boundary with flat CVaR never fires
    flat = RiskState(date=date(2022, 6, 1), cvar=-2.0, prev_cvar=-2.0,
                     alert=False, history_len=15)
    assert not within_episode_check(flat, 0.0).alert
    _report(5, "alert == (CVaR dropped OR r_t < 0) on the exhaustive sign grid")


def test_criterion_06_metrics_anchors():
    pnls = [math.log(110 / 100), -math.log(99 / 110)]
    assert abs(cumulative_return(pnls) - 20.067) <= 1e-3
    assert max_drawdown([100.0, 120.0, 90.0, 130.0]) == 25.0
    with pytest.raises(ZeroVolatility):
        sharpe_ratio([0.01, 0.01, 0.01])
    _report(6, "CR 20.067%, MDD 25.0%, constant returns raise ZeroVolatility")


def test_criterion_07_end_to_end_determinism(tmp_path):
    assert not os.environ.get("FINCON_LLM_ENDPOINT"), "network must not be configured"
    start = time.monotonic()
    fix = build_single_stock_fixture(tmp_path / "fix", n_train=49, episodes=4,
                                     news_every=5)
    run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
    for run_dir in (run_a, run_b):
        code = main(["train", "--config", str(fix.config_path),
                     "--mock-script", str(fix.script_path),
                     "--run-dir", str(run_dir)])
        assert code == 0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0

    summary = json.loads((run_a / "train_summary.json").read_text())
    assert summary["belief_updates"] == 3
    assert summary["episodes_run"] == 4
    for k in (2, 3, 4):
        assert (run_a / "beliefs" / f"episode_{k}.json").exists()

    files_a = sorted(p.relative_to(run_a) for p in run_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(run_b) for p in run_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (run_a / rel).read_bytes() == (run_b / rel).read_bytes(), rel
    _report(7, f"4 episodes/49 days, 3 belief updates, {len(files_a)} files "
               f"byte-identical twice in {elapsed:.2f}s")


def test_criterion_08_test_stage_contract(tmp_path):
    def shifted_shrinking(i):
        # rising warmup, then strictly shrinking positive gains
        return 0.02 if i < 24 else 0.02 - 0.0008 * (i - 24)

    fix = build_single_stock_fixture(
        tmp_path / "fix", n_train=6, n_test=16, episodes=1,
        growth=shifted_shrinking, directions_fn=constant_directions("long"),
        analyst_roles=("data_analyst",))
    config = RunConfig.load(fix.config_path)
    gateway = LlmGateway(load_mock_script(fix.script_path))
    train_dir = tmp_path / "train_run"
    backtest.train(config, gateway, train_dir)

    payload = dict(fix.payload)
    payload["mode"] = "test"
    payload["backtest"] = dict(payload["backtest"])
    payload["backtest"]["train_run_dir"] = str(train_dir)
    test_config = RunConfig.from_dict(payload, fix.root)
    trajectory, _ = backtest.test(test_config, gateway, tmp_path / "test_run")

    trace = fix.traces["test"]
    cvar_drop_days = [t.index for t in trace if t.trigger == "cvar_drop"]
    assert cvar_drop_days, "fixture must contain scripted CVaR-drop days"
    for got, want in zip(trajectory.days, trace):
        assert got.alert == want.alert
        assert got.trigger == want.trigger
    for idx in cvar_drop_days:
        assert trajectory.days[idx].alert
        assert trajectory.days[idx].pnl > 0  # pure CVaR drops, not negative PnL
    summary = json.loads((tmp_path / "test_run" / "test_summary.json").read_text())
    assert summary["belief_update_calls"] == 0
    _report(8, f"test stage: belief counter 0, alerts fired on all "
               f"{len(cvar_drop_days)} scripted CVaR-drop days")


def test_criterion_09_no_look_ahead(tmp_path):
    config_a, script_a, days, closes_a, range_days = build_portfolio_fixture(
        tmp_path / "A")
    diverge_at = 25 + 8  # the bar that realizes the final day's PnL
    config_b, script_b, _, closes_b, _ = build_portfolio_fixture(
        tmp_path / "B", diverge_at=diverge_at)
    assert closes_a["AAA"][:diverge_at] == closes_b["AAA"][:diverge_at]
    assert closes_a["AAA"][diverge_at] != closes_b["AAA"][diverge_at]

    run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
    backtest.train(RunConfig.load(config_a), LlmGateway(load_mock_script(script_a)), run_a)
    backtest.train(RunConfig.load(config_b), LlmGateway(load_mock_script(script_b)), run_b)
    traj_a = Trajectory.from_jsonl(run_a / "trajectory_1.jsonl", 1, 1.0)
    traj_b = Trajectory.from_jsonl(run_b / "trajectory_1.jsonl", 1, 1.0)
    for da, db in zip(traj_a.days, traj_b.days):
        assert da.directions == db.directions
        assert da.weights == db.weights
    assert traj_a.days[-1].pnl != traj_b.days[-1].pnl

    def prompts(run_dir):
        lines = (run_dir / "prompts" / "assembled_1.jsonl").read_text().splitlines()
        return [json.loads(l) for l in lines
                if json.loads(l)["phase"] in ("analyze", "decide")]

    assert prompts(run_a) == prompts(run_b)
    _report(9, "divergent day-t+1 data left every day-t decision, weight and "
               "prompt unchanged")


def test_criterion_10_wilcoxon_exact_case():
    a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    b = [0.0] * 6
    statistic, p = wilcoxon_signed_rank(a, b)
    assert statistic == 0.0
    # exact enumeration over all 2^6 sign assignments
    count = 0
    for signs in itertools.product((1, -1), repeat=6):
        w_minus = sum(rank for sign, rank in zip(signs, range(1, 7)) if sign < 0)
        if w_minus <= 0:
            count += 1
    want = 2.0 * count / 2.0**6
    assert p == want == 0.03125
    _report(10, "six all-positive pairs give exact two-sided p = 0.03125")
