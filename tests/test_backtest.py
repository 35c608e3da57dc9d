import itertools
import json
import math
import threading
from collections import Counter
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from fincon import backtest
from fincon.backtest import (
    RunConfig,
    Trajectory,
    build_report,
    cumulative_return,
    daily_pnl,
    max_drawdown,
    objective_value,
    rolling_sigma_threshold,
    sharpe_ratio,
    signed_rank_sums,
    wilcoxon_signed_rank,
)
from fincon.errors import (
    ConfigError,
    EmptySeries,
    EmptyTrajectory,
    EpisodeAborted,
    InsufficientData,
    MissingTrainingArtifacts,
    MissingTrajectory,
    NonPositiveValue,
    TooFewPairs,
    ZeroVolatility,
)
from fincon.llm_gateway import LlmGateway, load_mock_script

from fixtures import (
    build_portfolio_fixture,
    build_single_stock_fixture,
    constant_directions,
    trading_days,
    write_price_csv,
)

# frozen 25-digit mpmath anchors
LN_11_10 = 0.09531017980432486
NEG_LN_9_10 = 0.10536051565782630
CR_ANCHOR_PCT = 20.06706954621512
SHARPE_ANCHOR = 0.6123724356957945


def make_gateway(fix):
    return LlmGateway(load_mock_script(fix.script_path))


def resume_config(fix) -> RunConfig:
    payload = json.loads(fix.config_path.read_text())
    payload.setdefault("backtest", {})["resume"] = True
    return RunConfig.from_dict(payload, fix.root)


class CountingBackend:
    """The scripted backend, counting into ``keys`` the step keys it is asked
    for."""

    def __init__(self, script_path, keys: Counter | None = None):
        self.inner = load_mock_script(script_path)
        self.keys = Counter() if keys is None else keys

    def generate(self, request):
        self.keys[request.step_key] += 1
        return self.inner.generate(request)


def between_episode_keys(keys) -> dict[str, int]:
    return {k: n for k, n in keys.items() if k.endswith((":conceptualize", ":belief_update"))}


def assert_same_run_dir(run_dir: Path, ref_dir: Path) -> None:
    """Same file set, and the same bytes in every file but config.used.json
    (a resumed run records ``backtest.resume``)."""
    files = {p.relative_to(run_dir) for p in run_dir.rglob("*") if p.is_file()}
    assert files == {p.relative_to(ref_dir) for p in ref_dir.rglob("*") if p.is_file()}
    for name in sorted(files - {Path("config.used.json")}):
        assert (run_dir / name).read_bytes() == (ref_dir / name).read_bytes(), name


class TestDailyPnl:
    def test_neutral_action(self):
        assert daily_pnl(0.0, 100.0, 110.0) == 0.0

    def test_long_gain(self):
        assert abs(daily_pnl(1.0, 100.0, 110.0) - LN_11_10) < 1e-12

    def test_short_gain_on_drop(self):
        assert abs(daily_pnl(-1.0, 100.0, 90.0) - NEG_LN_9_10) < 1e-12


class TestCumulativeReturn:
    def test_all_neutral(self):
        assert cumulative_return([0.0, 0.0, 0.0]) == 0.0

    def test_long_then_short_anchor(self):
        pnls = [daily_pnl(1.0, 100.0, 110.0), daily_pnl(-1.0, 110.0, 99.0)]
        assert abs(cumulative_return(pnls) - CR_ANCHOR_PCT) < 1e-3

    def test_single_day(self):
        assert abs(cumulative_return([daily_pnl(1.0, 100.0, 110.0)]) - 9.531) < 1e-3

    def test_empty(self):
        with pytest.raises(EmptyTrajectory):
            cumulative_return([])


class TestSharpe:
    def test_anchor(self):
        got = sharpe_ratio([0.01, -0.01, 0.03, 0.01])
        assert abs(got - SHARPE_ANCHOR) < 1e-12

    def test_constant_returns_zero_volatility(self):
        with pytest.raises(ZeroVolatility):
            sharpe_ratio([0.02, 0.02, 0.02])

    def test_mean_equals_risk_free(self):
        assert sharpe_ratio([0.01, 0.03, 0.02], risk_free_daily=0.02) == 0.0

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            sharpe_ratio([0.01])

    def test_annualization_flag(self):
        base = sharpe_ratio([0.01, -0.01, 0.03, 0.01])
        ann = sharpe_ratio([0.01, -0.01, 0.03, 0.01], annualize=True)
        assert abs(ann - base * math.sqrt(252)) < 1e-12


class TestMaxDrawdown:
    def test_monotone_increasing(self):
        assert max_drawdown([100.0, 101.0, 105.0]) == 0.0

    def test_scan_oracle_case(self):
        assert max_drawdown([100.0, 120.0, 90.0, 130.0]) == 25.0

    def test_single_drop(self):
        assert max_drawdown([100.0, 50.0]) == 50.0

    def test_empty(self):
        with pytest.raises(EmptySeries):
            max_drawdown([])

    def test_non_positive(self):
        with pytest.raises(NonPositiveValue):
            max_drawdown([100.0, 0.0])

    def test_matches_pure_scan_on_random_series(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            values = np.exp(rng.standard_normal(int(rng.integers(1, 200))) * 0.1).cumprod() * 100

            peak, worst = values[0], 0.0  # independent scan
            for v in values:
                peak = max(peak, v)
                worst = max(worst, (peak - v) / peak)
            assert abs(max_drawdown(values) - 100 * worst) < 1e-12


class TestObjective:
    def test_undiscounted(self):
        assert objective_value([1.0, 2.0, 3.0], 1.0) == 6.0

    def test_half_discount(self):
        assert objective_value([1.0, 2.0, 3.0], 0.5) == 2.75

    def test_empty(self):
        assert objective_value([], 0.9) == 0.0

    def test_strictly_increasing_in_alpha_for_positive_pnls(self):
        rng = np.random.default_rng(33)
        pnls = rng.uniform(0.001, 0.05, size=30).tolist()
        values = [objective_value(pnls, a) for a in (0.5, 0.7, 0.9, 1.0)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestRollingThreshold:
    def test_needs_two_points(self):
        assert rolling_sigma_threshold([0.01]) is None

    def test_zero_std(self):
        assert rolling_sigma_threshold([0.01, 0.01]) is None

    def test_two_sigma(self):
        import statistics
        pnls = [0.01, -0.02, 0.03, 0.0]
        assert rolling_sigma_threshold(pnls) == 2.0 * statistics.stdev(pnls)

    def test_window_limits_history(self):
        import statistics
        pnls = [100.0] + [0.01, -0.02, 0.03]
        got = rolling_sigma_threshold(pnls, window=3)
        assert got == 2.0 * statistics.stdev([0.01, -0.02, 0.03])


# --- Wilcoxon ---------------------------------------------------------------

def enumeration_oracle(diffs):
    """Exact two-sided p over all 2^n sign assignments (no zero diffs)."""
    n = len(diffs)
    mags = sorted(range(n), key=lambda i: abs(diffs[i]))
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(diffs[mags[j + 1]]) == abs(diffs[mags[i]]):
            j += 1
        for k in range(i, j + 1):
            ranks[mags[k]] = (i + j + 2) / 2.0
        i = j + 1
    w_minus_obs = sum(r for d, r in zip(diffs, ranks) if d < 0)
    w_plus_obs = sum(r for d, r in zip(diffs, ranks) if d > 0)
    w_obs = min(w_minus_obs, w_plus_obs)
    count = 0
    for signs in itertools.product((1, -1), repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s < 0)
        if w <= w_obs + 1e-12:
            count += 1
    return min(1.0, 2.0 * count / 2.0**n)


class TestWilcoxon:
    def test_identical_series_too_few_pairs(self):
        with pytest.raises(TooFewPairs):
            wilcoxon_signed_rank([1, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7])

    def test_all_positive_six_pairs_exact(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        b = [0.0] * 6
        statistic, p = wilcoxon_signed_rank(a, b)
        assert statistic == 0.0
        assert p == 0.03125

    def test_matches_enumeration_oracle_random_cases(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            n = int(rng.integers(6, 13))
            # distinct magnitudes: avoid ties so the exact path is exercised
            mags = rng.permutation(np.arange(1, n + 1)).astype(float)
            signs = rng.choice([-1.0, 1.0], size=n)
            diffs = mags * signs
            a = diffs.tolist()
            b = [0.0] * n
            _, p = wilcoxon_signed_rank(a, b)
            assert abs(p - enumeration_oracle(diffs.tolist())) < 1e-12

    def test_swap_negates_signed_rank_sum(self):
        rng = np.random.default_rng(37)
        a = rng.standard_normal(10).tolist()
        b = rng.standard_normal(10).tolist()
        wp1, wm1, _ = signed_rank_sums(a, b)
        wp2, wm2, _ = signed_rank_sums(b, a)
        assert (wp1 - wm1) == -(wp2 - wm2)
        assert wilcoxon_signed_rank(a, b) == wilcoxon_signed_rank(b, a)

    def test_tie_corrected_normal_path(self):
        a = [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0]  # tied magnitudes force the approximation
        b = [0.0] * 7
        statistic, p = wilcoxon_signed_rank(a, b)
        assert statistic == 0.0
        assert 0.0 < p < 0.05

    def test_large_sample_normal_path(self):
        rng = np.random.default_rng(39)
        a = (rng.standard_normal(40) + 0.8).tolist()
        b = [0.0] * 40
        _, p = wilcoxon_signed_rank(a, b)
        assert 0.0 < p < 0.01

    def test_normal_approximation_matches_scipy_oracle(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 50:
            n = int(rng.integers(26, 80))
            a = np.round(rng.standard_normal(n) + 0.3, 1)
            b = np.round(rng.standard_normal(n), 1)
            diffs = (a - b)[(a - b) != 0]
            if len(diffs) < 6:
                continue
            got_w, got_p = wilcoxon_signed_rank(a.tolist(), b.tolist())
            ref = stats.wilcoxon(a, b, zero_method="wilcox", correction=True,
                                 alternative="two-sided", method="approx")
            assert abs(got_p - ref.pvalue) < 1e-12
            assert got_w == ref.statistic
            checked += 1


# --- config ------------------------------------------------------------------

def minimal_payload(tmp_path):
    days = trading_days(date(2022, 1, 3), 12)
    write_price_csv(tmp_path / "p.csv", days, [100.0 + i for i in range(12)])
    return {
        "mode": "train",
        "tickers": ["SYN"],
        "data": {"prices": {"SYN": "p.csv"}, "documents": []},
        "dates": {"train_start": days[0].isoformat(), "train_end": days[5].isoformat(),
                  "test_start": days[6].isoformat(), "test_end": days[10].isoformat()},
    }


class TestRunConfig:
    def test_defaults_match_stated_values(self, tmp_path):
        config = RunConfig.from_dict(minimal_payload(tmp_path), tmp_path)
        assert config.memory["top_k"] == 5
        assert config.risk["cvar_alpha"] == 0.01
        assert config.llm["temperature_decision"] == 0.3
        assert config.portfolio["min_news"] == 800
        assert config.portfolio["shrinkage_lambda"] == 0.3
        assert config.memory["decay_ratios"]["news"] == 0.90
        assert config.memory["decay_ratios"]["form10k"] == 0.99
        assert config.data_ingest["momentum_window"] == 20

    def test_train_must_precede_test(self, tmp_path):
        payload = minimal_payload(tmp_path)
        payload["dates"]["test_start"] = payload["dates"]["train_start"]
        with pytest.raises(ConfigError):
            RunConfig.from_dict(payload, tmp_path)

    def test_unknown_key_rejected(self, tmp_path):
        # a misspelling, and the keys that configured nothing and were removed
        for section, key, value in (
                ("risk", "cvar_alfa", 0.01),
                ("llm", "temperature_belief", 0.0),
                ("memory", "embedder_dim", 64),
                ("portfolio", "fractional_shares", True),
                ("portfolio", "solver_obj_tol", 1e-10),
                ("portfolio", "solver_step_tol", 1e-8),
                ("portfolio", "solver_max_iter", 10_000)):
            payload = minimal_payload(tmp_path)
            payload[section] = {key: value}
            with pytest.raises(ConfigError, match=f"unknown key {section}.{key}"):
                RunConfig.from_dict(payload, tmp_path)

    def test_readme_config_block_matches_defaults(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        section = readme.split("### Configuration", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        documented = json.loads(block)
        for name, defaults in backtest.DEFAULTS.items():
            assert documented[name] == defaults, name

    def test_bad_discount_alpha(self, tmp_path):
        payload = minimal_payload(tmp_path)
        payload["backtest"] = {"discount_alpha": 0.0}
        with pytest.raises(ConfigError):
            RunConfig.from_dict(payload, tmp_path)

    def test_unknown_analyst_role(self, tmp_path):
        payload = minimal_payload(tmp_path)
        payload["agents"] = {"analyst_roles": ["astrologer"]}
        with pytest.raises(ConfigError):
            RunConfig.from_dict(payload, tmp_path)


# --- engine end-to-end --------------------------------------------------------

class TestEngineSingleStock:
    def test_all_neutral_run_is_flat_and_quiet(self, tmp_path):
        fix = build_single_stock_fixture(
            tmp_path, n_train=5, episodes=1,
            directions_fn=constant_directions("neutral"),
            analyst_roles=("data_analyst",))
        config = RunConfig.load(fix.config_path)
        _, trajs, updates = backtest.train(config, make_gateway(fix), tmp_path / "run")
        assert updates == []
        traj = trajs[0]
        assert [d.pnl for d in traj.days] == [0.0] * 5
        assert all(not d.alert for d in traj.days)
        assert all(d.reflections == [] for d in traj.days)

    def test_single_losing_day_yields_one_negative_pnl_reflection(self, tmp_path):
        def growth(i):
            return -0.01 if i == 28 else 0.01  # warmup 25 => decision day index 3

        fix = build_single_stock_fixture(
            tmp_path, n_train=8, episodes=1, growth=growth,
            directions_fn=constant_directions("long"),
            analyst_roles=("data_analyst",))
        config = RunConfig.load(fix.config_path)
        _, trajs, _ = backtest.train(config, make_gateway(fix), tmp_path / "run")
        traj = trajs[0]
        reflected = [(i, d) for i, d in enumerate(traj.days) if d.reflections]
        assert len(reflected) == 1
        day_index, day = reflected[0]
        assert day_index == 3
        assert day.reflections[0]["trigger"] == "negative_pnl"
        assert day.pnl < 0

    def test_buy_and_hold_equivalence(self, tmp_path):
        fix = build_single_stock_fixture(
            tmp_path, n_train=12, episodes=1,
            directions_fn=constant_directions("long"),
            analyst_roles=("data_analyst",))
        config = RunConfig.load(fix.config_path)
        _, trajs, _ = backtest.train(config, make_gateway(fix), tmp_path / "run")
        closes = fix.train_closes()
        want = 100.0 * math.log(closes[-1] / closes[0])
        assert abs(cumulative_return(trajs[0].pnls()) - want) < 1e-12

    def test_trace_matches_hand_oracle(self, tmp_path):
        fix = build_single_stock_fixture(tmp_path, n_train=18, episodes=1,
                                         analyst_roles=("data_analyst",))
        config = RunConfig.load(fix.config_path)
        _, trajs, _ = backtest.train(config, make_gateway(fix), tmp_path / "run")
        trace = fix.traces[1]
        for got, want in zip(trajs[0].days, trace):
            assert abs(got.pnl - want.pnl) < 1e-12
            assert abs(got.cvar - want.rho) < 1e-12
            assert got.alert == want.alert
            assert got.trigger == want.trigger

    def test_identical_rerun_byte_identical_trajectory(self, tmp_path):
        fix = build_single_stock_fixture(tmp_path, n_train=10, episodes=2,
                                         news_every=2)
        config = RunConfig.load(fix.config_path)
        backtest.train(config, make_gateway(fix), tmp_path / "a")
        backtest.train(config, make_gateway(fix), tmp_path / "b")
        for name in ("trajectory_1.jsonl", "trajectory_2.jsonl", "report.json",
                     "metrics.csv", "memory/snapshot.jsonl",
                     "prompts/final/prompt_set.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_metrics_recomputable_from_persisted_trajectory(self, tmp_path):
        fix = build_single_stock_fixture(tmp_path, n_train=15, episodes=1,
                                         analyst_roles=("data_analyst",))
        config = RunConfig.load(fix.config_path)
        backtest.train(config, make_gateway(fix), tmp_path / "run")
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        traj = Trajectory.from_jsonl(tmp_path / "run" / "trajectory_1.jsonl", 1,
                                     config.backtest["discount_alpha"])
        rebuilt = build_report(traj.pnls(), config.backtest["capital"],
                               config.risk["cvar_alpha"],
                               config.backtest["risk_free_daily"],
                               config.backtest["annualize_sharpe"],
                               config.backtest["discount_alpha"])
        assert report["cr_pct"] == rebuilt.cr_pct
        assert report["mdd_pct"] == rebuilt.mdd_pct
        assert report["sharpe"] == rebuilt.sharpe
        assert report["cvar"] == rebuilt.cvar

    def test_cited_memory_ids_validated_and_persisted(self, tmp_path):
        fix = build_single_stock_fixture(tmp_path, n_train=6, episodes=1,
                                         analyst_roles=("data_analyst",))
        # rewrite day-4's decide entry to cite the data analyst's day-4 insight,
        # which exists in the store by decision time
        day = fix.train_days[3].isoformat()
        cited = f"data_analyst:SYN:1:{day}:insight"
        entries = [json.loads(l) for l in fix.script_path.read_text().splitlines()]
        for e in entries:
            if e["step_key"] == f"1:{day}:decide":
                resp = json.loads(e["response"])
                resp["cited_memory_ids"] = [cited]
                e["response"] = json.dumps(resp)
        fix.script_path.write_text("".join(json.dumps(e) + "\n" for e in entries))
        config = RunConfig.load(fix.config_path)
        _, trajs, _ = backtest.train(config, make_gateway(fix), tmp_path / "run")
        assert trajs[0].days[3].cited_memory_ids == [cited]
        snapshot = (tmp_path / "run" / "memory" / "snapshot.jsonl").read_text()
        assert cited in snapshot

    def test_message_count_is_linear_and_exact(self, tmp_path):
        fix = build_single_stock_fixture(tmp_path, n_train=10, episodes=2,
                                         news_every=3)
        config = RunConfig.load(fix.config_path)
        gateway = make_gateway(fix)
        market = backtest.load_market(config)
        writer = backtest.RunWriter(tmp_path / "run")
        writer.write_config(config)
        engine = backtest.BacktestEngine(config, market, gateway, writer=writer)
        from fincon.agents import PromptSet
        prompts = PromptSet.initial(engine.profiles)
        trajs = []
        for k in (1, 2):
            trajs.append(engine.run_episode(prompts, k, config.train_start,
                                            config.train_end))
        n_instances = len(engine.analyst_ids)
        expected = 0
        for traj in trajs:
            pnls = []
            for day in traj.days:
                pnls.append(day.pnl)
                expected += n_instances + 1  # insights + decision
                threshold = rolling_sigma_threshold(
                    pnls, config.backtest["feedback_window"],
                    config.backtest["feedback_threshold_mult"])
                reporting = [a for a, text in day.insights.items()
                             if text != "no signal"]
                if threshold is not None and abs(day.pnl) >= threshold:
                    expected += len(reporting)
        assert engine.router.count() == expected
        assert expected <= len(trajs) * len(trajs[0].days) * (2 * n_instances + 1)


class TestEnginePortfolio:
    def test_weights_respect_direction_boxes_and_pnl_formula(self, tmp_path):
        config_path, script, days, closes, range_days = build_portfolio_fixture(tmp_path)
        config = RunConfig.load(config_path)
        gateway = LlmGateway(load_mock_script(script))
        _, trajs, _ = backtest.train(config, gateway, tmp_path / "run")
        traj = trajs[0]
        idx = {d: i for i, d in enumerate(days)}
        for day in traj.days:
            w_a, w_b = day.weights["AAA"], day.weights["BBB"]
            assert 0.0 <= w_a <= 1.0
            assert -1.0 <= w_b <= 0.0
            i = idx[day.date]
            want = sum(day.weights[t] * math.log(closes[t][i + 1] / closes[t][i])
                       for t in ("AAA", "BBB"))
            assert abs(day.pnl - want) < 1e-12

    def test_no_lookahead_divergent_future_leaves_decisions_unchanged(self, tmp_path):
        a_dir = tmp_path / "A"
        b_dir = tmp_path / "B"
        config_a, script_a, days, closes_a, range_days = build_portfolio_fixture(a_dir)
        # B diverges only at the bar AFTER the last decision day
        diverge_at = 25 + 8  # warmup + n_days: the final realization bar
        config_b, script_b, _, closes_b, _ = build_portfolio_fixture(
            b_dir, diverge_at=diverge_at)
        assert closes_a["AAA"][:diverge_at] == closes_b["AAA"][:diverge_at]
        assert closes_a["AAA"][diverge_at] != closes_b["AAA"][diverge_at]

        run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
        backtest.train(RunConfig.load(config_a),
                       LlmGateway(load_mock_script(script_a)), run_a)
        backtest.train(RunConfig.load(config_b),
                       LlmGateway(load_mock_script(script_b)), run_b)
        traj_a = Trajectory.from_jsonl(run_a / "trajectory_1.jsonl", 1, 1.0)
        traj_b = Trajectory.from_jsonl(run_b / "trajectory_1.jsonl", 1, 1.0)
        for da, db in zip(traj_a.days, traj_b.days):
            assert da.directions == db.directions
            assert da.weights == db.weights
        assert traj_a.days[-1].pnl != traj_b.days[-1].pnl  # future did change

        def decision_prompts(run_dir):
            entries = [json.loads(line) for line in
                       (run_dir / "prompts" / "assembled_1.jsonl").read_text().splitlines()]
            return [e for e in entries if e["phase"] in ("analyze", "decide")]

        assert decision_prompts(run_a) == decision_prompts(run_b)


class TestTrainTestDrivers:
    def test_max_one_episode_no_updates(self, tmp_path):
        fix = build_single_stock_fixture(tmp_path, n_train=6, episodes=1,
                                         analyst_roles=("data_analyst",))
        config = RunConfig.load(fix.config_path)
        _, trajs, updates = backtest.train(config, make_gateway(fix), tmp_path / "run")
        assert len(trajs) == 1
        assert updates == []
        summary = json.loads((tmp_path / "run" / "train_summary.json").read_text())
        assert summary["belief_updates"] == 0

    def test_four_episode_run_produces_three_updates(self, tmp_path):
        fix = build_single_stock_fixture(tmp_path, n_train=12, episodes=4,
                                         news_every=4)
        config = RunConfig.load(fix.config_path)
        _, trajs, updates = backtest.train(config, make_gateway(fix), tmp_path / "run")
        assert len(trajs) == 4
        assert len(updates) == 3
        for k in (2, 3, 4):
            assert (tmp_path / "run" / "beliefs" / f"episode_{k}.json").exists()

    def test_each_episode_is_conceptualized_once(self, tmp_path):
        fix = build_single_stock_fixture(tmp_path, n_train=12, episodes=4,
                                         news_every=4)
        scripted = {key for _, key in load_mock_script(fix.script_path).entries
                    if key.endswith(":conceptualize")}
        assert len(scripted) == 4

        backend = CountingBackend(fix.script_path)
        backtest.train(RunConfig.load(fix.config_path), LlmGateway(backend),
                       tmp_path / "run")
        requested = {k: n for k, n in backend.keys.items() if k.endswith(":conceptualize")}
        assert requested == {key: 1 for key in scripted}

        # a resumed session reads the restored update's insights back from
        # its belief file, so it conceptualizes only the episode it runs
        for name in ("trajectory_4.jsonl", "state/checkpoint_4.json"):
            (tmp_path / "run" / name).unlink()
        backend = CountingBackend(fix.script_path)
        backtest.train(resume_config(fix), LlmGateway(backend), tmp_path / "run")
        requested = {k.split(":")[0]: n for k, n in backend.keys.items()
                     if k.endswith(":conceptualize")}
        assert requested == {"4": 1}

    def test_test_stage_inherits_and_never_updates_beliefs(self, tmp_path):
        fix = build_single_stock_fixture(tmp_path, n_train=12, n_test=8, episodes=2,
                                         analyst_roles=("data_analyst",))
        config = RunConfig.load(fix.config_path)
        train_dir = tmp_path / "train_run"
        backtest.train(config, make_gateway(fix), train_dir)

        payload = dict(fix.payload)
        payload["mode"] = "test"
        payload["backtest"] = dict(payload["backtest"])
        payload["backtest"]["train_run_dir"] = str(train_dir)
        test_config = RunConfig.from_dict(payload, fix.root)
        trajectory, report = backtest.test(test_config, make_gateway(fix),
                                           tmp_path / "test_run")
        assert len(trajectory.days) == 8
        summary = json.loads((tmp_path / "test_run" / "test_summary.json").read_text())
        assert summary["belief_update_calls"] == 0
        # inherited beliefs from episode 2 appear in assembled test prompts
        log = (tmp_path / "test_run" / "prompts" / "assembled_test.jsonl").read_text()
        assert "v2: act on momentum sign changes." in log
        # alerts match the oracle trace for the test range
        for got, want in zip(trajectory.days, fix.traces["test"]):
            assert got.alert == want.alert

    def test_test_without_artifacts_fails(self, tmp_path):
        fix = build_single_stock_fixture(tmp_path, n_train=6, n_test=4, episodes=1,
                                         analyst_roles=("data_analyst",))
        payload = dict(fix.payload)
        payload["mode"] = "test"
        payload["backtest"] = {"train_run_dir": str(tmp_path / "nowhere")}
        config = RunConfig.from_dict(payload, fix.root)
        with pytest.raises(MissingTrainingArtifacts):
            backtest.test(config, make_gateway(fix), tmp_path / "test_run")

    def test_aborted_episode_writes_failed_artifact_and_resume_completes(self, tmp_path):
        for episodes in (2, 3):
            root = tmp_path / f"episodes_{episodes}"
            fix = build_single_stock_fixture(root, n_train=8, episodes=episodes,
                                             analyst_roles=("data_analyst",))
            config = RunConfig.load(fix.config_path)

            # uninterrupted reference run
            backtest.train(config, make_gateway(fix), root / "ref")

            # drop one decide entry of the last episode to force a mid-episode abort
            lines = fix.script_path.read_text().splitlines()
            victim_key = f"{episodes}:{fix.train_days[4].isoformat()}:decide"
            truncated = [l for l in lines if victim_key not in l]
            assert len(truncated) == len(lines) - 1
            broken_script = fix.root / "broken.jsonl"
            broken_script.write_text("\n".join(truncated) + "\n")

            run_dir = root / "resumable"
            with pytest.raises(EpisodeAborted):
                backtest.train(config, LlmGateway(load_mock_script(broken_script)), run_dir)
            assert (run_dir / f"trajectory_{episodes}.FAILED.jsonl").exists()
            assert (run_dir / f"trajectory_{episodes - 1}.jsonl").exists()

            backtest.train(resume_config(fix), make_gateway(fix), run_dir)
            # the completed episode's trajectory replaces its FAILED artifact;
            # belief updates and message counts include the restored episodes'
            assert_same_run_dir(run_dir, root / "ref")

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_resume_after_abort_in_next_episode_asks_each_step_once(self, tmp_path, k):
        fix = build_single_stock_fixture(tmp_path, n_train=12, episodes=4,
                                         news_every=4)
        config = RunConfig.load(fix.config_path)
        backtest.train(config, make_gateway(fix), tmp_path / "ref")
        scripted = between_episode_keys(
            Counter(key for _, key in load_mock_script(fix.script_path).entries))
        assert len(scripted) == 4 + 3

        # drop one decide entry of episode k + 1 to abort it mid-episode
        victim = f"{k + 1}:{fix.train_days[4].isoformat()}:decide"
        lines = fix.script_path.read_text().splitlines()
        broken = fix.root / "broken.jsonl"
        broken.write_text("".join(l + "\n" for l in lines if victim not in l))
        keys = Counter()
        run_dir = tmp_path / "resumable"
        with pytest.raises(EpisodeAborted):
            backtest.train(config, LlmGateway(CountingBackend(broken, keys)), run_dir)
        assert (run_dir / f"trajectory_{k + 1}.FAILED.jsonl").exists()

        backtest.train(resume_config(fix),
                       LlmGateway(CountingBackend(fix.script_path, keys)), run_dir)
        assert_same_run_dir(run_dir, tmp_path / "ref")
        # across both sessions each episode is conceptualized once and each
        # belief update asked for once
        assert between_episode_keys(keys) == scripted

    def test_crash_while_writing_checkpoint_memory_resumes_cleanly(self, tmp_path,
                                                                   monkeypatch):
        fix = build_single_stock_fixture(tmp_path, n_train=8, episodes=3,
                                         analyst_roles=("data_analyst",))
        config = RunConfig.load(fix.config_path)
        backtest.train(config, make_gateway(fix), tmp_path / "ref")

        class Crash(Exception):
            pass

        save = backtest.MemoryStore.save_jsonl
        saved = []

        def save_then_crash_on_second(self, path):
            # the second snapshot is episode 2's checkpoint memory: leave it
            # half written, as a process killed mid-write would
            save(self, path)
            saved.append(path)
            if len(saved) == 2:
                data = Path(path).read_bytes()
                Path(path).write_bytes(data[:len(data) // 2])
                raise Crash

        run_dir = tmp_path / "resumable"
        with monkeypatch.context() as patch:
            patch.setattr(backtest.MemoryStore, "save_jsonl", save_then_crash_on_second)
            with pytest.raises(Crash):
                backtest.train(config, make_gateway(fix), run_dir)
        assert saved[1] == run_dir / "state" / "memory_2.jsonl"
        assert not (run_dir / "state" / "checkpoint_2.json").exists()

        backtest.train(resume_config(fix), make_gateway(fix), run_dir)
        assert_same_run_dir(run_dir, tmp_path / "ref")

    def test_resume_after_convergence_runs_no_further_episode(self, tmp_path,
                                                               monkeypatch):
        # constant directions overlap fully, so training converges at episode 2 of 3
        fix = build_single_stock_fixture(tmp_path, n_train=8, episodes=3,
                                         directions_fn=constant_directions("long"),
                                         analyst_roles=("data_analyst",))
        config = RunConfig.load(fix.config_path)
        backtest.train(config, make_gateway(fix), tmp_path / "ref")
        assert not (tmp_path / "ref" / "trajectory_3.jsonl").exists()

        class Interrupted(Exception):
            pass

        def interrupt(self, prompts):
            raise Interrupted

        # stop after the converged episode's checkpoint, before the final artifacts
        run_dir = tmp_path / "resumable"
        with monkeypatch.context() as patch:
            patch.setattr(backtest.RunWriter, "write_prompt_set", interrupt)
            with pytest.raises(Interrupted):
                backtest.train(config, make_gateway(fix), run_dir)
        assert (run_dir / "state" / "checkpoint_2.json").exists()
        assert not (run_dir / "prompts" / "final").exists()

        backtest.train(resume_config(fix), make_gateway(fix), run_dir)
        assert not (run_dir / "trajectory_3.jsonl").exists()
        for name in ("prompts/final/prompt_set.json", "memory/snapshot.jsonl",
                     "report.json", "train_summary.json"):
            assert (run_dir / name).read_bytes() == \
                (tmp_path / "ref" / name).read_bytes(), name

    def test_train_run_dir_resolves_against_the_config_directory(self, tmp_path,
                                                                  monkeypatch):
        fix = build_single_stock_fixture(tmp_path / "fixture", n_train=6, n_test=4,
                                         episodes=1, analyst_roles=("data_analyst",))
        backtest.train(RunConfig.load(fix.config_path), make_gateway(fix),
                       fix.root / "train")
        payload = json.loads(fix.config_path.read_text())
        payload["mode"] = "test"
        payload["backtest"]["train_run_dir"] = "train"
        test_config_path = fix.root / "config_test.json"
        test_config_path.write_text(json.dumps(payload))
        runs = {}
        for cwd in (fix.root, tmp_path / "elsewhere"):
            cwd.mkdir(exist_ok=True)
            monkeypatch.chdir(cwd)
            run_dir = tmp_path / f"test_from_{cwd.name}"
            backtest.test(RunConfig.load(test_config_path), make_gateway(fix), run_dir)
            runs[cwd.name] = {p.relative_to(run_dir): p.read_bytes()
                              for p in sorted(run_dir.rglob("*")) if p.is_file()}
        assert runs["fixture"] == runs["elsewhere"]
        used = json.loads(runs["elsewhere"][Path("config.used.json")])
        assert used["backtest"]["train_run_dir"] == "train"

    def test_stages_release_their_analyst_pool(self, tmp_path):
        # news + data analysts are two instances, so the default two workers
        # fan them out on a pool
        fix = build_single_stock_fixture(tmp_path, n_train=6, n_test=4, episodes=1,
                                         news_every=2)

        before = set(threading.enumerate())

        def new_threads():
            return set(threading.enumerate()) - before

        class PeakThreads:
            """Scripted backend that records how many new threads are alive."""

            def __init__(self, script_path):
                self.inner = load_mock_script(script_path)
                self.peak = 0

            def generate(self, request):
                self.peak = max(self.peak, len(new_threads()))
                return self.inner.generate(request)

        backend = PeakThreads(fix.script_path)
        backtest.train(RunConfig.load(fix.config_path), LlmGateway(backend),
                       tmp_path / "train")
        assert backend.peak > 0
        assert not new_threads()

        payload = json.loads(fix.config_path.read_text())
        payload["mode"] = "test"
        payload["backtest"]["train_run_dir"] = str(tmp_path / "train")
        backend = PeakThreads(fix.script_path)
        backtest.test(RunConfig.from_dict(payload, fix.root), LlmGateway(backend),
                      tmp_path / "test")
        assert backend.peak > 0
        assert not new_threads()

        # a data-analyst reply that fails its schema on every attempt aborts
        # the episode from a pool thread
        victim = f"1:{fix.train_days[2].isoformat()}:analyze"
        lines = []
        for line in fix.script_path.read_text().splitlines():
            entry = json.loads(line)
            if entry["role_tag"] == "data_analyst:SYN" and entry["step_key"] == victim:
                entry["response"] = "not json"
            lines.append(json.dumps(entry))
        broken = fix.root / "broken.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        backend = PeakThreads(broken)
        with pytest.raises(EpisodeAborted):
            backtest.train(RunConfig.load(fix.config_path), LlmGateway(backend),
                           tmp_path / "aborted")
        assert backend.peak > 0
        assert not new_threads()

    def test_recompute_report_missing_trajectory(self, tmp_path):
        fix = build_single_stock_fixture(tmp_path, n_train=6, episodes=1,
                                         analyst_roles=("data_analyst",))
        config = RunConfig.load(fix.config_path)
        (tmp_path / "empty_run").mkdir()
        with pytest.raises(MissingTrajectory):
            backtest.recompute_report(tmp_path / "empty_run", config)
