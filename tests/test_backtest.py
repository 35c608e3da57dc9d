import ast
import hashlib
import itertools
import json
import math
import re
import shutil
import statistics
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fincon import agents, backtest
from fincon.backtest import (
    RunConfig,
    build_report,
    cumulative_return,
    daily_pnl,
    max_drawdown,
    objective_value,
    rolling_sigma_threshold,
    sample_stdev,
    sharpe_ratio,
    signed_rank_sums,
    wilcoxon_signed_rank,
)
from fincon.errors import (
    BackendUnavailable,
    ConfigError,
    EmptySeries,
    EmptyTrajectory,
    EpisodeAborted,
    FinconError,
    InsufficientData,
    MissingTrainingArtifacts,
    MissingTrajectory,
    NonPositiveValue,
    SchemaViolationAfterRetries,
    TooFewPairs,
    ZeroVolatility,
)
from fincon.llm_gateway import LlmGateway, ScriptedBackend, load_mock_script
from fincon.memory import HashEmbedder, MemoryStore

from fixtures import (
    build_portfolio_fixture,
    build_single_stock_fixture,
    constant_directions,
    mixed_growth,
    oracle_sample_stdev,
    trading_days,
    write_documents,
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


class PromptLog(CountingBackend):
    """A counting backend that also records each request's user prompt by
    step key."""

    def __init__(self, script_path):
        super().__init__(script_path)
        self.prompts = defaultdict(list)
        self.lock = threading.Lock()

    def generate(self, request):
        with self.lock:
            self.prompts[request.step_key].append(request.user_prompt)
            return super().generate(request)


def feedback_days(run_dir: Path) -> set[tuple[str, str]]:
    """The (episode tag, date) of every day that fed back to an analyst,
    from the events in a run's memory snapshot."""
    days = set()
    for line in (run_dir / "memory" / "snapshot.jsonl").read_text().splitlines():
        *_, tag, day, kind = json.loads(line)["event_id"].split(":")
        if kind == "feedback":
            days.add((tag, day))
    return days


class ThreadLog:
    """The scripted backend, recording the thread each analyst call runs on,
    by (day, agent id)."""

    def __init__(self, script_path):
        self.inner = load_mock_script(script_path)
        self.threads = {}

    def generate(self, request):
        if request.step_key.endswith(":analyze"):
            day = request.step_key.split(":")[1]
            self.threads[(day, request.role_tag)] = threading.current_thread()
        return self.inner.generate(request)


class CallThreads:
    """The scripted backend behind a wrapper, so the engine fans a batch out
    on its pool, recording the thread of every call by (role tag, step
    key)."""

    def __init__(self, script_path):
        self.inner = load_mock_script(script_path)
        self.threads = {}

    def generate(self, request):
        self.threads[(request.role_tag, request.step_key)] = threading.current_thread()
        return self.inner.generate(request)


def alert_days(run_dir: Path, tag: object = 1) -> list[bool]:
    """Each day's alert flag in a run's trajectory."""
    return [json.loads(line)["alert"] for line in
            (run_dir / f"trajectory_{tag}.jsonl").read_text().splitlines()]


class ScriptedThreadLog(ScriptedBackend):
    """A scripted backend itself, not a wrapper, recording the thread each
    analyst call runs on by (day, agent id), and the peak count of live
    threads that were not alive when it was built."""

    def __init__(self, script_path):
        super().__init__(load_mock_script(script_path).entries)
        self.before = set(threading.enumerate())
        self.threads = {}
        self.peak = 0

    def generate(self, request):
        self.peak = max(self.peak, len(set(threading.enumerate()) - self.before))
        if request.step_key.endswith(":analyze"):
            day = request.step_key.split(":")[1]
            self.threads[(day, request.role_tag)] = threading.current_thread()
        return super().generate(request)


def prompt_tag(user_prompt: str) -> str:
    return "#" + hashlib.sha256(user_prompt.encode()).hexdigest()[:16]


class PromptTagged(ScriptedBackend):
    """A script whose analyst insights each end with a digest of the user
    prompt they answer, so a reply shows which prompt it answered."""

    def generate(self, request):
        reply = super().generate(request)
        if request.step_key.endswith(":analyze"):
            parsed = json.loads(reply)
            parsed["insight"] += " " + prompt_tag(request.user_prompt)
            reply = json.dumps(parsed)
        return reply


def break_reply(script_path: Path, role_tag: str, step_key: str) -> Path:
    """A copy of the script whose one reply fails its schema on every attempt."""
    lines = []
    for line in script_path.read_text().splitlines():
        entry = json.loads(line)
        if entry["role_tag"] == role_tag and entry["step_key"] == step_key:
            entry["response"] = "not json"
        lines.append(json.dumps(entry))
    broken = script_path.with_name("broken.jsonl")
    broken.write_text("\n".join(lines) + "\n")
    return broken


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


# PnL-sized values, zeros of both signs, and values of any magnitude (with
# subnormals); a sample reuses a few of them, so it holds ties
STDEV_VALUES = st.one_of(st.floats(min_value=-0.1, max_value=0.1),
                         st.sampled_from([0.0, -0.0]),
                         st.floats(min_value=-1e300, max_value=1e300))
STDEV_SAMPLES = st.lists(STDEV_VALUES, min_size=1, max_size=5).flatmap(
    lambda pool: st.lists(st.sampled_from(pool) | STDEV_VALUES, min_size=2, max_size=20))


class TestSampleStdev:
    @given(STDEV_SAMPLES)
    @example([0.01, 0.01])
    @example([5e-324, 0.0])
    @example([1e300, -1e300, 1e-300])
    def test_equals_the_fraction_oracle(self, values):
        assert sample_stdev(values) == oracle_sample_stdev(values)

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="statistics.stdev rounds twice before Python 3.11")
    @given(STDEV_SAMPLES)
    def test_bit_equal_to_statistics_stdev(self, values):
        assert sample_stdev(values).hex() == statistics.stdev(values).hex()

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            sample_stdev([0.5])


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

    def test_config_used_is_the_resolved_document(self, tmp_path):
        """config.used.json holds every default, the omitted data.documents
        included, the dates in ISO form, no null seed, and what a caller set
        on a section after load, but not the worker count, which changes no
        output."""
        payload = minimal_payload(tmp_path)
        del payload["data"]["documents"]
        payload["dates"]["train_start"] = "2022-1-3"
        config = RunConfig.from_dict(payload, tmp_path)
        config.memory["top_k"] = 3
        config.agents["workers"] = 3
        backtest.RunWriter(tmp_path / "run").write_config(config)
        used = json.loads((tmp_path / "run" / "config.used.json").read_text())
        assert used["data"] == {"prices": {"SYN": "p.csv"}, "documents": []}
        assert used["dates"]["train_start"] == "2022-01-03"
        assert "seed" not in used
        assert used["memory"]["top_k"] == 3
        assert "workers" not in used["agents"]
        assert config.agents["workers"] == 3
        assert used["mode"] == "train"
        assert set(used) == {*backtest.SECTIONS, "mode", "tickers", "data", "dates"}

    def test_document_shares_no_list_with_the_schema_or_the_payload(self, tmp_path):
        payload = minimal_payload(tmp_path)
        del payload["data"]["documents"]
        config = RunConfig.from_dict(payload, tmp_path)
        config.agents["analyst_roles"].remove("news_analyst")
        config.doc["data"]["documents"].append("more.jsonl")
        config.tickers.append("OTHER")
        assert backtest.CONFIG_SCHEMA["data.documents"][0] == []
        assert payload["tickers"] == ["SYN"]
        fresh = RunConfig.from_dict(minimal_payload(tmp_path), tmp_path)
        assert "news_analyst" in fresh.agents["analyst_roles"]

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

    def test_every_default_is_of_its_kind(self):
        """The walk checks only given values, so each default must pass its kind."""
        for key, (default, kind) in backtest.CONFIG_SCHEMA.items():
            assert default is backtest.REQUIRED or kind.admits(default), key

    def test_missing_required_key_named(self, tmp_path):
        payload = minimal_payload(tmp_path)
        del payload["dates"]["train_end"]
        with pytest.raises(ConfigError, match="^dates.train_end is required$"):
            RunConfig.from_dict(payload, tmp_path)
        payload = minimal_payload(tmp_path)
        del payload["tickers"]
        with pytest.raises(ConfigError, match="^tickers is required$"):
            RunConfig.from_dict(payload, tmp_path)

    def test_readme_config_block_matches_schema(self):
        """The block lists every schema key with a value its kind admits, and
        every per-module key with its default."""
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        section = readme.split("### Configuration", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        documented = {}
        for name, value in json.loads(block).items():
            if name in backtest.CONFIG_SCHEMA:
                documented[name] = value
            else:
                documented.update({f"{name}.{key}": v for key, v in value.items()})
        assert set(documented) == set(backtest.CONFIG_SCHEMA)
        for key, (default, kind) in backtest.CONFIG_SCHEMA.items():
            assert kind.admits(documented[key]), key
            if key.split(".")[0] in backtest.SECTIONS:
                assert documented[key] == default, key

    def test_readme_kinds_table_matches_schema(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        section = readme.split("### Configuration", 1)[1].split("\n### ", 1)[0]
        rows = [line.split("|")[1:3] for line in section.splitlines()
                if line.startswith("| `")]
        documented = {key.strip().strip("`"): text.strip() for key, text in rows}
        assert documented == {key: str(kind)
                              for key, (_, kind) in backtest.CONFIG_SCHEMA.items()}

    @pytest.mark.parametrize("key, admitted, rejected", [
        ("backtest.position_size", [1, 1.0, 1e-9], [0, 1.5, True, "1", float("nan")]),
        ("risk.cvar_alpha", [0.5], [0.0, 1.0, None]),
        ("agents.workers", [None, 1, 64], [0, 1.0, False]),
        ("backtest.risk_free_daily", [-0.01, 0, 0.01], [float("inf"), float("-inf")]),
    ])
    def test_bounds_admit_their_interval_only(self, key, admitted, rejected):
        _, bound = backtest.CONFIG_SCHEMA[key]
        assert all(bound.admits(v) for v in admitted)
        assert not any(bound.admits(v) for v in rejected)

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
        trajs, updates = backtest.train(config, make_gateway(fix), tmp_path / "run")
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
        trajs, _ = backtest.train(config, make_gateway(fix), tmp_path / "run")
        traj = trajs[0]
        reflected = [(i, d) for i, d in enumerate(traj.days) if d.reflections]
        assert len(reflected) == 1
        day_index, day = reflected[0]
        assert day_index == 3
        assert day.reflections[0]["trigger"] == "negative_pnl"
        assert day.pnl < 0

    def test_calendar_is_the_first_tickers_whatever_the_price_order(self, tmp_path):
        """A price file listed before the traded ticker's in ``data.prices``,
        here on every other day and the last, does not set the decision
        days, and the resolved document keeps the order it was given."""
        fix = build_single_stock_fixture(tmp_path, n_train=10, ticker="A",
                                         analyst_roles=("data_analyst",))
        every_other = [*range(0, len(fix.all_days) - 1, 2), len(fix.all_days) - 1]
        write_price_csv(tmp_path / "prices_B.csv", [fix.all_days[i] for i in every_other],
                        [fix.closes[i] for i in every_other])
        payload = json.loads(fix.config_path.read_text())
        payload["data"]["prices"] = {"B": "prices_B.csv", "A": "prices_A.csv"}
        fix.config_path.write_text(json.dumps(payload))
        config = RunConfig.load(fix.config_path)
        trajs, _ = backtest.train(config, make_gateway(fix), tmp_path / "run")
        assert [d.date for d in trajs[0].days] == fix.train_days
        assert list(config.doc["data"]["prices"]) == ["B", "A"]
        used = json.loads((tmp_path / "run" / "config.used.json").read_text())
        assert used["data"]["prices"] == payload["data"]["prices"]

    def test_buy_and_hold_equivalence(self, tmp_path):
        fix = build_single_stock_fixture(
            tmp_path, n_train=12, episodes=1,
            directions_fn=constant_directions("long"),
            analyst_roles=("data_analyst",))
        config = RunConfig.load(fix.config_path)
        trajs, _ = backtest.train(config, make_gateway(fix), tmp_path / "run")
        closes = fix.train_closes()
        want = 100.0 * math.log(closes[-1] / closes[0])
        assert abs(cumulative_return(trajs[0].pnls()) - want) < 1e-12

    def test_trace_matches_hand_oracle(self, tmp_path):
        fix = build_single_stock_fixture(tmp_path, n_train=18, episodes=1,
                                         analyst_roles=("data_analyst",))
        config = RunConfig.load(fix.config_path)
        trajs, _ = backtest.train(config, make_gateway(fix), tmp_path / "run")
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
        traj = backtest.RunWriter(tmp_path / "run").read_trajectory(
            1, config.backtest["discount_alpha"])
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
        trajs, _ = backtest.train(config, make_gateway(fix), tmp_path / "run")
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
        engine = backtest.BacktestEngine(config, market, gateway,
                                         MemoryStore(calendar=market.calendar), writer)
        trajs = []
        for k in (1, 2):
            trajs.append(engine.run_episode({}, k, config.train_start,
                                            config.train_end, []))
        n_instances = len(engine.analysts)
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
        trajs, _ = backtest.train(config, gateway, tmp_path / "run")
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

    # b: the first bar that differs, from the bar after the first decision
    # day (global index 25) to the one that realizes the last day's PnL
    @given(b=st.integers(25 + 1, 25 + 8))
    @example(b=25 + 8)
    @settings(max_examples=8, deadline=None)
    def test_no_lookahead_divergent_future_leaves_decisions_unchanged(self, b):
        """Portfolio prices that diverge from bar b on leave every decision
        before b, and what the analysts and the manager saw for it, unchanged."""
        with tempfile.TemporaryDirectory() as tmp:
            runs, closes = [], []
            for name, diverge_at in (("A", None), ("B", b)):
                config, script, days, ticker_closes, _ = build_portfolio_fixture(
                    Path(tmp) / name, diverge_at=diverge_at)
                runs.append(Path(tmp) / f"run_{name}")
                closes.append(ticker_closes)
                backtest.train(RunConfig.load(config),
                               LlmGateway(load_mock_script(script)), runs[-1])
            for t in ("AAA", "BBB"):
                assert closes[0][t][:b] == closes[1][t][:b]
                assert closes[0][t][b] != closes[1][t][b]
            assert_decisions_before_match(*runs, days[b])


def assert_decisions_before_match(run_a: Path, run_b: Path, cutoff: date,
                                  changed: str = "pnl", episode: int = 1) -> None:
    """Two runs whose inputs to ``episode`` differ from the day ``cutoff``
    on: every ``:analyze`` and ``:decide`` prompt-log record of the episode
    dated before it is the same, and so is every trajectory day before it
    but the PnL of the last, which realizes on the bar dated ``cutoff``. The
    future did change: that PnL, for prices that diverge from that bar on
    (``changed`` "pnl"), or some ``:analyze`` record dated on or after
    ``cutoff``, for a changed document or memory (``changed`` "analyze")."""
    def logged(run_dir, phases, keep):
        log = run_dir / "prompts" / f"assembled_{episode}.jsonl"
        lines = log.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        return [r for r in records if r["step_key"].endswith(phases)
                and keep(date.fromisoformat(r["step_key"].split(":")[1]))]

    def before(run_dir):
        return logged(run_dir, (":analyze", ":decide"), lambda day: day < cutoff)

    records = before(run_a)
    assert records and records == before(run_b)
    days_a, days_b = (backtest.RunWriter(run).read_trajectory(episode, 1.0).days
                      for run in (run_a, run_b))
    earlier = [i for i, day in enumerate(days_a) if day.date < cutoff]
    for i in earlier:
        assert days_a[i].directions == days_b[i].directions
        assert days_a[i].weights == days_b[i].weights
        assert days_a[i].insights == days_b[i].insights
    assert [d.pnl for d in days_a[:earlier[-1]]] == [d.pnl for d in days_b[:earlier[-1]]]
    if changed == "pnl":
        assert days_a[earlier[-1]].pnl != days_b[earlier[-1]].pnl
    else:
        def analyzed_since(run_dir):
            return logged(run_dir, (":analyze",), lambda day: day >= cutoff)

        assert analyzed_since(run_a) != analyzed_since(run_b)


# b as above, for a single stock traded over 10 days
@given(b=st.integers(25 + 1, 25 + 10))
@example(b=25 + 10)
@settings(max_examples=10, deadline=None)
def test_no_lookahead_single_stock_data_analyst(b):
    """The data analyst's indicators, its asset CVaR among them, and the
    manager's decisions before bar b do not depend on bar b or later."""
    def diverging(i):  # closes[i + 1] = closes[i] * exp(growth(i))
        return mixed_growth(i) - (0.05 if i >= b - 1 else 0.0)

    with tempfile.TemporaryDirectory() as tmp:
        runs, closes = [], []
        for name, growth in (("A", mixed_growth), ("B", diverging)):
            fix = build_single_stock_fixture(Path(tmp) / name, n_train=10,
                                             growth=growth,
                                             directions_fn=constant_directions("long"),
                                             analyst_roles=("data_analyst",))
            runs.append(Path(tmp) / f"run_{name}")
            closes.append(fix.closes)
            backtest.train(RunConfig.load(fix.config_path), make_gateway(fix), runs[-1])
        assert closes[0][:b] == closes[1][:b] and closes[0][b] != closes[1][b]
        assert_decisions_before_match(*runs, fix.all_days[b])


# b as above, for news published every day of a 10-day single-stock run;
# the document changed is attached ``later`` trading days after b, at most
# on the last decision day
@given(b=st.integers(25 + 1, 25 + 9), later=st.integers(0, 8))
@example(b=25 + 1, later=0)
@settings(max_examples=10, deadline=None)
def test_no_lookahead_documents(b, later):
    """A document attached on or after trading day b leaves every analyst
    and manager prompt, and every decision, before b unchanged."""
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for name in ("A", "B"):
            fix = build_single_stock_fixture(Path(tmp) / name, n_train=10, news_every=1)
            if name == "B":
                changed = fix.all_days[min(b + later, 25 + 9)].isoformat()
                docs_path = fix.root / "docs.jsonl"
                docs = [json.loads(line) for line in docs_path.read_text().splitlines()]
                for doc in docs:
                    if doc["published"] == changed:
                        doc["body"] += " Revised guidance."
                write_documents(docs_path, docs)
            runs.append(Path(tmp) / f"run_{name}")
            backtest.train(RunConfig.load(fix.config_path), make_gateway(fix), runs[-1])
        assert_decisions_before_match(*runs, fix.all_days[b], changed="analyze")


# t: the last training day whose episode-1 insight stays as scripted
@given(t=st.integers(0, 8))
@example(t=0)
@settings(max_examples=8, deadline=None)
def test_no_lookahead_memory(t):
    """Episode 1's insights changed after day t leave every episode-2 prompt
    and decision dated at or before t unchanged: on each day, retrieval
    passes over the events the store holds from episode 1 dated later."""
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for name in ("A", "B"):
            fix = build_single_stock_fixture(Path(tmp) / name, n_train=10, episodes=2,
                                             analyst_roles=("data_analyst",))
            if name == "B":
                last_kept = fix.train_days[t].isoformat()
                entries = [json.loads(line)
                           for line in fix.script_path.read_text().splitlines()]
                for e in entries:
                    episode, day, phase = e["step_key"].split(":")
                    if (episode, phase) == ("1", "analyze") and day > last_kept:
                        resp = json.loads(e["response"])
                        resp["insight"] += " Revised."
                        e["response"] = json.dumps(resp)
                fix.script_path.write_text("".join(json.dumps(e) + "\n" for e in entries))
            runs.append(Path(tmp) / f"run_{name}")
            backtest.train(RunConfig.load(fix.config_path), make_gateway(fix), runs[-1])
        assert_decisions_before_match(*runs, fix.train_days[t + 1], changed="analyze",
                                      episode=2)


class TestTrainTestDrivers:
    def test_max_one_episode_no_updates(self, tmp_path):
        fix = build_single_stock_fixture(tmp_path, n_train=6, episodes=1,
                                         analyst_roles=("data_analyst",))
        config = RunConfig.load(fix.config_path)
        trajs, updates = backtest.train(config, make_gateway(fix), tmp_path / "run")
        assert len(trajs) == 1
        assert updates == []
        summary = json.loads((tmp_path / "run" / "train_summary.json").read_text())
        assert summary["belief_updates"] == 0

    def test_four_episode_run_produces_three_updates(self, tmp_path):
        fix = build_single_stock_fixture(tmp_path, n_train=12, episodes=4,
                                         news_every=4)
        config = RunConfig.load(fix.config_path)
        trajs, updates = backtest.train(config, make_gateway(fix), tmp_path / "run")
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

        # a resume replays every logged answer, so with episode 4's log gone
        # it asks again only for episode 4's calls, and conceptualizes that
        # episode once
        for name in ("trajectory_4.jsonl", "prompts/assembled_4.jsonl"):
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
        """Killed inside the memory snapshot, training's last write, a run
        resumes from its prompt logs alone and asks the backend nothing."""
        fix = build_single_stock_fixture(tmp_path, n_train=8, episodes=3,
                                         analyst_roles=("data_analyst",))
        config = RunConfig.load(fix.config_path)
        backtest.train(config, make_gateway(fix), tmp_path / "ref")

        save = backtest.MemoryStore.save_jsonl
        saved = []

        def save_then_crash(self, path):
            # leave the snapshot half written, as a process killed mid-write would
            save(self, path)
            saved.append(path)
            data = Path(path).read_bytes()
            Path(path).write_bytes(data[:len(data) // 2])
            raise Crash

        run_dir = tmp_path / "resumable"
        with monkeypatch.context() as patch:
            patch.setattr(backtest.MemoryStore, "save_jsonl", save_then_crash)
            with pytest.raises(Crash):
                backtest.train(config, make_gateway(fix), run_dir)
        assert saved == [run_dir / "memory" / "snapshot.jsonl"]

        backend = CountingBackend(fix.script_path)
        backtest.train(resume_config(fix), LlmGateway(backend), run_dir)
        assert not backend.keys
        assert_same_run_dir(run_dir, tmp_path / "ref")

    def test_crash_while_writing_checkpoint_file_resumes_cleanly(self, tmp_path,
                                                                 monkeypatch):
        """Killed inside episode 2's prompt log, the file a resume restarts
        from, a run resumes from episode 1's log, asking the backend again
        for no answer that log holds."""
        fix = build_single_stock_fixture(tmp_path, n_train=8, episodes=3,
                                         analyst_roles=("data_analyst",))
        config = RunConfig.load(fix.config_path)
        backtest.train(config, make_gateway(fix), tmp_path / "ref")

        write_text = Path.write_text

        def crash_writing_log_2(self, data, *args, **kwargs):
            # half the log's bytes land, then the process dies
            if self.name.startswith("assembled_2.jsonl"):
                write_text(self, data[:len(data) // 2], *args, **kwargs)
                raise Crash
            return write_text(self, data, *args, **kwargs)

        run_dir = tmp_path / "resumable"
        with monkeypatch.context() as patch:
            patch.setattr(Path, "write_text", crash_writing_log_2)
            with pytest.raises(Crash):
                backtest.train(config, make_gateway(fix), run_dir)
        assert (run_dir / "prompts" / "assembled_1.jsonl").exists()
        assert not (run_dir / "prompts" / "assembled_2.jsonl").exists()
        logged = backtest.RunWriter(run_dir).read_prompt_logs().keys()
        assert logged

        backtest.train(resume_config(fix), LlmGateway(Strict(fix.script_path, logged)),
                       run_dir)
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

        # stop after the converged episode's log, before the final artifacts
        run_dir = tmp_path / "resumable"
        with monkeypatch.context() as patch:
            patch.setattr(backtest.RunWriter, "write_prompt_set", interrupt)
            with pytest.raises(Interrupted):
                backtest.train(config, make_gateway(fix), run_dir)
        assert (run_dir / "prompts" / "assembled_2.jsonl").exists()
        assert not (run_dir / "prompts" / "final").exists()

        backend = CountingBackend(fix.script_path)
        backtest.train(resume_config(fix), LlmGateway(backend), run_dir)
        assert not backend.keys
        assert_same_run_dir(run_dir, tmp_path / "ref")

    def test_resume_with_a_smaller_episode_cap_restores_up_to_the_cap(self, tmp_path):
        """A finished 3-episode run resumed with max_episodes=2 replays
        episodes 1 and 2 from its logs, asks the backend nothing, and leaves
        the directory a clean 2-episode run writes: episode 3's files go."""
        fix = build_single_stock_fixture(tmp_path, n_train=8, episodes=3,
                                         analyst_roles=("data_analyst",))
        run_dir = tmp_path / "run"
        backtest.train(RunConfig.load(fix.config_path), make_gateway(fix), run_dir)
        assert (run_dir / "trajectory_3.jsonl").exists()
        two = dict(fix.payload, backtest={"max_episodes": 2})
        backtest.train(RunConfig.from_dict(two, fix.root), make_gateway(fix), tmp_path / "ref")

        two["backtest"] = {"max_episodes": 2, "resume": True}
        backend = CountingBackend(fix.script_path)
        trajs, updates = backtest.train(RunConfig.from_dict(two, fix.root),
                                        LlmGateway(backend), run_dir)
        assert [t.episode for t in trajs] == [1, 2] and len(updates) == 1
        assert not backend.keys  # every answer is replayed
        assert_same_run_dir(run_dir, tmp_path / "ref")

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
        # news + data analysts are two instances, and every analyst call
        # goes out on the pool
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
        broken = break_reply(fix.script_path, "data_analyst:SYN",
                             f"1:{fix.train_days[2].isoformat()}:analyze")
        backend = PeakThreads(broken)
        with pytest.raises(EpisodeAborted):
            backtest.train(RunConfig.load(fix.config_path), LlmGateway(backend),
                           tmp_path / "aborted")
        assert backend.peak > 0
        assert not new_threads()

    @pytest.mark.parametrize("workers, width", [(None, 4), (2, 2)])
    def test_pool_runs_a_days_analyst_calls_at_once(self, tmp_path, workers, width):
        """By default every analyst call of a day waits on the model at the
        same time, in a pool of one thread per analyst instance plus one for
        the previous day's reflection; an integer ``agents.workers`` caps how
        many do."""
        # four tickers, one data analyst each: all four call on every day
        tickers = ("AAA", "BBB", "CCC", "DDD")
        config_path, script, *_ = build_portfolio_fixture(tmp_path, n_days=3,
                                                          tickers=tickers)
        before = set(threading.enumerate())

        class Rendezvous:
            """Scripted backend whose analyst calls each wait until ``width``
            of them have arrived, recording the peak of new live threads."""

            def __init__(self):
                self.inner = load_mock_script(script)
                self.barrier = threading.Barrier(width, timeout=5)
                self.lock = threading.Lock()
                self.peak = 0

            def generate(self, request):
                if request.step_key.endswith(":analyze"):
                    with self.lock:
                        self.peak = max(self.peak,
                                        len(set(threading.enumerate()) - before))
                    self.barrier.wait()
                return self.inner.generate(request)

        config = RunConfig.load(config_path)
        if workers is not None:
            config.agents["workers"] = workers
        backend = Rendezvous()
        backtest.train(config, LlmGateway(backend), tmp_path / "train")
        # the default pool has a thread for the reflection beside the analysts'
        pool_size = width + 1 if workers is None else workers
        assert 0 < backend.peak <= pool_size
        assert not set(threading.enumerate()) - before

    def test_manager_only_run_trains(self, tmp_path):
        # no analyst instance, yet the default pool must have a thread
        fix = build_single_stock_fixture(tmp_path, n_train=4, episodes=1, analyst_roles=())
        backtest.train(RunConfig.load(fix.config_path), make_gateway(fix), tmp_path / "train")
        assert (tmp_path / "train" / "trajectory_1.jsonl").exists()

    def test_lone_analyst_call_runs_on_the_pool(self, tmp_path):
        # news on every second day: the data analyst is the only analyst
        # that calls on the other days, and the news analyst's no-signal
        # step calls nothing. Every analyst call is sent to the pool the day
        # before, to wait on the model while that day's decision does, so a
        # call that is its day's whole batch runs on the pool too
        fix = build_single_stock_fixture(tmp_path, n_train=6, episodes=1, news_every=2)
        backend = ThreadLog(fix.script_path)
        backtest.train(RunConfig.load(fix.config_path), LlmGateway(backend),
                       tmp_path / "train")
        alerts = alert_days(tmp_path / "train")
        caller = threading.current_thread()
        lone = set()
        for t, day in enumerate(fix.train_days):
            day = day.isoformat()
            calls = {role: thread for (d, role), thread in backend.threads.items() if d == day}
            assert caller not in calls.values(), day
            if t % 2:
                assert set(calls) == {"data_analyst:SYN"}, day
                if not alerts[t - 1]:
                    lone.add(day)
            else:
                assert set(calls) == {"data_analyst:SYN", "news_analyst:SYN"}, day
        # the fixture has both kinds of news-free day
        assert lone and len(lone) < len(fix.train_days) // 2

    def test_lone_call_failing_its_schema_aborts_the_episode(self, tmp_path):
        fix = build_single_stock_fixture(tmp_path, n_train=6, episodes=1, news_every=2)
        # no news, and no alert the day before: the data analyst's call is
        # the day's whole batch, sent to the pool the day before
        day = fix.train_days[3]
        broken = break_reply(fix.script_path, "data_analyst:SYN",
                             f"1:{day.isoformat()}:analyze")
        before = set(threading.enumerate())
        backend = ThreadLog(broken)
        run_dir = tmp_path / "aborted"
        with pytest.raises(EpisodeAborted):
            backtest.train(RunConfig.load(fix.config_path), LlmGateway(backend), run_dir)
        assert backend.threads[(day.isoformat(), "data_analyst:SYN")] \
            is not threading.current_thread()
        failed = (run_dir / "trajectory_1.FAILED.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in failed[:-1]]
        assert [r["date"] for r in records] == [d.isoformat() for d in fix.train_days[:3]]
        assert not records[-1]["alert"]
        assert "FAILED" in json.loads(failed[-1])
        assert set(threading.enumerate()) == before
        # the run on the engine thread fails with the same files
        with pytest.raises(EpisodeAborted):
            backtest.train(RunConfig.load(fix.config_path),
                           LlmGateway(load_mock_script(broken)), tmp_path / "inline")
        for name in ("trajectory_1.FAILED.jsonl", "prompts/assembled_1.jsonl"):
            assert (run_dir / name).read_bytes() == (tmp_path / "inline" / name).read_bytes()

    def test_scripted_calls_run_on_the_calling_thread_on_every_day(self, tmp_path):
        # news on every second day: then the news and data analysts both
        # call, but a scripted backend answers from memory, so no pool
        # thread starts in either stage
        fix = build_single_stock_fixture(tmp_path, n_train=6, n_test=4, episodes=1,
                                         news_every=2)
        backend = ScriptedThreadLog(fix.script_path)
        backtest.train(RunConfig.load(fix.config_path), LlmGateway(backend),
                       tmp_path / "train")
        payload = json.loads(fix.config_path.read_text())
        payload["mode"] = "test"
        payload["backtest"]["train_run_dir"] = str(tmp_path / "train")
        backtest.test(RunConfig.from_dict(payload, fix.root), LlmGateway(backend),
                      tmp_path / "test")
        fanned = {day for day, role in backend.threads if role == "news_analyst:SYN"}
        assert fanned == {d.isoformat() for d in (fix.train_days + fix.test_days)[::2]}
        assert (fix.train_days[0].isoformat(), "data_analyst:SYN") in backend.threads
        assert set(backend.threads.values()) == {threading.current_thread()}
        assert backend.peak == 0
        assert set(threading.enumerate()) == backend.before

    def test_scripted_reply_failing_its_schema_on_a_fanned_out_day_aborts_inline(
            self, tmp_path):
        fix = build_single_stock_fixture(tmp_path, n_train=6, episodes=1, news_every=2)
        day = fix.train_days[2].isoformat()  # news: both analysts call
        broken = break_reply(fix.script_path, "data_analyst:SYN", f"1:{day}:analyze")
        backend = ScriptedThreadLog(broken)
        run_dir = tmp_path / "aborted"
        with pytest.raises(EpisodeAborted):
            backtest.train(RunConfig.load(fix.config_path), LlmGateway(backend), run_dir)
        assert backend.threads[(day, "data_analyst:SYN")] is threading.current_thread()
        # the calls run in agent-id order, so the news analyst, after the
        # failing data analyst, is never asked that day
        assert (day, "news_analyst:SYN") not in backend.threads
        failed = (run_dir / "trajectory_1.FAILED.jsonl").read_text().splitlines()
        assert [json.loads(line).get("date") for line in failed[:-1]] == \
            [d.isoformat() for d in fix.train_days[:2]]
        assert "FAILED" in json.loads(failed[-1])
        assert backend.peak == 0
        assert set(threading.enumerate()) == backend.before

    def test_reflection_waits_on_the_model_with_the_next_days_analyst_call(self, tmp_path):
        """An alert day's reflection goes out with the next day's analyst
        call: each waits at a barrier until the other has arrived, which a
        reflection made before the next day starts never sees."""
        fix = build_single_stock_fixture(tmp_path, n_train=6, episodes=1,
                                         analyst_roles=("data_analyst",))
        config = RunConfig.load(fix.config_path)
        backtest.train(config, make_gateway(fix), tmp_path / "inline")
        t = alert_days(tmp_path / "inline").index(True)
        pair = {("manager", f"1:{fix.train_days[t].isoformat()}:reflect"),
                ("data_analyst:SYN", f"1:{fix.train_days[t + 1].isoformat()}:analyze")}

        class Rendezvous(CallThreads):
            def __init__(self, script_path):
                super().__init__(script_path)
                self.barrier = threading.Barrier(2, timeout=5)
                self.arrived, self.broken = set(), set()

            def generate(self, request):
                key = (request.role_tag, request.step_key)
                if key in pair:
                    try:
                        self.barrier.wait()
                        self.arrived.add(key)
                    except threading.BrokenBarrierError:
                        self.broken.add(key)
                return super().generate(request)

        backend = Rendezvous(fix.script_path)
        backtest.train(config, LlmGateway(backend), tmp_path / "pooled")
        assert not backend.broken
        assert backend.arrived == pair
        assert_same_run_dir(tmp_path / "pooled", tmp_path / "inline")

    def test_last_day_reflection_lands_in_the_last_record(self, tmp_path):
        """A last-day alert has no next day's batch: its reflection runs on
        the engine thread before the episode is written, and every earlier
        one on the pool. The pooled run writes the inline run's files."""
        fix = build_single_stock_fixture(tmp_path, n_train=6, episodes=1, news_every=2)
        config = RunConfig.load(fix.config_path)
        backtest.train(config, make_gateway(fix), tmp_path / "inline")
        backend = CallThreads(fix.script_path)
        backtest.train(config, LlmGateway(backend), tmp_path / "pooled")
        assert_same_run_dir(tmp_path / "pooled", tmp_path / "inline")

        alerts = alert_days(tmp_path / "pooled")
        assert alerts[-1] and sum(alerts) > 1
        last_day = fix.train_days[-1]
        last = json.loads((tmp_path / "pooled" / "trajectory_1.jsonl")
                          .read_text().splitlines()[-1])
        assert last["reflections"] == [{"trigger": last["trigger"],
                                        "text": f"Lesson recorded on {last_day.isoformat()}"}]
        prompts = (tmp_path / "pooled" / "prompts" / "assembled_1.jsonl").read_text()
        assert json.loads(prompts.splitlines()[-1])["step_key"].endswith(":reflect")

        caller = threading.current_thread()
        reflected = {key[1].split(":")[1]: thread for key, thread in backend.threads.items()
                     if key[1].endswith(":reflect")}
        assert reflected.pop(last_day.isoformat()) is caller
        assert len(reflected) == sum(alerts) - 1
        assert caller not in reflected.values()

    def test_reflection_failing_its_schema_on_the_pool_fails_as_inline(self, tmp_path):
        """A reflection that fails on the pool, beside the next day's analyst
        calls, writes the FAILED file an inline run writes, and leaves no
        thread behind."""
        fix = build_single_stock_fixture(tmp_path, n_train=12, episodes=1, news_every=2)
        config = RunConfig.load(fix.config_path)
        backtest.train(config, make_gateway(fix), tmp_path / "clean")
        t = [i for i, alert in enumerate(alert_days(tmp_path / "clean")) if alert][2]
        key = f"1:{fix.train_days[t].isoformat()}:reflect"
        broken = break_reply(fix.script_path, "manager", key)
        before = set(threading.enumerate())
        with pytest.raises(EpisodeAborted):
            backtest.train(config, LlmGateway(load_mock_script(broken)), tmp_path / "inline")
        backend = CallThreads(broken)
        with pytest.raises(EpisodeAborted):
            backtest.train(config, LlmGateway(backend), tmp_path / "pooled")
        assert backend.threads[("manager", key)] is not threading.current_thread()
        assert set(threading.enumerate()) == before

        failed = (tmp_path / "pooled" / "trajectory_1.FAILED.jsonl").read_bytes()
        assert failed == (tmp_path / "inline" / "trajectory_1.FAILED.jsonl").read_bytes()
        dates = [json.loads(line).get("date") for line in failed.decode().splitlines()]
        assert dates[:-1] == [d.isoformat() for d in fix.train_days[:t]]

    def test_a_request_feedback_changed_is_sent_again_and_its_stale_reply_dropped(
            self, tmp_path):
        """Each day's analyst requests go out before the day before decides.
        On the day after feedback, a reporting analyst's request is rebuilt
        with the feedback in its memories; when it differs from the one
        sent, it is sent again, and the stale prompt and its reply reach no
        file."""
        # news every day: both analysts report on every day
        fix = build_single_stock_fixture(
            tmp_path, n_train=12, episodes=2, news_every=1,
            extra_config={"backtest": {"feedback_threshold_mult": 0.5}})
        config = RunConfig.load(fix.config_path)
        entries = load_mock_script(fix.script_path).entries
        backtest.train(config, LlmGateway(PromptTagged(entries)), tmp_path / "inline")

        class Asked:
            """Pass-through to a ``PromptTagged`` script, recording every
            analyst request's user prompts by (agent id, step key)."""

            def __init__(self):
                self.inner = PromptTagged(entries)
                self.prompts = defaultdict(list)

            def generate(self, request):
                if request.step_key.endswith(":analyze"):
                    self.prompts[(request.role_tag, request.step_key)].append(
                        request.user_prompt)
                return self.inner.generate(request)

        backend = Asked()
        run_dir = tmp_path / "pooled"
        backtest.train(config, LlmGateway(backend), run_dir)
        assert_same_run_dir(run_dir, tmp_path / "inline")

        days = [d.isoformat() for d in fix.train_days]
        want = {(aid, f"{tag}:{days[days.index(day) + 1]}:analyze")
                for tag, day in feedback_days(run_dir) if day != days[-1]
                for aid in ("data_analyst:SYN", "news_analyst:SYN")}
        # every other request is asked once, as is one the feedback left
        # unchanged: a new memory need not move the top k or their scores
        resent = {key for key, prompts in backend.prompts.items() if len(prompts) != 1}
        assert resent <= want
        assert {aid for aid, _ in resent} == {"data_analyst:SYN", "news_analyst:SYN"}

        logged = {(r["agent_id"], r["step_key"]): r["user"] for k in (1, 2) for r in map(
            json.loads, (run_dir / "prompts" / f"assembled_{k}.jsonl").read_text().splitlines())}
        files = "".join(p.read_text() for p in run_dir.rglob("*") if p.is_file())
        for key in resent:
            sent = backend.prompts[key]
            assert len(sent) == 2 and logged[key] in sent, key
            stale = next(user for user in sent if user != logged[key])
            assert json.dumps(logged[key])[1:-1] in files, key
            assert json.dumps(stale)[1:-1] not in files, key
            assert prompt_tag(stale) not in files, key
            assert prompt_tag(logged[key]) in files, key

    def test_each_memory_query_text_is_embedded_once_per_stage(self, tmp_path, monkeypatch):
        """A memory query's text is a function of the agent, the date and
        the ticker. A 3-episode train embeds each distinct one once: later
        episodes, and requests that feedback made the engine build again,
        reuse its vector."""
        fix = build_single_stock_fixture(
            tmp_path, n_train=12, episodes=3, news_every=1,
            extra_config={"backtest": {"feedback_threshold_mult": 0.5}})
        embedded, asked, built = Counter(), Counter(), Counter()
        embed, query_text = HashEmbedder.embed, agents.memory_query_text
        request = backtest.analyst_request

        def counting_embed(self, text):
            embedded[text] += 1
            return embed(self, text)

        def counting_query_text(profile, day, ticker):
            text = query_text(profile, day, ticker)
            asked[text] += 1
            return text

        def counting_request(profile, belief_text, obs_slice, day, ctx):
            built[(profile.agent_id, ctx.episode, day)] += 1
            return request(profile, belief_text, obs_slice, day, ctx)

        monkeypatch.setattr(HashEmbedder, "embed", counting_embed)
        monkeypatch.setattr(agents, "memory_query_text", counting_query_text)
        monkeypatch.setattr(backtest, "analyst_request", counting_request)
        trajectories, _ = backtest.train(RunConfig.load(fix.config_path), make_gateway(fix),
                                         tmp_path / "run")
        assert len(trajectories) == 3
        assert {key[1] for key, n in built.items() if n > 1} >= {1, 2, 3}
        assert sum(asked.values()) > 3 * len(asked)
        assert {text: embedded[text] for text in asked} == dict.fromkeys(asked, 1)

    def test_decision_failing_while_the_next_days_calls_wait_fails_as_inline(self, tmp_path):
        """A decision that fails while the next day's analyst call waits on
        the model writes the inline run's FAILED file and partial prompt
        log, and leaves no pool thread behind."""
        fix = build_single_stock_fixture(tmp_path, n_train=12, episodes=1, news_every=2)
        config = RunConfig.load(fix.config_path)
        t = 5
        victim = f"1:{fix.train_days[t].isoformat()}:decide"
        broken = break_reply(fix.script_path, "manager", victim)
        before = set(threading.enumerate())
        with pytest.raises(EpisodeAborted):
            backtest.train(config, LlmGateway(load_mock_script(broken)), tmp_path / "inline")
        # the decision's first attempt and the next day's analyst call each
        # wait until the other has arrived
        pair = {("manager", victim),
                ("data_analyst:SYN", f"1:{fix.train_days[t + 1].isoformat()}:analyze")}

        class Rendezvous(CallThreads):
            def __init__(self, script_path):
                super().__init__(script_path)
                self.barrier = threading.Barrier(2, timeout=5)
                self.arrived = set()

            def generate(self, request):
                key = (request.role_tag, request.step_key)
                if key in pair and key not in self.arrived:
                    self.arrived.add(key)
                    self.barrier.wait()
                return super().generate(request)

        backend = Rendezvous(broken)
        with pytest.raises(EpisodeAborted) as aborted:
            backtest.train(config, LlmGateway(backend), tmp_path / "pooled")
        assert isinstance(aborted.value.__cause__, SchemaViolationAfterRetries)
        assert backend.arrived == pair
        assert set(threading.enumerate()) == before
        for name in ("trajectory_1.FAILED.jsonl", "prompts/assembled_1.jsonl"):
            assert (tmp_path / "pooled" / name).read_bytes() == \
                (tmp_path / "inline" / name).read_bytes(), name
        assert not (tmp_path / "pooled" / "trajectory_1.jsonl").exists()

    @pytest.mark.parametrize("workers", [1, None])
    def test_calls_in_flight_stay_within_the_pool_width_plus_one(self, tmp_path, workers):
        """The engine thread's decision waits on the model beside the pool's
        calls for the next day, so up to the pool's width plus one calls
        wait at once, and never more."""
        fix = build_single_stock_fixture(
            tmp_path, n_train=10, episodes=1, news_every=2,
            extra_config={"backtest": {"feedback_threshold_mult": 0.5}})

        class InFlight(CallThreads):
            """Calls that each wait 5 ms on the model, counting the peak
            number in flight."""

            def __init__(self, script_path):
                super().__init__(script_path)
                self.lock = threading.Lock()
                self.live = self.peak = 0

            def generate(self, request):
                with self.lock:
                    self.live += 1
                    self.peak = max(self.peak, self.live)
                try:
                    time.sleep(0.005)
                    return super().generate(request)
                finally:
                    with self.lock:
                        self.live -= 1

        config = RunConfig.load(fix.config_path)
        config.agents["workers"] = workers
        backend = InFlight(fix.script_path)
        backtest.train(config, LlmGateway(backend), tmp_path / "train")
        # by default a thread for each of the two analysts and the reflection
        width = workers or 3
        assert 2 <= backend.peak <= width + 1
        if workers == 1:
            assert backend.peak == width + 1

    def test_every_memory_store_call_runs_on_the_engine_thread(self, tmp_path, monkeypatch):
        """Pool threads only wait on the model: through a backend the engine
        fans out, with news days, deferred reflections, and decisions that
        cite memories on days feedback boosts them, every store call of a
        train and a test stage runs on the engine thread."""
        fix = build_single_stock_fixture(
            tmp_path, n_train=8, n_test=4, episodes=2, news_every=2,
            extra_config={"backtest": {"feedback_threshold_mult": 0.5}})
        # each decision cites the stage's previous decision
        lines = []
        for line in fix.script_path.read_text().splitlines():
            entry = json.loads(line)
            tag, day, phase = entry["step_key"].split(":")
            days = fix.test_days if tag == "test" else fix.train_days
            t = [d.isoformat() for d in days].index(day) if phase == "decide" else 0
            if t:
                reply = json.loads(entry["response"])
                reply["cited_memory_ids"] = [f"manager:{tag}:{days[t - 1].isoformat()}:decision"]
                entry["response"] = json.dumps(reply)
            lines.append(json.dumps(entry))
        fix.script_path.write_text("\n".join(lines) + "\n")

        calls: dict[str, set] = {}

        def recorded(name):
            method = getattr(MemoryStore, name)

            def call(*args, **kwargs):
                calls.setdefault(name, set()).add(threading.current_thread())
                return method(*args, **kwargs)
            return call

        names = ("add", "retrieve_top_k", "boost_access", "all_ids", "save_jsonl")
        for name in names:
            monkeypatch.setattr(MemoryStore, name, recorded(name))
        backend = CallThreads(fix.script_path)
        backtest.train(RunConfig.load(fix.config_path), LlmGateway(backend),
                       tmp_path / "train")
        payload = json.loads(fix.config_path.read_text())
        payload["mode"] = "test"
        payload["backtest"]["train_run_dir"] = str(tmp_path / "train")
        backtest.test(RunConfig.from_dict(payload, fix.root), LlmGateway(backend),
                      tmp_path / "test")

        caller = threading.current_thread()
        pooled = {key for key, thread in backend.threads.items() if thread is not caller}
        assert any(key[1].endswith(":analyze") for key in pooled)
        assert any(key[1].endswith(":reflect") for key in pooled)
        assert set(calls) == set(names)
        assert all(threads == {caller} for threads in calls.values()), calls

    def test_rerun_at_another_position_size_aborted_and_resumed_equals_a_clean_run(
            self, tmp_path):
        """A fresh train removes the earlier run's episodes, so resume after
        an abort cannot adopt episodes run at another position size."""
        fix = build_single_stock_fixture(tmp_path, n_train=8, episodes=3,
                                         analyst_roles=("data_analyst",))
        run_dir = tmp_path / "run"
        backtest.train(RunConfig.load(fix.config_path), make_gateway(fix), run_dir)
        assert (run_dir / "trajectory_3.jsonl").exists()

        half = dict(fix.payload, backtest={"max_episodes": 3, "position_size": 0.5})
        config = RunConfig.from_dict(half, fix.root)
        backtest.train(config, make_gateway(fix), tmp_path / "ref")
        victim = f"2:{fix.train_days[4].isoformat()}:decide"
        lines = fix.script_path.read_text().splitlines()
        broken = fix.root / "broken.jsonl"
        broken.write_text("".join(l + "\n" for l in lines if victim not in l))
        with pytest.raises(EpisodeAborted):
            backtest.train(config, LlmGateway(load_mock_script(broken)), run_dir)

        half["backtest"] = dict(half["backtest"], resume=True)
        backtest.train(RunConfig.from_dict(half, fix.root), make_gateway(fix), run_dir)
        assert_same_run_dir(run_dir, tmp_path / "ref")

    def test_clear_outputs_removes_every_run_file_and_no_other(self, tmp_path):
        fix = build_single_stock_fixture(tmp_path, n_train=6, n_test=4, episodes=2,
                                         analyst_roles=("data_analyst",))
        run_dir = tmp_path / "run"
        backtest.train(RunConfig.load(fix.config_path), make_gateway(fix), tmp_path / "train")
        payload = dict(fix.payload, mode="test",
                       backtest={"train_run_dir": str(tmp_path / "train")})
        backtest.test(RunConfig.from_dict(payload, fix.root), make_gateway(fix),
                      tmp_path / "test")
        # both stages clear their directory first, so the run directory that
        # holds every kind of run file is made by merging the two
        for stage in ("train", "test"):
            shutil.copytree(tmp_path / stage, run_dir, dirs_exist_ok=True)
        writer = backtest.RunWriter(run_dir)
        writer.write_failed(3, [], "EpisodeAborted: stopped")
        # what a write that a crash cut short leaves beside its file
        (run_dir / "prompts" / "assembled_3.jsonl.tmp").write_text("{\"agent")
        # the checkpoints runs wrote before resume replayed the prompt logs
        state = run_dir / "state"
        state.mkdir()
        for name in ("checkpoint_1.json", "checkpoint_2.json", "memory_1.jsonl",
                     "memory_12.jsonl", "checkpoint_3.json.tmp", "memory_3.jsonl.tmp"):
            (state / name).write_text("old\n")
        foreign = ["notes.txt", "trajectory_x.jsonl", "trajectory_03.jsonl",
                   "prompts/assembled_1.jsonl.bak", "beliefs/episode_2.json.orig"]
        for name in foreign:
            (run_dir / name).write_text("kept\n")
        writer.clear_outputs(keep=2)
        # episodes 1 and 2 are kept, but no checkpoint
        assert not state.exists()
        assert (run_dir / "trajectory_2.jsonl").exists()
        writer.clear_outputs()
        left = {p.relative_to(run_dir).as_posix() for p in run_dir.rglob("*") if p.is_file()}
        assert left == {"config.used.json", *foreign}
        # a foreign file keeps state/
        state.mkdir()
        (state / "memory_1.jsonl").write_text("old\n")
        (state / "notes.txt").write_text("kept\n")
        writer.clear_outputs()
        left = {p.relative_to(run_dir).as_posix() for p in run_dir.rglob("*") if p.is_file()}
        assert left == {"config.used.json", "state/notes.txt", *foreign}

    def test_fresh_train_removes_an_older_runs_state_directory(self, tmp_path):
        fix = build_single_stock_fixture(tmp_path, n_train=6, episodes=2,
                                         analyst_roles=("data_analyst",))
        run_dir = tmp_path / "run"
        (run_dir / "state").mkdir(parents=True)
        (run_dir / "state" / "memory_1.jsonl").write_text("old\n")
        backtest.train(RunConfig.load(fix.config_path), make_gateway(fix), run_dir)
        assert not (run_dir / "state").exists()

    def test_readme_run_directory_block_matches_the_layout(self):
        """The README's run-directory block names every file ``RunWriter``
        writes, as its patterns with ``<k>`` for the tag, and nothing else."""
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        section = readme.split("### Run directory", 1)[1].split("\n### ", 1)[0]
        block = section.split("```\n", 1)[1].split("```", 1)[0]
        documented = set()
        for line in block.splitlines():
            # the names open the line: one, or several joined by ", " or " / "
            names = re.match(r"[\w<>./]+(?:(?:, | / )[\w<>./]+)*", line)[0]
            documented |= {name.replace("<k>", "{}") for name in re.split(", | / ", names)}
        writer = backtest.RunWriter
        assert documented == {"config.used.json", *writer.EPISODE_FILES, *writer.FINAL_FILES}

    def test_recompute_report_missing_trajectory(self, tmp_path):
        fix = build_single_stock_fixture(tmp_path, n_train=6, episodes=1,
                                         analyst_roles=("data_analyst",))
        config = RunConfig.load(fix.config_path)
        (tmp_path / "empty_run").mkdir()
        with pytest.raises(MissingTrajectory):
            backtest.recompute_report(tmp_path / "empty_run", config)


class Crash(Exception):
    """A process killed at this point: nothing after it reaches the disk."""


class Flaky(ScriptedBackend):
    """The fixture's script as a scripted backend, so every call runs on the
    engine thread in a fixed order, raising ``error`` at its ``n``-th call;
    ``answered`` keeps the keys of the calls before it."""

    def __init__(self, script_path, n: int, error: BaseException):
        super().__init__(load_mock_script(script_path).entries)
        self.n = n
        self.error = error
        self.answered = set()

    def generate(self, request):
        if self.calls + 1 == self.n:
            self.calls += 1
            raise self.error
        reply = super().generate(request)
        self.answered.add((request.role_tag, request.step_key))
        return reply


class Strict(ScriptedBackend):
    """The fixture's script, failing the test on any request ``logged``
    answers: a resume must replay those."""

    def __init__(self, script_path, logged):
        super().__init__(load_mock_script(script_path).entries)
        self.logged = set(logged)

    def generate(self, request):
        key = (request.role_tag, request.step_key)
        assert key not in self.logged, f"{key} was logged, yet asked again"
        return super().generate(request)


def interrupted_session(monkeypatch, config, fix, run_dir, where, n, frac) -> set:
    """One training session into ``run_dir``, interrupted at its ``n``-th
    backend call by a backend that went away (``where`` "call") or by an
    exception that is not a FinconError, as Ctrl-C's is not (``where``
    "raise"), or killed inside its ``n``-th file write after ``frac`` of the
    bytes (``where`` "write"); it may end before the interruption comes.
    Returns the keys of the calls the backend answered."""
    state = {"writes": 0, "dead": False}

    def stop_or_count() -> bool:
        """Whether this write is the one the kill cuts short; Crash for any
        write after it."""
        if state["dead"]:
            raise Crash
        state["writes"] += 1
        state["dead"] = where == "write" and state["writes"] == n
        return state["dead"]

    write_text, save_jsonl = Path.write_text, MemoryStore.save_jsonl

    def cut_write_text(path, data, *args, **kwargs):
        if stop_or_count():
            write_text(path, data[:int(len(data) * frac)], *args, **kwargs)
            raise Crash
        return write_text(path, data, *args, **kwargs)

    def cut_save_jsonl(store, path):
        if stop_or_count():
            save_jsonl(store, path)
            data = Path(path).read_bytes()
            Path(path).write_bytes(data[:int(len(data) * frac)])
            raise Crash
        save_jsonl(store, path)

    error = KeyboardInterrupt() if where == "raise" else BackendUnavailable(f"call {n}")
    backend = Flaky(fix.script_path, 0 if where == "write" else n, error)
    with monkeypatch.context() as patch:
        patch.setattr(Path, "write_text", cut_write_text)
        patch.setattr(MemoryStore, "save_jsonl", cut_save_jsonl)
        try:
            backtest.train(config, LlmGateway(backend), run_dir)
        except (Crash, FinconError, KeyboardInterrupt):
            pass
    return backend.answered


@pytest.fixture(scope="module")
def three_episodes(tmp_path_factory):
    """A 3-episode news + data fixture and its uninterrupted training run."""
    root = tmp_path_factory.mktemp("three_episodes")
    fix = build_single_stock_fixture(root, n_train=8, episodes=3, news_every=3)
    backtest.train(RunConfig.load(fix.config_path), make_gateway(fix), root / "ref")
    return fix, root / "ref"


# (where, n, frac): the fixture's run makes 74 backend calls and 14 file writes
INTERRUPTION = st.tuples(st.sampled_from(("call", "raise")), st.integers(1, 80),
                         st.just(0.0)) | st.tuples(
    st.just("write"), st.integers(1, 16), st.floats(0.0, 1.0, exclude_max=True))


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(first=INTERRUPTION, second=st.none() | INTERRUPTION)
@example(first=("call", 30, 0.0), second=None)  # mid-episode 2
@example(first=("call", 72, 0.0), second=("call", 1, 0.0))  # a between-episode call
@example(first=("write", 5, 0.5), second=("write", 3, 0.3))  # inside a prompt log
@example(first=("raise", 30, 0.0), second=("raise", 5, 0.0))  # Ctrl-C mid-episode
def test_resume_after_any_interruption_writes_the_uninterrupted_run(
        three_episodes, monkeypatch, first, second):
    """Interrupted at any model call or inside any file write, then resumed,
    itself interrupted in some examples, training writes the uninterrupted
    run's files, and the last resume asks the backend for nothing the logs
    answer. A session interrupted at a call, by any exception, logs every
    reply the backend gave before it."""
    fix, ref = three_episodes
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        # every answer a session logged, which no later session may lose
        logged = set()
        for config, interruption in ((RunConfig.load(fix.config_path), first),
                                     (resume_config(fix), second)):
            if interruption is not None:
                answered = interrupted_session(monkeypatch, config, fix, run_dir,
                                               *interruption)
                logs = backtest.RunWriter(run_dir).read_prompt_logs().keys()
                if interruption[0] != "write":
                    assert answered <= logs
                logged |= logs
        backtest.train(resume_config(fix), LlmGateway(Strict(fix.script_path, logged)),
                       run_dir)
        assert_same_run_dir(run_dir, ref)


class TestResumeByReplay:
    def test_resume_at_another_position_size_equals_a_clean_run(self, tmp_path):
        """Resume re-runs every episode under its own config: only the logged
        answers carry over, so a resume at position size 0.5 of a run at 1.0
        writes a clean 0.5 run's files."""
        fix = build_single_stock_fixture(tmp_path, n_train=8, episodes=3,
                                         analyst_roles=("data_analyst",))
        run_dir = tmp_path / "run"
        backtest.train(RunConfig.load(fix.config_path), make_gateway(fix), run_dir)
        half = dict(fix.payload, backtest={"max_episodes": 3, "position_size": 0.5})
        clean, _ = backtest.train(RunConfig.from_dict(half, fix.root), make_gateway(fix),
                                  tmp_path / "ref")
        old = backtest.RunWriter(run_dir).read_prompt_logs()
        new = backtest.RunWriter(tmp_path / "ref").read_prompt_logs()
        changed = {key for key, (system, user, _) in new.items()
                   if old.get(key, (None, None))[:2] != (system, user)}
        assert changed and len(changed) < len(new)

        half["backtest"] = dict(half["backtest"], resume=True)
        backend = CountingBackend(fix.script_path)
        resumed, _ = backtest.train(RunConfig.from_dict(half, fix.root), LlmGateway(backend),
                                    run_dir)
        assert [t.objective for t in resumed] == [t.objective for t in clean]
        assert_same_run_dir(run_dir, tmp_path / "ref")
        # the backend is asked exactly the requests the new size changed
        assert set(backend.keys) == {step for _, step in changed}

    def test_resume_after_an_abort_asks_only_from_the_failed_call_on(self, tmp_path):
        fix = build_single_stock_fixture(tmp_path, n_train=12, episodes=3,
                                         analyst_roles=("data_analyst",))
        config = RunConfig.load(fix.config_path)
        backtest.train(config, make_gateway(fix), tmp_path / "ref")
        victim = f"2:{fix.train_days[6].isoformat()}:decide"
        lines = fix.script_path.read_text().splitlines()
        broken = fix.root / "broken.jsonl"
        broken.write_text("".join(l + "\n" for l in lines if victim not in l))
        run_dir = tmp_path / "run"
        with pytest.raises(EpisodeAborted):
            backtest.train(config, LlmGateway(load_mock_script(broken)), run_dir)
        def logged(run, k):
            return {json.loads(line)["step_key"] for line in
                    (run / "prompts" / f"assembled_{k}.jsonl").read_text().splitlines()}

        # the aborted episode's log holds every reply filed before the failure
        partial = logged(run_dir, 2)
        assert partial and partial < logged(tmp_path / "ref", 2) and victim not in partial

        backend = PromptLog(fix.script_path)
        backtest.train(resume_config(fix), LlmGateway(backend), run_dir)
        assert_same_run_dir(run_dir, tmp_path / "ref")
        assert set(backend.keys) == logged(run_dir, 2) - partial | logged(run_dir, 3)
        assert victim in backend.keys
        # each key is asked once, except an analyst's request that feedback
        # on the day before changed after it was sent: sent again, it is
        # asked twice, with two prompts
        days = [d.isoformat() for d in fix.train_days]
        resent = {f"{tag}:{days[days.index(day) + 1]}:analyze"
                  for tag, day in feedback_days(run_dir) if day != days[-1]}
        twice = {key for key, n in backend.keys.items() if n != 1}
        assert twice and twice == resent & set(backend.keys)
        for key in twice:
            assert backend.keys[key] == 2 and len(set(backend.prompts[key])) == 2, key

    def test_resume_of_a_completed_run_asks_nothing_and_never_waits(self, tmp_path,
                                                                     monkeypatch):
        fix = build_single_stock_fixture(tmp_path, n_train=8, episodes=3,
                                         analyst_roles=("data_analyst",))
        run_dir = tmp_path / "run"
        backtest.train(RunConfig.load(fix.config_path), make_gateway(fix), run_dir)
        shutil.copytree(run_dir, tmp_path / "ref")

        def no_sleep(seconds):
            raise AssertionError(f"slept {seconds} s")

        monkeypatch.setattr(time, "sleep", no_sleep)
        backend = CountingBackend(fix.script_path)
        backtest.train(resume_config(fix), LlmGateway(backend, min_interval=3600.0), run_dir)
        assert not backend.keys
        assert_same_run_dir(run_dir, tmp_path / "ref")

    def test_replayed_answer_failing_validation_takes_the_corrective_retry(self, tmp_path):
        fix = build_single_stock_fixture(tmp_path, n_train=8, episodes=2,
                                         analyst_roles=("data_analyst",))
        run_dir = tmp_path / "run"
        backtest.train(RunConfig.load(fix.config_path), make_gateway(fix), run_dir)
        shutil.copytree(run_dir, tmp_path / "ref")
        # the logged decision cites a memory id the re-run's store lacks
        key = f"1:{fix.train_days[3].isoformat()}:decide"
        path = run_dir / "prompts" / "assembled_1.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records:
            if record["step_key"] == key:
                reply = json.loads(record["response"])
                reply["cited_memory_ids"] = ["data_analyst:SYN:9:2022-01-03:insight"]
                record["response"] = json.dumps(reply)
        path.write_text("".join(json.dumps(r) + "\n" for r in records))

        class Recording(CountingBackend):
            def __init__(self, script_path):
                super().__init__(script_path)
                self.requests = []

            def generate(self, request):
                self.requests.append(request)
                return super().generate(request)

        backend = Recording(fix.script_path)
        backtest.train(resume_config(fix), LlmGateway(backend), run_dir)
        assert backend.keys == {key: 1}
        assert "cited_memory_ids not found in memory" in backend.requests[0].user_prompt
        assert_same_run_dir(run_dir, tmp_path / "ref")

    def test_each_training_log_is_written_once_and_atomically(self, tmp_path, monkeypatch):
        fix = build_single_stock_fixture(tmp_path, n_train=8, episodes=3,
                                         analyst_roles=("data_analyst",))
        atomic = []
        write_atomic = backtest._write_atomic

        def record(path, text):
            atomic.append(path.relative_to(tmp_path / "run").as_posix())
            write_atomic(path, text)

        monkeypatch.setattr(backtest, "_write_atomic", record)
        backtest.train(RunConfig.load(fix.config_path), make_gateway(fix), tmp_path / "run")
        logs = [name for name in atomic if name.startswith("prompts/")]
        assert logs == [f"prompts/assembled_{k}.jsonl" for k in (1, 2, 3)]

    def test_failed_belief_update_keeps_its_episodes_lines(self, tmp_path):
        fix = build_single_stock_fixture(tmp_path, n_train=8, episodes=2,
                                         analyst_roles=("data_analyst",))
        config = RunConfig.load(fix.config_path)
        backtest.train(config, make_gateway(fix), tmp_path / "ref")
        key = f"2:{fix.train_days[-1].isoformat()}:belief_update"
        broken = break_reply(fix.script_path, "risk_control", key)
        run_dir = tmp_path / "run"
        with pytest.raises(SchemaViolationAfterRetries):
            backtest.train(config, LlmGateway(load_mock_script(broken)), run_dir)
        logged = [json.loads(line)["step_key"] for line in
                  (run_dir / "prompts" / "assembled_2.jsonl").read_text().splitlines()]
        want = [json.loads(line)["step_key"] for line in
                (tmp_path / "ref" / "prompts" / "assembled_2.jsonl").read_text().splitlines()]
        assert logged == want[:-1] and want[-1] == key

        backend = CountingBackend(fix.script_path)
        backtest.train(resume_config(fix), LlmGateway(backend), run_dir)
        assert backend.keys == {key: 1}
        assert_same_run_dir(run_dir, tmp_path / "ref")

    def test_belief_update_calls_count_the_between_episode_calls(self, tmp_path):
        fix = build_single_stock_fixture(tmp_path, n_train=12, episodes=4, news_every=4)
        run_dir = tmp_path / "run"
        backtest.train(RunConfig.load(fix.config_path), make_gateway(fix), run_dir)
        scripted = between_episode_keys(
            Counter(key for _, key in load_mock_script(fix.script_path).entries))
        logged = between_episode_keys(Counter(
            json.loads(line)["step_key"] for k in (1, 2, 3, 4)
            for line in (run_dir / "prompts" / f"assembled_{k}.jsonl").read_text().splitlines()))
        assert logged == scripted and len(scripted) == 4 + 3
        summary = json.loads((run_dir / "train_summary.json").read_text())
        assert summary["belief_updates"] == 3
        assert summary["belief_update_calls"] == 7


@settings(max_examples=15, deadline=None)
@given(growth=st.lists(st.floats(-0.05, 0.05), min_size=1, max_size=12),
       directions=st.lists(st.sampled_from(["long", "short", "neutral"]),
                           min_size=1, max_size=12),
       n_train=st.integers(2, 14), min_history=st.integers(0, 6))
def test_engine_days_equal_the_oracle_trace(growth, directions, n_train, min_history):
    """Each trained day's PnL, CVaR, alert and trigger equal the hand
    simulation's on drawn price paths and direction scripts."""
    with tempfile.TemporaryDirectory() as tmp:
        fix = build_single_stock_fixture(
            Path(tmp), n_train=n_train, episodes=1, analyst_roles=("data_analyst",),
            growth=lambda i: growth[i % len(growth)],
            directions_fn=lambda episode, t: directions[t % len(directions)],
            min_history=min_history)
        trajectories, _ = backtest.train(RunConfig.load(fix.config_path), make_gateway(fix),
                                         Path(tmp) / "run")
    got = [(d.pnl, d.cvar, d.alert, d.trigger) for d in trajectories[0].days]
    assert got == [(t.pnl, t.rho, t.alert, t.trigger) for t in fix.traces[1]]


# --- run directory ownership ----------------------------------------------------

PACKAGE_DIR = Path(backtest.__file__).parent
# the only code in the package that may change a file: every RunWriter method,
# the atomic write, and the memory snapshot writer
FILE_WRITERS = ("backtest.RunWriter", "backtest._write_atomic", "memory.MemoryStore.save_jsonl")
FILE_CHANGING_METHODS = {"write_text", "write_bytes", "unlink", "mkdir", "rmdir"}


def _writes_a_file(call: ast.Call) -> bool:
    """A call that changes a file: a path method above, ``os.replace``, or an
    ``open``/``.open`` whose mode writes (or is not a literal)."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in FILE_CHANGING_METHODS:
        return True
    if name == "replace":
        return isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os"
    if name != "open":
        return False
    # builtin open(file, mode), Path.open(mode)
    position = 1 if isinstance(func, ast.Name) else 0
    modes = [k.value for k in call.keywords if k.arg == "mode"]
    modes += call.args[position:position + 1]
    if not modes:
        return False
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def file_changing_calls(module: str) -> list[tuple[str, int]]:
    """(dotted scope, line) of every file-changing call in ``fincon.<module>``."""
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}"
            if isinstance(child, ast.Call) and _writes_a_file(child):
                found.append((scope, child.lineno))
            visit(child, inner)

    visit(tree, module)
    return found


def test_only_the_run_writer_changes_files():
    """RunWriter is the one owner of the run directory: no other package code
    writes, replaces, removes or creates a file or directory."""
    calls = [c for p in sorted(PACKAGE_DIR.glob("*.py")) for c in file_changing_calls(p.stem)]
    outside = [(scope, line) for scope, line in calls
               if not any(scope == w or scope.startswith(w + ".") for w in FILE_WRITERS)]
    assert outside == []
    # the walk sees each allowed writer, so the guard does not pass vacuously
    for writer in FILE_WRITERS:
        assert any(scope.startswith(writer) for scope, _ in calls), writer


@pytest.mark.parametrize("source, writes", [
    ("path.write_text('x')", True),
    ("os.replace(a, b)", True),
    ("text.replace('a', 'b')", False),
    ("replace(state, alert=True)", False),
    ("path.unlink(missing_ok=True)", True),
    ("path.parent.mkdir(parents=True)", True),
    ("state.rmdir()", True),
    ("open(path, 'w')", True),
    ("open(path, mode='a', encoding='utf-8')", True),
    ("open(path, mode)", True),
    ("open(path)", False),
    ("open(path, 'rb')", False),
    ("path.open('r+')", True),
    ("path.open(encoding='utf-8')", False),
])
def test_file_changing_call_detection(source, writes):
    assert _writes_a_file(ast.parse(source, mode="eval").body) is writes
