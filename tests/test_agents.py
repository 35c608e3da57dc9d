import json
from dataclasses import asdict
from datetime import date

import pytest

from fincon.agents import (
    MANAGER,
    NO_SIGNAL,
    RISK_AVERSE_CLAUSE,
    RISK_CONTROL,
    AgentProfile,
    AnalystSlice,
    InsightMessage,
    PromptSet,
    Router,
    StepContext,
    TradingDecision,
    analyst_id,
    analyst_step,
    build_profiles,
    manager_step,
    reflect_step,
    send_feedback,
    single_stock_weights,
)
from fincon.backtest import DEFAULT_DECAY_RATIOS, RunWriter
from fincon.data_ingest import PriceBar, PriceSeries, TextDocument, momentum
from fincon.errors import IllegalRoute, MissingAnalystReport
from fincon.llm_gateway import LlmGateway, ScriptedBackend
from fincon.memory import HashEmbedder, MemoryEvent, MemoryStore
from fincon.risk_control import RiskState

from fixtures import trading_days

D0 = date(2022, 3, 7)


def make_ctx(entries=None, episode=1):
    backend = ScriptedBackend(entries or {})
    store = MemoryStore()
    return StepContext(store=store, gateway=LlmGateway(backend),
                       embedder=HashEmbedder(16), episode=episode), backend


def news_profile(ticker="SYN"):
    return AgentProfile(agent_id=f"news_analyst:{ticker}", role="news_analyst",
                        profile_text="news role", general_config="task intro")


def doc(doc_id, body, kind="news", ticker="SYN", published=D0):
    return TextDocument(doc_id=doc_id, ticker=ticker, kind=kind,
                        published=published, body=body)


class TestTopology:
    def test_analyst_to_manager_delivered(self):
        router = Router(["news_analyst:SYN"])
        router.send("news_analyst:SYN", MANAGER, "insight")
        assert router.count("insight") == 1

    def test_analyst_to_analyst_rejected(self):
        router = Router(["news_analyst:SYN", "data_analyst:SYN"])
        with pytest.raises(IllegalRoute):
            router.send("news_analyst:SYN", "data_analyst:SYN", "gossip")
        assert router.count() == 0

    def test_risk_control_edges(self):
        router = Router(["news_analyst:SYN"])
        router.send(RISK_CONTROL, MANAGER, "belief_update")
        router.send(MANAGER, RISK_CONTROL, "decision")
        with pytest.raises(IllegalRoute):
            router.send("news_analyst:SYN", RISK_CONTROL, "insight")
        assert router.count() == 2

    def test_belief_propagation_path(self):
        router = Router(["news_analyst:SYN", "data_analyst:SYN"])
        router.send(RISK_CONTROL, MANAGER, "belief_update")
        router.send(MANAGER, "news_analyst:SYN", "belief_update")
        assert router.count("belief_update") == 2

    def test_router_counts_by_kind(self):
        router = Router(["a:SYN"])
        router.send("a:SYN", MANAGER, "insight")
        router.send(MANAGER, "a:SYN", "feedback")
        assert router.count() == 2
        assert router.count("insight") == 1
        assert router.counts_by_kind() == {"insight": 1, "feedback": 1}


class TestProfiles:
    def test_exactly_one_manager_and_per_ticker_instances(self):
        profiles = build_profiles(["AAA", "BBB"], ["news_analyst", "data_analyst"],
                                  "general")
        managers = [p for p in profiles.values() if p.role == MANAGER]
        assert len(managers) == 1
        assert set(profiles) == {MANAGER, "news_analyst:AAA", "news_analyst:BBB",
                                 "data_analyst:AAA", "data_analyst:BBB"}

    def test_custom_profile_text(self):
        profiles = build_profiles(["AAA"], ["news_analyst"], "general",
                                  {"news_analyst": "custom {tickers} text"})
        assert profiles["news_analyst:AAA"].profile_text == "custom AAA text"


class TestPromptSet:
    def test_belief_vocabulary_enforced(self):
        with pytest.raises(ValueError):
            PromptSet(analyst_prompts={}, manager_prompt="m",
                      belief_block={"astrology": "x"})

    def test_round_trip(self, tmp_path):
        ps = PromptSet(analyst_prompts={"a:SYN": "t"}, manager_prompt="m",
                       belief_block={"ECC": "listen closely"})
        RunWriter(tmp_path).write_prompt_set(ps)
        payload = json.loads((tmp_path / "prompts" / "final" / "prompt_set.json").read_text())
        assert payload == asdict(ps)
        assert PromptSet(**payload) == ps

    def test_with_belief_block_replaces_only_beliefs(self):
        ps = PromptSet(analyst_prompts={"a:SYN": "t"}, manager_prompt="m",
                       belief_block={})
        updated = ps.with_belief_block({"ECC": "x"})
        assert updated.analyst_prompts == ps.analyst_prompts
        assert updated.belief_block == {"ECC": "x"}


class TestAnalystStep:
    def test_day_with_no_news_yields_no_signal_without_gateway(self):
        ctx, backend = make_ctx()
        message, entry = analyst_step(news_profile(), "prompt", None,
                                      AnalystSlice(ticker="SYN"), D0, ctx, 0.9)
        assert message.distilled_insight == NO_SIGNAL
        assert message.sentiment == "neutral"
        assert backend.calls == 0
        assert entry is None
        assert len(ctx.store) == 0

    def test_scripted_distillation_stores_insight_and_cites_memories(self):
        key = f"1:{D0.isoformat()}:analyze"
        ctx, backend = make_ctx({("news_analyst:SYN", key): json.dumps(
            {"insight": "scripted insight", "sentiment": "positive",
             "importance": 0.8})})
        # seed two prior procedural memories for this analyst
        for i in range(2):
            content = f"old insight {i}"
            ctx.store.add(MemoryEvent(
                event_id=f"news_analyst:SYN:0:{i}", owner="news_analyst:SYN",
                layer="procedural", content=content,
                embedding=ctx.embedder.embed(content), initial_importance=0.5,
                decay_ratio=0.9, created_at=date(2022, 3, 1)))
        slice_ = AnalystSlice(ticker="SYN", documents=(doc("n1", "a"), doc("n2", "b")))
        message, entry = analyst_step(news_profile(), "prompt", "belief text",
                                      slice_, D0, ctx, 0.9)
        assert message.distilled_insight == "scripted insight"
        assert set(message.cited_memory_ids) == {"news_analyst:SYN:0:0",
                                                 "news_analyst:SYN:0:1"}
        stored = ctx.store.get(f"news_analyst:SYN:1:{D0.isoformat()}:insight")
        assert stored.initial_importance == 0.8
        assert stored.decay_ratio == 0.9
        assert "belief text" in entry["system"]
        assert "n1" in entry["user"] and "n2" in entry["user"]

    def test_data_analyst_carries_momentum_indicator(self):
        days = trading_days(date(2022, 1, 3), 4)
        closes = [100.0, 104.0, 107.0, 110.0]
        bars = tuple(PriceBar(date=d, open=c, high=c * 1.01, low=c * 0.99, close=c,
                              adj_close=c, volume=10) for d, c in zip(days, closes))
        series = PriceSeries(ticker="SYN", bars=bars)
        mom = momentum(series, days[-1], 3)  # data_ingest oracle: 0.10
        key = f"1:{days[-1].isoformat()}:analyze"
        ctx, _ = make_ctx({("data_analyst:SYN", key): json.dumps(
            {"insight": "uptrend", "sentiment": "positive"})})
        profile = AgentProfile(agent_id="data_analyst:SYN", role="data_analyst",
                               profile_text="data role", general_config="task")
        message, entry = analyst_step(profile, "prompt", None,
                                      AnalystSlice(ticker="SYN",
                                                   indicators={"momentum": mom},
                                                   price_line="close=110.0"),
                                      days[-1], ctx, 0.9)
        assert abs(message.indicators["momentum"] - 0.10) < 1e-12
        assert "momentum" in entry["user"]


def decide_entries(day, actions, cited=(), episode=1):
    return {(MANAGER, f"{episode}:{day.isoformat()}:decide"): json.dumps(
        {"actions": actions, "reasoning": "scripted reasoning",
         "cited_memory_ids": list(cited),
         "contributions": {"data_analyst:SYN": "useful"}})}


def insight(aid, ticker, text="view"):
    return InsightMessage(from_agent=aid, date=D0, ticker=ticker,
                          distilled_insight=text, sentiment="neutral",
                          indicators={}, cited_memory_ids=())


def manager_profile():
    return AgentProfile(agent_id=MANAGER, role=MANAGER, profile_text="manager role",
                        general_config="task intro")


def calm_state():
    return RiskState(date=D0, cvar=None, prev_cvar=None, alert=False, history_len=0)


def alerting_state():
    return RiskState(date=D0, cvar=-2.0, prev_cvar=-1.0, alert=True, history_len=12)


class TestManagerStep:
    def test_scripted_long_maps_to_unit_position(self):
        ctx, _ = make_ctx(decide_entries(D0, {"SYN": "long"}))
        prompts = PromptSet(analyst_prompts={"data_analyst:SYN": "p"},
                            manager_prompt="m", belief_block={})
        decision, entry = manager_step(
            manager_profile(), prompts, {"data_analyst:SYN": insight("data_analyst:SYN", "SYN")},
            calm_state(), D0, ctx, ["SYN"], ["data_analyst:SYN"], 0.95)
        assert decision.directions == {"SYN": "long"}
        assert single_stock_weights(decision) == {"SYN": 1.0}
        assert RISK_AVERSE_CLAUSE not in entry["user"]

    def test_risk_alert_adds_risk_averse_clause(self):
        ctx, _ = make_ctx(decide_entries(D0, {"SYN": "neutral"}))
        prompts = PromptSet(analyst_prompts={"data_analyst:SYN": "p"},
                            manager_prompt="m", belief_block={})
        decision, entry = manager_step(
            manager_profile(), prompts, {"data_analyst:SYN": insight("data_analyst:SYN", "SYN")},
            alerting_state(), D0, ctx, ["SYN"], ["data_analyst:SYN"], 0.95)
        assert decision.directions == {"SYN": "neutral"}
        assert RISK_AVERSE_CLAUSE in entry["user"]

    def test_three_ticker_directions_map_to_weight_boxes(self):
        tickers = ["AAA", "BBB", "CCC"]
        actions = {"AAA": "long", "BBB": "short", "CCC": "neutral"}
        ctx, _ = make_ctx(decide_entries(D0, actions))
        insights = {f"data_analyst:{t}": insight(f"data_analyst:{t}", t)
                    for t in tickers}
        prompts = PromptSet(analyst_prompts={k: "p" for k in insights},
                            manager_prompt="m", belief_block={})
        decision, _ = manager_step(manager_profile(), prompts, insights, calm_state(),
                                   D0, ctx, tickers, sorted(insights), 0.95)
        from fincon.portfolio import direction_bounds
        lo, hi = direction_bounds([decision.directions[t] for t in tickers])
        assert list(lo) == [0.0, -1.0, 0.0]
        assert list(hi) == [1.0, 0.0, 0.0]

    def test_missing_analyst_report(self):
        ctx, _ = make_ctx(decide_entries(D0, {"SYN": "long"}))
        prompts = PromptSet(analyst_prompts={}, manager_prompt="m", belief_block={})
        with pytest.raises(MissingAnalystReport):
            manager_step(manager_profile(), prompts, {}, calm_state(), D0, ctx,
                         ["SYN"], ["data_analyst:SYN"], 0.95)

    def test_decision_stored_in_manager_memory(self):
        ctx, _ = make_ctx(decide_entries(D0, {"SYN": "long"}))
        prompts = PromptSet(analyst_prompts={"data_analyst:SYN": "p"},
                            manager_prompt="m", belief_block={})
        manager_step(manager_profile(), prompts,
                     {"data_analyst:SYN": insight("data_analyst:SYN", "SYN")},
                     calm_state(), D0, ctx, ["SYN"], ["data_analyst:SYN"], 0.95)
        stored = ctx.store.get(f"manager:1:{D0.isoformat()}:decision")
        assert "scripted reasoning" in stored.content

    def test_beliefs_rendered_into_system_prompt(self):
        ctx, _ = make_ctx(decide_entries(D0, {"SYN": "long"}))
        prompts = PromptSet(analyst_prompts={"data_analyst:SYN": "p"},
                            manager_prompt="m",
                            belief_block={"news insights": "trust headlines"})
        _, entry = manager_step(manager_profile(), prompts,
                                {"data_analyst:SYN": insight("data_analyst:SYN", "SYN")},
                                calm_state(), D0, ctx, ["SYN"], ["data_analyst:SYN"], 0.95)
        assert "trust headlines" in entry["system"]


class TestReflectStep:
    def test_reflection_stored_with_trigger(self):
        key = f"1:{D0.isoformat()}:reflect"
        ctx, _ = make_ctx({(MANAGER, key): json.dumps({"reflection": "be careful"})})
        reflection, entry = reflect_step(manager_profile(), "negative_pnl",
                                         "PnL -0.01", D0, ctx, 0.95)
        assert reflection.trigger == "negative_pnl"
        assert reflection.text == "be careful"
        assert ctx.store.get(f"manager:1:{D0.isoformat()}:reflection-negative_pnl")
        assert "negative_pnl" in entry["user"]


class TestSendFeedback:
    def _setup(self):
        ctx, _ = make_ctx()
        router = Router(["news_analyst:SYN", "data_analyst:SYN"])
        for i, aid in enumerate(["news_analyst:SYN", "data_analyst:SYN"]):
            content = f"cited {i}"
            ctx.store.add(MemoryEvent(
                event_id=f"cite{i}", owner=aid, layer="procedural", content=content,
                embedding=ctx.embedder.embed(content), initial_importance=0.5,
                decay_ratio=0.9, created_at=date(2022, 3, 1)))
        decision = TradingDecision(date=D0, directions={"SYN": "long"},
                                   weights={"SYN": 1.0}, reasoning="r",
                                   contribution_notes={},
                                   cited_memory_ids=("cite0", "cite1"))
        insights = {aid: insight(aid, "SYN")
                    for aid in ("news_analyst:SYN", "data_analyst:SYN")}
        roles = {"news_analyst:SYN": "news_analyst", "data_analyst:SYN": "data_analyst"}
        return ctx, router, decision, insights, roles

    def test_below_threshold_no_boosts_no_messages(self):
        ctx, router, decision, insights, roles = self._setup()
        send_feedback(decision, 0.001, 0.01, sorted(insights), insights, D0,
                      ctx, router, {"news": 0.9, "data": 0.9}, roles)
        assert ctx.store.get("cite0").access_bonus == 0.0
        assert router.count() == 0

    def test_significant_day_boosts_both_cited_ids(self):
        ctx, router, decision, insights, roles = self._setup()
        send_feedback(decision, 0.05, 0.01, sorted(insights), insights, D0,
                      ctx, router, {"news": 0.9, "data": 0.9}, roles)
        assert router.count("feedback") == 2
        assert ctx.store.get("cite0").access_bonus == 5.0
        assert ctx.store.get("cite1").access_bonus == 5.0
        assert ctx.store.has(f"news_analyst:SYN:1:{D0.isoformat()}:feedback")

    def test_repeated_significant_days_accumulate(self):
        ctx, router, decision, insights, roles = self._setup()
        send_feedback(decision, 0.05, 0.01, sorted(insights), insights, D0, ctx,
                      router, {"news": 0.9, "data": 0.9}, roles)
        d1 = date(2022, 3, 8)
        decision2 = TradingDecision(date=d1, directions={"SYN": "long"},
                                    weights={"SYN": 1.0}, reasoning="r",
                                    contribution_notes={},
                                    cited_memory_ids=("cite0", "cite1"))
        send_feedback(decision2, -0.06, 0.01, sorted(insights), insights, d1, ctx,
                      router, {"news": 0.9, "data": 0.9}, roles)
        assert ctx.store.get("cite0").access_bonus == 10.0
        assert router.count("feedback") == 4

    @pytest.mark.parametrize("role, ratio", [("filing10k_analyst", 0.99),
                                             ("filing10q_analyst", 0.97),
                                             ("ecc_analyst", 0.97)])
    def test_feedback_memory_decays_at_the_role_kind_ratio(self, role, ratio):
        ctx, _ = make_ctx()
        aid = analyst_id(role, "SYN")
        decision = TradingDecision(date=D0, directions={"SYN": "long"},
                                   weights={"SYN": 1.0}, reasoning="r",
                                   contribution_notes={}, cited_memory_ids=())
        send_feedback(decision, 0.05, 0.01, [aid], {aid: insight(aid, "SYN")}, D0, ctx,
                      Router([aid]), DEFAULT_DECAY_RATIOS, {aid: role})
        event = ctx.store.get(f"{aid}:1:{D0.isoformat()}:feedback")
        assert event.decay_ratio == ratio

    def test_none_threshold_means_no_feedback(self):
        ctx, router, decision, insights, roles = self._setup()
        send_feedback(decision, 0.5, None, sorted(insights), insights, D0,
                      ctx, router, {"news": 0.9, "data": 0.9}, roles)
        assert router.count("feedback") == 0


class TestDecisionWeights:
    def test_sign_consistency_validation(self):
        decision = TradingDecision(date=D0, directions={"SYN": "short"},
                                   weights={"SYN": 0.5}, reasoning="r",
                                   contribution_notes={}, cited_memory_ids=())
        with pytest.raises(ValueError):
            decision.check_weight_signs()

    def test_single_stock_mapping(self):
        decision = TradingDecision(date=D0,
                                   directions={"A": "long", "B": "short", "C": "neutral"},
                                   weights={}, reasoning="r", contribution_notes={},
                                   cited_memory_ids=())
        got = single_stock_weights(decision, position_size=2.0)
        assert got == {"A": 2.0, "B": -2.0, "C": 0.0}

    def test_analyst_id_format(self):
        assert analyst_id("news_analyst", "TSLA") == "news_analyst:TSLA"
