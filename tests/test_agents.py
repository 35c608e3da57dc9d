import ast
import json
import os
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

import fincon
from fincon.agents import (
    ASPECTS,
    MANAGER,
    NO_SIGNAL,
    RISK_AVERSE_CLAUSE,
    RISK_CONTROL,
    ROLES,
    AgentProfile,
    AnalystSlice,
    InsightMessage,
    Router,
    StepContext,
    TradingDecision,
    analyst_id,
    analyst_request,
    analyst_step,
    build_profiles,
    manager_step,
    reflect_request,
    reflect_step,
    send_feedback,
)
from fincon.backtest import CONFIG_SCHEMA
from fincon.data_ingest import DOCUMENT_KINDS, PriceSeries, TextDocument, momentum
from fincon.errors import IllegalRoute, MissingAnalystReport, SchemaViolationAfterRetries
from fincon.llm_gateway import LlmGateway, ScriptedBackend
from fincon.memory import HashEmbedder, MemoryEvent, MemoryStore
from fincon.portfolio import check_weight_signs, single_stock_weights
from fincon.risk_control import RiskState

from fixtures import trading_days

D0 = date(2022, 3, 7)
DECAY_RATIOS = CONFIG_SCHEMA["memory.decay_ratios"][0]


def make_ctx(entries=None, episode=1):
    backend = ScriptedBackend(entries or {})
    store = MemoryStore()
    ctx = StepContext(store=store, gateway=LlmGateway(backend), embedder=HashEmbedder(16),
                      episode=episode, top_k=CONFIG_SCHEMA["memory.top_k"][0],
                      temperature=CONFIG_SCHEMA["llm.temperature_decision"][0],
                      max_retries=CONFIG_SCHEMA["llm.max_retries"][0],
                      default_importance=CONFIG_SCHEMA["memory.default_importance"][0])
    return ctx, backend


def news_profile(ticker="SYN"):
    return AgentProfile(agent_id=f"news_analyst:{ticker}", role="news_analyst", ticker=ticker,
                        profile_text="news role", general_config="task intro",
                        decay_ratio=0.9)


def doc(doc_id, body, kind="news", ticker="SYN", published=D0):
    return TextDocument(doc_id=doc_id, ticker=ticker, kind=kind,
                        published=published, body=body)


def run_analyst(profile, belief_text, obs_slice, day, ctx):
    """Both halves of an analyst's step, as the engine runs them."""
    reply = ctx.gateway.complete(analyst_request(profile, belief_text, obs_slice, day, ctx))
    return analyst_step(profile, obs_slice, day, ctx, reply)


def run_reflect(profile, trigger, day_summary, day, ctx):
    """Both halves of the manager's reflection, as the engine runs them."""
    reply = ctx.gateway.complete(reflect_request(profile, trigger, day_summary, day, ctx))
    return reflect_step(profile, trigger, day, ctx, reply)


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
        assert router.count("feedback") == 1
        assert router.count("belief_update") == 0


class TestRoleTable:
    def test_each_source_is_the_price_stream_or_a_document_kind(self):
        for role, spec in ROLES.items():
            assert spec.source == "data" or spec.source in DOCUMENT_KINDS, role

    def test_each_aspect_is_in_the_vocabulary_and_belongs_to_one_role(self):
        aspects = [spec.aspect for spec in ROLES.values()]
        assert set(aspects) <= set(ASPECTS)
        assert len(set(aspects)) == len(aspects)

    def test_each_source_has_a_default_decay_ratio(self):
        defaults = CONFIG_SCHEMA["memory.decay_ratios"][0]
        assert {spec.source for spec in ROLES.values()} | {MANAGER} == set(defaults)

    def test_readme_roles_table_matches_the_table(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        section = readme.split("### Roles", 1)[1].split("\n### ", 1)[0]
        rows = [[cell.strip().strip("`") for cell in line.split("|")[1:4]]
                for line in section.splitlines() if line.startswith("| `")]
        assert rows == [[role, spec.source, spec.aspect] for role, spec in ROLES.items()]


PACKAGE_DIR = Path(fincon.__file__).parent


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE_DIR.glob("*.py")))
def test_module_imports_on_its_own(module):
    """agents and risk_control share the role table, so each module must
    import first in a fresh interpreter without an import cycle."""
    name = "fincon" if module == "__init__" else f"fincon.{module}"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    result = subprocess.run([sys.executable, "-c", f"import {name}"], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def quoted_annotation_names(tree) -> set[str]:
    """Names read inside quoted annotations, such as ``"Trajectory"``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= {name.id for name in ast.walk(ast.parse(node.value, mode="eval"))
                          if isinstance(name, ast.Name)}
    return names


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE_DIR.glob("*.py")))
def test_module_reads_every_name_it_imports(module):
    """The project runs no linter, so this stands in for an unused-import
    check. Only a read counts: a name assigned, or declared as a field, is
    not one."""
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    # perfbench/spans.py traces the engine's ``cvar`` by its name in backtest
    exempt = {"cvar"} if module == "backtest" else set()
    assert imported - read - quoted_annotation_names(tree) - exempt == set()


class TestProfiles:
    def test_exactly_one_manager_and_per_ticker_instances(self):
        profiles = build_profiles(["AAA", "BBB"], ["news_analyst", "data_analyst"],
                                  "general", DECAY_RATIOS)
        assert profiles[MANAGER].agent_id == MANAGER
        assert set(profiles) == {MANAGER, "news_analyst:AAA", "news_analyst:BBB",
                                 "data_analyst:AAA", "data_analyst:BBB"}

    def test_custom_profile_text(self):
        profiles = build_profiles(["AAA"], ["news_analyst"], "general", DECAY_RATIOS,
                                  {"news_analyst": "custom {tickers} text"})
        assert profiles["news_analyst:AAA"].profile_text == "custom AAA text"


class TestAnalystStep:
    def test_day_with_no_news_yields_no_signal_without_gateway(self):
        ctx, backend = make_ctx()
        message, entry = analyst_step(news_profile(), AnalystSlice(ticker="SYN"), D0, ctx)
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
        # seed two prior memories for this analyst
        for i in range(2):
            content = f"old insight {i}"
            ctx.store.add(MemoryEvent(
                event_id=f"news_analyst:SYN:0:{i}", owner="news_analyst:SYN",
                content=content,
                embedding=ctx.embedder.embed(content), initial_importance=0.5,
                decay_ratio=0.9, created_at=date(2022, 3, 1)))
        slice_ = AnalystSlice(ticker="SYN", documents=(doc("n1", "a"), doc("n2", "b")))
        message, entry = run_analyst(news_profile(), "belief text", slice_, D0, ctx)
        assert message.distilled_insight == "scripted insight"
        assert "[news_analyst:SYN:0:0]" in entry["user"]
        assert "[news_analyst:SYN:0:1]" in entry["user"]
        stored = ctx.store.get(f"news_analyst:SYN:1:{D0.isoformat()}:insight")
        assert stored.initial_importance == 0.8
        assert stored.decay_ratio == 0.9
        assert "belief text" in entry["system"]
        assert "n1" in entry["user"] and "n2" in entry["user"]

    def test_data_analyst_carries_momentum_indicator(self):
        days = trading_days(date(2022, 1, 3), 4)
        closes = (100.0, 104.0, 107.0, 110.0)
        series = PriceSeries(ticker="SYN", dates=tuple(days), open=closes,
                             high=tuple(c * 1.01 for c in closes),
                             low=tuple(c * 0.99 for c in closes), close=closes,
                             adj_close=closes, volume=(10,) * 4)
        mom = momentum(series, days[-1], 3)  # data_ingest oracle: 0.10
        key = f"1:{days[-1].isoformat()}:analyze"
        ctx, _ = make_ctx({("data_analyst:SYN", key): json.dumps(
            {"insight": "uptrend", "sentiment": "positive"})})
        profile = AgentProfile(agent_id="data_analyst:SYN", role="data_analyst", ticker="SYN",
                               profile_text="data role", general_config="task",
                               decay_ratio=0.9)
        message, entry = run_analyst(profile, None,
                                     AnalystSlice(ticker="SYN",
                                                  indicators={"momentum": mom},
                                                  price_line="close=110.0"),
                                     days[-1], ctx)
        assert abs(message.indicators["momentum"] - 0.10) < 1e-12
        assert "momentum" in entry["user"]


    def test_request_calls_no_backend_and_stores_nothing(self):
        key = f"1:{D0.isoformat()}:analyze"
        ctx, backend = make_ctx({("news_analyst:SYN", key): json.dumps(
            {"insight": "scripted insight", "sentiment": "positive"})})
        slice_ = AnalystSlice(ticker="SYN", documents=(doc("n1", "a"),))
        request = analyst_request(news_profile(), "belief text", slice_, D0, ctx)
        assert backend.calls == 0
        assert len(ctx.store) == 0
        assert (request.role_tag, request.step_key) == ("news_analyst:SYN", key)
        assert request.output_schema == "analyst_insight"
        assert "belief text" in request.system_prompt and "n1" in request.user_prompt

    def test_step_records_the_reply_as_one_event(self):
        key = f"1:{D0.isoformat()}:analyze"
        ctx, backend = make_ctx({("news_analyst:SYN", key): json.dumps(
            {"insight": "scripted insight", "sentiment": "positive"})})
        slice_ = AnalystSlice(ticker="SYN", documents=(doc("n1", "a"),))
        request = analyst_request(news_profile(), None, slice_, D0, ctx)
        reply = ctx.gateway.complete(request)
        message, entry = analyst_step(news_profile(), slice_, D0, ctx, reply)
        assert backend.calls == 1
        assert len(ctx.store) == 1
        assert ctx.store.get(f"news_analyst:SYN:1:{D0.isoformat()}:insight").content == \
            "[SYN] scripted insight"
        assert message == InsightMessage(ticker="SYN", distilled_insight="scripted insight",
                                         sentiment="positive", indicators={})
        assert entry == reply[1] == {
            "agent_id": "news_analyst:SYN", "step_key": key,
            "system": request.system_prompt, "user": request.user_prompt,
            "response": json.dumps({"insight": "scripted insight", "sentiment": "positive"})}

def decide_entries(day, actions, cited=(), episode=1, contributions=None):
    return {(MANAGER, f"{episode}:{day.isoformat()}:decide"): json.dumps(
        {"actions": actions, "reasoning": "scripted reasoning",
         "cited_memory_ids": list(cited),
         "contributions": contributions or {"data_analyst:SYN": "useful"}})}


def insight(aid, ticker, text="view"):
    return InsightMessage(ticker=ticker, distilled_insight=text, sentiment="neutral",
                          indicators={})


def manager_profile():
    return AgentProfile(agent_id=MANAGER, role=MANAGER, ticker=None,
                        profile_text="manager role", general_config="task intro",
                        decay_ratio=0.95)


def calm_state():
    return RiskState(cvar=None, prev_cvar=None, alert=False, history_len=0)


def alerting_state():
    return RiskState(cvar=-2.0, prev_cvar=-1.0, alert=True, history_len=12)


class TestManagerStep:
    def test_scripted_long_maps_to_unit_position(self):
        ctx, _ = make_ctx(decide_entries(D0, {"SYN": "long"}))
        decision, entry = manager_step(
            manager_profile(), {}, {"data_analyst:SYN": insight("data_analyst:SYN", "SYN")},
            calm_state(), D0, ctx, ["SYN"], ["data_analyst:SYN"])
        assert decision.directions == {"SYN": "long"}
        assert single_stock_weights(decision.directions) == {"SYN": 1.0}
        assert RISK_AVERSE_CLAUSE not in entry["user"]

    def test_risk_alert_adds_risk_averse_clause(self):
        ctx, _ = make_ctx(decide_entries(D0, {"SYN": "neutral"}))
        decision, entry = manager_step(
            manager_profile(), {}, {"data_analyst:SYN": insight("data_analyst:SYN", "SYN")},
            alerting_state(), D0, ctx, ["SYN"], ["data_analyst:SYN"])
        assert decision.directions == {"SYN": "neutral"}
        assert RISK_AVERSE_CLAUSE in entry["user"]

    def test_three_ticker_directions_map_to_weight_boxes(self):
        tickers = ["AAA", "BBB", "CCC"]
        actions = {"AAA": "long", "BBB": "short", "CCC": "neutral"}
        ctx, _ = make_ctx(decide_entries(D0, actions,
                                         contributions={"data_analyst:BBB": "useful"}))
        insights = {f"data_analyst:{t}": insight(f"data_analyst:{t}", t)
                    for t in tickers}
        decision, _ = manager_step(manager_profile(), {}, insights, calm_state(),
                                   D0, ctx, tickers, sorted(insights))
        from fincon.portfolio import direction_bounds
        lo, hi = direction_bounds([decision.directions[t] for t in tickers])
        assert list(lo) == [0.0, -1.0, 0.0]
        assert list(hi) == [1.0, 0.0, 0.0]

    def test_missing_analyst_report(self):
        ctx, _ = make_ctx(decide_entries(D0, {"SYN": "long"}))
        with pytest.raises(MissingAnalystReport):
            manager_step(manager_profile(), {}, {}, calm_state(), D0, ctx,
                         ["SYN"], ["data_analyst:SYN"])

    def test_decision_stored_in_manager_memory(self):
        ctx, _ = make_ctx(decide_entries(D0, {"SYN": "long"}))
        manager_step(manager_profile(), {},
                     {"data_analyst:SYN": insight("data_analyst:SYN", "SYN")},
                     calm_state(), D0, ctx, ["SYN"], ["data_analyst:SYN"])
        stored = ctx.store.get(f"manager:1:{D0.isoformat()}:decision")
        assert "scripted reasoning" in stored.content

    def test_contribution_from_an_analyst_not_expected_rejected(self):
        ctx, _ = make_ctx(decide_entries(
            D0, {"SYN": "long"}, contributions={"news_analyst:SYN": "useful"}))
        with pytest.raises(SchemaViolationAfterRetries):
            manager_step(manager_profile(), {},
                         {"data_analyst:SYN": insight("data_analyst:SYN", "SYN")},
                         calm_state(), D0, ctx, ["SYN"], ["data_analyst:SYN"])

    def test_beliefs_rendered_into_system_prompt(self):
        ctx, _ = make_ctx(decide_entries(D0, {"SYN": "long"}))
        _, entry = manager_step(manager_profile(), {"news insights": "trust headlines"},
                                {"data_analyst:SYN": insight("data_analyst:SYN", "SYN")},
                                calm_state(), D0, ctx, ["SYN"], ["data_analyst:SYN"])
        assert "trust headlines" in entry["system"]


class TestReflectStep:
    def test_reflection_stored_with_trigger(self):
        key = f"1:{D0.isoformat()}:reflect"
        ctx, _ = make_ctx({(MANAGER, key): json.dumps({"reflection": "be careful"})})
        text, entry = run_reflect(manager_profile(), "negative_pnl", "PnL -0.01", D0, ctx)
        assert text == "be careful"
        assert ctx.store.get(f"manager:1:{D0.isoformat()}:reflection-negative_pnl")
        assert "negative_pnl" in entry["user"]

    def test_request_calls_no_backend_and_stores_nothing(self):
        key = f"1:{D0.isoformat()}:reflect"
        ctx, backend = make_ctx({(MANAGER, key): json.dumps({"reflection": "be careful"})})
        request = reflect_request(manager_profile(), "negative_pnl", "PnL -0.01", D0, ctx)
        assert backend.calls == 0
        assert len(ctx.store) == 0
        assert (request.role_tag, request.step_key) == (MANAGER, key)
        assert "PnL -0.01" in request.user_prompt

    def test_step_records_the_reply_as_one_event(self):
        key = f"1:{D0.isoformat()}:reflect"
        ctx, _ = make_ctx({(MANAGER, key): json.dumps({"reflection": "be careful"})})
        request = reflect_request(manager_profile(), "negative_pnl", "PnL -0.01", D0, ctx)
        reply = ctx.gateway.complete(request)
        text, entry = reflect_step(manager_profile(), "negative_pnl", D0, ctx, reply)
        assert text == "be careful"
        assert len(ctx.store) == 1
        assert ctx.store.get(f"manager:1:{D0.isoformat()}:reflection-negative_pnl").content == \
            "be careful"
        assert entry == reply[1]
        assert (entry["system"], entry["user"]) == (request.system_prompt, request.user_prompt)


class TestSendFeedback:
    def _setup(self):
        ctx, _ = make_ctx()
        router = Router(["news_analyst:SYN", "data_analyst:SYN"])
        for i, aid in enumerate(["news_analyst:SYN", "data_analyst:SYN"]):
            content = f"cited {i}"
            ctx.store.add(MemoryEvent(
                event_id=f"cite{i}", owner=aid, content=content,
                embedding=ctx.embedder.embed(content), initial_importance=0.5,
                decay_ratio=0.9, created_at=date(2022, 3, 1)))
        decision = TradingDecision(directions={"SYN": "long"}, reasoning="r",
                                   cited_memory_ids=("cite0", "cite1"))
        profiles = build_profiles(["SYN"], ["news_analyst", "data_analyst"], "", DECAY_RATIOS)
        reporting = [profiles["news_analyst:SYN"], profiles["data_analyst:SYN"]]
        insights = {p.agent_id: insight(p.agent_id, "SYN") for p in reporting}
        return ctx, router, decision, insights, reporting

    def test_below_threshold_no_boosts_no_messages(self):
        ctx, router, decision, insights, reporting = self._setup()
        send_feedback(decision, 0.001, 0.01, reporting, insights, D0, ctx, router)
        assert ctx.store.get("cite0").access_bonus == 0.0
        assert router.count() == 0

    def test_significant_day_boosts_both_cited_ids(self):
        ctx, router, decision, insights, reporting = self._setup()
        send_feedback(decision, 0.05, 0.01, reporting, insights, D0, ctx, router)
        assert router.count("feedback") == 2
        assert ctx.store.get("cite0").access_bonus == 5.0
        assert ctx.store.get("cite1").access_bonus == 5.0
        assert f"news_analyst:SYN:1:{D0.isoformat()}:feedback" in ctx.store.all_ids()

    def test_repeated_significant_days_accumulate(self):
        ctx, router, decision, insights, reporting = self._setup()
        send_feedback(decision, 0.05, 0.01, reporting, insights, D0, ctx, router)
        d1 = date(2022, 3, 8)
        decision2 = TradingDecision(directions={"SYN": "long"}, reasoning="r",
                                    cited_memory_ids=("cite0", "cite1"))
        send_feedback(decision2, -0.06, 0.01, reporting, insights, d1, ctx, router)
        assert ctx.store.get("cite0").access_bonus == 10.0
        assert router.count("feedback") == 4

    @pytest.mark.parametrize("role, ratio", [("filing10k_analyst", 0.99),
                                             ("filing10q_analyst", 0.97),
                                             ("ecc_analyst", 0.97)])
    def test_feedback_memory_decays_at_the_role_kind_ratio(self, role, ratio):
        ctx, _ = make_ctx()
        aid = analyst_id(role, "SYN")
        decision = TradingDecision(directions={"SYN": "long"}, reasoning="r",
                                   cited_memory_ids=())
        profile = build_profiles(["SYN"], [role], "", DECAY_RATIOS)[aid]
        send_feedback(decision, 0.05, 0.01, [profile], {aid: insight(aid, "SYN")}, D0, ctx,
                      Router([aid]))
        event = ctx.store.get(f"{aid}:1:{D0.isoformat()}:feedback")
        assert event.decay_ratio == ratio

    def test_none_threshold_means_no_feedback(self):
        ctx, router, decision, insights, reporting = self._setup()
        send_feedback(decision, 0.5, None, reporting, insights, D0, ctx, router)
        assert router.count("feedback") == 0


class TestDecisionWeights:
    def test_sign_consistency_validation(self):
        with pytest.raises(ValueError):
            check_weight_signs({"SYN": "short"}, {"SYN": 0.5})

    def test_single_stock_mapping(self):
        got = single_stock_weights({"A": "long", "B": "short", "C": "neutral"},
                                   position_size=2.0)
        assert got == {"A": 2.0, "B": -2.0, "C": 0.0}

    def test_analyst_id_format(self):
        assert analyst_id("news_analyst", "TSLA") == "news_analyst:TSLA"
