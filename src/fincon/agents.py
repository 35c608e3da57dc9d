"""Manager-analyst hierarchy: profiles, prompt assembly, steps and routing.

One manager consolidates per-ticker insight messages from uni-modal analyst
instances (one instance per role and ticker, agent_id ``<role>:<ticker>``)
and is the sole decision maker. Messages travel only along the two-level
tree: analyst <-> manager and risk_control <-> manager; peer traffic is
rejected. Each analyst role reads one information source (``SOURCE_FOR_ROLE``):
a textual role owns one document kind, the data analyst the price stream.
``analyst_report`` documents are ingested and stored but have no dedicated
analyst in this six-role hierarchy, so they are not fanned out.

Every assembled prompt is returned alongside the step result so the run
driver can log it verbatim for audit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from datetime import date as Date

from .data_ingest import TextDocument
from .errors import IllegalRoute, MissingAnalystReport
from .llm_gateway import CompletionRequest, LlmGateway, step_key
from .memory import MemoryEvent, MemoryQuery, MemoryStore
from .risk_control import ASPECTS, RiskState

MANAGER = "manager"
RISK_CONTROL = "risk_control"

# the source each analyst role reads: a document kind, or "data" for the
# price stream; it also keys the role's memory decay ratio
SOURCE_FOR_ROLE = {
    "news_analyst": "news",
    "filing10k_analyst": "form10k",
    "filing10q_analyst": "form10q",
    "ecc_analyst": "ecc_transcript",
    "data_analyst": "data",
}

DAILY_ANALYST_ROLES = tuple(SOURCE_FOR_ROLE)

RISK_AVERSE_CLAUSE = (
    "RISK ALERT: the risk-control component has flagged elevated downside risk. "
    "Adopt a risk-averse attitude for today's trading actions regardless of the "
    "prior risk status."
)

NO_SIGNAL = "no signal"

DEFAULT_PROFILE_TEXTS = {
    MANAGER: (
        "You are an experienced trading manager in an investment firm. Your "
        "responsibilities are to consolidate investment insights from your analysts "
        "and decide trading actions on {tickers}."
    ),
    "news_analyst": (
        "You are the investment analyst for daily financial news. Your "
        "responsibilities are to distill investment insights and financial sentiment "
        "from news about {tickers}."
    ),
    "filing10k_analyst": (
        "You are the investment analyst for annual filing reports (Form 10-K). Your "
        "responsibilities are to distill long-horizon investment insights for "
        "{tickers}."
    ),
    "filing10q_analyst": (
        "You are the investment analyst for quarterly filing reports (Form 10-Q). "
        "Your responsibilities are to distill medium-horizon investment insights for "
        "{tickers}."
    ),
    "ecc_analyst": (
        "You are the investment analyst for earnings-call transcripts. Your "
        "responsibilities are to extract investment tendencies from management "
        "commentary about {tickers}."
    ),
    "data_analyst": (
        "You are the market data analyst. Your responsibilities are to interpret "
        "key financial indicators such as momentum and tail risk for {tickers}."
    ),
}

INSIGHT_INSTRUCTIONS = (
    'Respond with a JSON object {"insight": <distilled insight>, '
    '"sentiment": "positive"|"negative"|"neutral", "importance": <0..1, optional>}.'
)

REFLECTION_INSTRUCTIONS = (
    'Respond with a JSON object {"reflection": <what to learn from this outcome>}.'
)


def analyst_id(role: str, ticker: str) -> str:
    return f"{role}:{ticker}"


@dataclass(frozen=True)
class AgentProfile:
    agent_id: str
    role: str
    profile_text: str
    general_config: str


def build_profiles(tickers, analyst_roles, general_config: str,
                   profile_texts: dict[str, str] | None = None) -> dict[str, AgentProfile]:
    """Profiles for the manager plus one instance of each role per ticker."""
    texts = dict(DEFAULT_PROFILE_TEXTS)
    if profile_texts:
        texts.update(profile_texts)
    joined = ", ".join(tickers)
    profiles = {
        MANAGER: AgentProfile(
            agent_id=MANAGER, role=MANAGER,
            profile_text=texts[MANAGER].format(tickers=joined),
            general_config=general_config,
        )
    }
    for role in analyst_roles:
        for ticker in tickers:
            aid = analyst_id(role, ticker)
            profiles[aid] = AgentProfile(
                agent_id=aid, role=role,
                profile_text=texts[role].format(tickers=ticker),
                general_config=general_config,
            )
    return profiles


@dataclass(frozen=True)
class PromptSet:
    """The textual policy parameters: per-analyst prompts, the manager prompt,
    and the structured investment-belief block updated between episodes."""

    analyst_prompts: dict[str, str]
    manager_prompt: str
    belief_block: dict[str, str]

    def __post_init__(self):
        for aspect in self.belief_block:
            if aspect not in ASPECTS:
                raise ValueError(f"belief_block key {aspect!r} not in the aspect vocabulary")

    def with_belief_block(self, beliefs: dict[str, str]) -> "PromptSet":
        return PromptSet(analyst_prompts=dict(self.analyst_prompts),
                         manager_prompt=self.manager_prompt,
                         belief_block=dict(beliefs))

    @classmethod
    def initial(cls, profiles: dict[str, AgentProfile]) -> "PromptSet":
        analyst_prompts = {
            aid: p.profile_text for aid, p in profiles.items() if p.role != MANAGER
        }
        return cls(analyst_prompts=analyst_prompts,
                   manager_prompt=profiles[MANAGER].profile_text,
                   belief_block={})


@dataclass(frozen=True)
class InsightMessage:
    from_agent: str
    date: Date
    ticker: str
    distilled_insight: str
    sentiment: str
    indicators: dict[str, float]
    cited_memory_ids: tuple[str, ...]

    def __post_init__(self):
        for name, value in self.indicators.items():
            if not math.isfinite(value):
                raise ValueError(f"indicator {name} is not finite: {value}")


@dataclass
class TradingDecision:
    date: Date
    directions: dict[str, str]
    weights: dict[str, float]
    reasoning: str
    contribution_notes: dict[str, str]
    cited_memory_ids: tuple[str, ...]

    def check_weight_signs(self) -> None:
        """Direction/weight consistency: long in [0,1], short in [-1,0], neutral 0."""
        for ticker, direction in self.directions.items():
            w = self.weights.get(ticker, 0.0)
            ok = {
                "long": 0.0 <= w <= 1.0 + 1e-12,
                "short": -1.0 - 1e-12 <= w <= 0.0,
                "neutral": w == 0.0,
            }[direction]
            if not ok:
                raise ValueError(f"{ticker}: weight {w} inconsistent with {direction}")


@dataclass(frozen=True)
class Reflection:
    date: Date
    text: str
    trigger: str

    def __post_init__(self):
        if self.trigger not in ("cvar_drop", "negative_pnl", "episodic"):
            raise ValueError(f"unknown reflection trigger {self.trigger!r}")


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------

class Router:
    """The two-level tree's edges (analysts <-> manager, risk_control <->
    manager); the engine sends every message through it.

    Only per-kind delivery counts are kept, not the messages themselves.
    """

    def __init__(self, analyst_ids):
        edges = {(RISK_CONTROL, MANAGER), (MANAGER, RISK_CONTROL)}
        for aid in analyst_ids:
            edges.add((aid, MANAGER))
            edges.add((MANAGER, aid))
        self._edges = frozenset(edges)
        self._counts: Counter[str] = Counter()

    def send(self, sender: str, recipient: str, kind: str) -> None:
        """Deliver along a tree edge; anything else raises IllegalRoute."""
        if (sender, recipient) not in self._edges:
            raise IllegalRoute(f"{sender} -> {recipient} is not a tree edge")
        self._counts[kind] += 1

    def count(self, kind: str | None = None) -> int:
        if kind is None:
            return sum(self._counts.values())
        return self._counts[kind]

    def counts_by_kind(self) -> dict[str, int]:
        return dict(self._counts)

    def restore_counts(self, counts: dict[str, int]) -> None:
        """Continue counting from a checkpoint's ``counts_by_kind``."""
        self._counts = Counter(counts)


# ---------------------------------------------------------------------------
# prompt rendering
# ---------------------------------------------------------------------------

def render_documents(docs) -> str:
    return "\n".join(f"[{d.kind}] {d.published.isoformat()} {d.doc_id}: {d.body}"
                     for d in docs)


def render_indicators(indicators: dict[str, float]) -> str:
    return ", ".join(f"{k}={indicators[k]!r}" for k in sorted(indicators))


def render_memories(scored) -> str:
    return "\n".join(
        f"[{s.event.event_id}] (score {s.gamma:.6f}) {s.event.content}" for s in scored)


def render_belief_block(block: dict[str, str], aspects=None) -> str:
    keys = [a for a in (aspects or ASPECTS) if a in block]
    if not keys:
        return "(no investment beliefs yet)"
    return "\n".join(f"- {a}: {block[a]}" for a in keys)


def render_insights(insights: dict[str, InsightMessage]) -> str:
    lines = []
    for aid in sorted(insights):
        m = insights[aid]
        extra = f" indicators: {render_indicators(m.indicators)}" if m.indicators else ""
        lines.append(f"{aid} [{m.ticker}] sentiment={m.sentiment}: "
                     f"{m.distilled_insight}{extra}")
    return "\n".join(lines)


def memory_query_text(profile: AgentProfile, date: Date, ticker: str | None) -> str:
    scope = f" ticker {ticker}" if ticker else ""
    return f"{profile.general_config}\n{profile.profile_text}\nTrade inquiry for {date.isoformat()}{scope}"


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------

@dataclass
class StepContext:
    """Per-run wiring shared by every agent step."""

    store: MemoryStore
    gateway: LlmGateway
    embedder: object
    episode: object
    top_k: int = 5
    temperature: float = 0.3
    max_retries: int = 2
    default_importance: float = 0.5


@dataclass(frozen=True)
class AnalystSlice:
    """The uni-modal share of one day's observation owned by one analyst."""

    ticker: str
    documents: tuple[TextDocument, ...] = ()
    indicators: dict[str, float] = field(default_factory=dict)
    price_line: str = ""


def _retrieve(ctx: StepContext, profile: AgentProfile, date: Date, ticker: str | None):
    query_text = memory_query_text(profile, date, ticker)
    query = MemoryQuery(
        query_text=query_text,
        embedding=ctx.embedder.embed(query_text),
        as_of=date,
        k=ctx.top_k,
        owner=profile.agent_id,
        layer="procedural",
    )
    return ctx.store.retrieve_top_k(query)


def store_event(ctx: StepContext, agent_id: str, date: Date, tag: str, content: str,
                decay_ratio: float, importance: float | None, layer: str = "procedural"):
    """Add one memory event ``<agent_id>:<episode>:<date>:<tag>`` owned by the agent."""
    ctx.store.add(MemoryEvent(
        event_id=f"{agent_id}:{ctx.episode}:{date.isoformat()}:{tag}",
        owner=agent_id,
        layer=layer,
        content=content,
        embedding=ctx.embedder.embed(content),
        initial_importance=ctx.default_importance if importance is None else importance,
        decay_ratio=decay_ratio,
        created_at=date,
    ))


def _complete(ctx: StepContext, agent_id: str, date: Date, phase: str, system: str,
              user: str, schema: str, context: dict | None = None):
    """Run one agent request through the gateway; returns the parsed output
    and the assembled-prompt record logged for audit."""
    request = CompletionRequest(
        role_tag=agent_id,
        system_prompt=system,
        user_prompt=user,
        output_schema=schema,
        temperature=ctx.temperature,
        max_retries=ctx.max_retries,
        step_key=step_key(ctx.episode, date, phase),
        context=context or {},
    )
    record = {"date": date.isoformat(), "agent_id": agent_id, "phase": phase,
              "system": system, "user": user}
    return ctx.gateway.complete(request).parsed, record


def analyst_step(profile: AgentProfile, prompt_text: str, belief_text: str | None,
                 obs_slice: AnalystSlice, date: Date, ctx: StepContext,
                 decay_ratio: float):
    """One analyst's daily distillation for its ticker.

    An analyst whose slice holds neither documents nor market data (a
    textual analyst with nothing published today) returns a neutral
    "no signal" message without calling the gateway (and stores nothing).
    Otherwise the step retrieves top-K memories, runs the distillation
    schema, stores the insight as a procedural memory event, and returns
    (InsightMessage, assembled-prompt log entry).
    """
    if not obs_slice.documents and not obs_slice.price_line:
        message = InsightMessage(
            from_agent=profile.agent_id, date=date, ticker=obs_slice.ticker,
            distilled_insight=NO_SIGNAL, sentiment="neutral",
            indicators={}, cited_memory_ids=(),
        )
        return message, None
    retrieved = _retrieve(ctx, profile, date, obs_slice.ticker)
    cited = tuple(s.event.event_id for s in retrieved)
    system = f"{prompt_text}\n\n{profile.general_config}"
    if belief_text:
        system += f"\n\nCurrent investment belief for your aspect:\n{belief_text}"
    parts = [f"Date: {date.isoformat()}", f"Ticker: {obs_slice.ticker}"]
    if obs_slice.price_line:
        parts.append(f"Market data: {obs_slice.price_line}")
    if obs_slice.indicators:
        parts.append(f"Indicators: {render_indicators(obs_slice.indicators)}")
    if obs_slice.documents:
        parts.append("Documents:\n" + render_documents(obs_slice.documents))
    if retrieved:
        parts.append("Relevant memories:\n" + render_memories(retrieved))
    parts.append(INSIGHT_INSTRUCTIONS)
    parsed, log_entry = _complete(ctx, profile.agent_id, date, "analyze", system,
                                  "\n\n".join(parts), "analyst_insight")
    store_event(ctx, profile.agent_id, date, "insight",
                f"[{obs_slice.ticker}] {parsed['insight']}",
                decay_ratio, parsed.get("importance"))
    message = InsightMessage(
        from_agent=profile.agent_id, date=date, ticker=obs_slice.ticker,
        distilled_insight=parsed["insight"], sentiment=parsed["sentiment"],
        indicators=dict(obs_slice.indicators), cited_memory_ids=cited,
    )
    return message, log_entry


def manager_step(profile: AgentProfile, prompt_set: PromptSet,
                 insights: dict[str, InsightMessage], risk_state: RiskState,
                 date: Date, ctx: StepContext, tickers, expected_analysts,
                 decay_ratio: float):
    """Consolidate the day's insights into one schema-validated decision.

    Requires a report (possibly "no signal") from every expected analyst.
    When the risk state is alerting, the assembled prompt carries the
    risk-averse instruction. The decision's reasoning and per-analyst
    contribution notes are stored in the manager's procedural memory.
    """
    missing = sorted(set(expected_analysts) - set(insights))
    if missing:
        raise MissingAnalystReport(f"no report from {missing} on {date}")
    retrieved = _retrieve(ctx, profile, date, None)
    system = f"{prompt_set.manager_prompt}\n\n{profile.general_config}"
    system += "\n\nInvestment beliefs:\n" + render_belief_block(prompt_set.belief_block)
    parts = [f"Date: {date.isoformat()}"]
    if risk_state.alert:
        parts.append(RISK_AVERSE_CLAUSE)
    parts.append("Analyst insights:\n" + render_insights(insights))
    if retrieved:
        parts.append("Relevant memories:\n" + render_memories(retrieved))
    ticker_list = ", ".join(f'"{t}"' for t in tickers)
    parts.append(
        "Decide one direction per ticker. Respond with a JSON object "
        '{"actions": {<ticker>: "long"|"short"|"neutral"}, "reasoning": <text>, '
        '"cited_memory_ids": [<memory id>...], "contributions": {<analyst id>: <note>}} '
        f"covering exactly these tickers: [{ticker_list}]."
    )
    parsed, log_entry = _complete(
        ctx, MANAGER, date, "decide", system, "\n\n".join(parts), "manager_decision",
        {"tickers": list(tickers), "known_memory_ids": ctx.store.all_ids()})
    contributions = {k: v for k, v in parsed["contributions"].items()}
    note_lines = "; ".join(f"{k}: {v}" for k, v in sorted(contributions.items()))
    content = f"Decision {date.isoformat()}: " + ", ".join(
        f"{t}={parsed['actions'][t]}" for t in tickers)
    content += f". Reasoning: {parsed['reasoning']}"
    if note_lines:
        content += f". Contributions: {note_lines}"
    store_event(ctx, MANAGER, date, "decision", content, decay_ratio, None)
    decision = TradingDecision(
        date=date,
        directions={t: parsed["actions"][t] for t in tickers},
        weights={},
        reasoning=parsed["reasoning"],
        contribution_notes=contributions,
        cited_memory_ids=tuple(parsed["cited_memory_ids"]),
    )
    return decision, log_entry


def reflect_step(profile: AgentProfile, trigger: str, day_summary: str, date: Date,
                 ctx: StepContext, decay_ratio: float):
    """Manager self-reflection requested by the within-episode risk trigger."""
    system = f"{profile.profile_text}\n\n{profile.general_config}"
    user = "\n\n".join([
        f"Date: {date.isoformat()}",
        f"The risk-control component triggered a self-reflection ({trigger}).",
        f"Today's outcome: {day_summary}",
        REFLECTION_INSTRUCTIONS,
    ])
    parsed, log_entry = _complete(ctx, MANAGER, date, "reflect", system, user, "reflection")
    store_event(ctx, MANAGER, date, f"reflection-{trigger}", parsed["reflection"],
                decay_ratio, None)
    reflection = Reflection(date=date, text=parsed["reflection"], trigger=trigger)
    return reflection, log_entry


def single_stock_weights(decision: TradingDecision, position_size: float = 1.0) -> dict[str, float]:
    """Map direction labels onto signed unit positions for single-stock runs."""
    signs = {"long": 1.0, "short": -1.0, "neutral": 0.0}
    return {t: signs[d] * position_size for t, d in decision.directions.items()}


def send_feedback(decision: TradingDecision, realized_pnl: float,
                  threshold: float | None, reporting_analysts,
                  insights: dict[str, InsightMessage], date: Date,
                  ctx: StepContext, router: Router, decay_ratios: dict[str, float],
                  roles: dict[str, str]) -> None:
    """Manager feedback after a significant day: boosts and analyst notes.

    When |realized_pnl| reaches the threshold, every memory id cited in the
    decision gets the access bonus and each reporting analyst receives a
    feedback message that is also appended to its procedural memory. Quiet
    days produce neither boosts nor messages.
    """
    if threshold is None or abs(realized_pnl) < threshold:
        return
    for event_id in decision.cited_memory_ids:
        ctx.store.boost_access(event_id)
    for aid in sorted(reporting_analysts):
        insight = insights[aid].distilled_insight
        text = (f"Feedback for {date.isoformat()}: realized PnL {realized_pnl!r} was "
                f"significant. Your insight was: {insight}")
        store_event(ctx, aid, date, "feedback", text,
                    decay_ratios[SOURCE_FOR_ROLE[roles[aid]]], None)
        router.send(MANAGER, aid, "feedback")
