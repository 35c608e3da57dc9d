"""Manager-analyst hierarchy: profiles, prompt assembly, steps and routing.

One manager consolidates per-ticker insight messages from uni-modal analyst
instances (one instance per role and ticker, agent_id ``<role>:<ticker>``)
and is the sole decision maker. Messages travel only along the two-level
tree: analyst <-> manager and risk_control <-> manager; peer traffic is
rejected. ``ROLES`` is the one table of analyst roles: each reads one
information source (a textual role owns one document kind, the data analyst
the price stream) and follows one aspect of the investment-belief block.
``analyst_report`` documents are ingested and stored but have no dedicated
analyst in this six-role hierarchy, so they are not fanned out.

The analyst and reflection steps come in halves, ``*_request`` and ``*_step``
(which records the reply). Each step returns its prompt-log record too.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from datetime import date as Date
from functools import cached_property
from typing import TYPE_CHECKING

from .data_ingest import TextDocument
from .errors import BadProfileText, IllegalRoute, MissingAnalystReport
from .llm_gateway import CompletionRequest, LlmGateway, step_key
from .memory import MemoryEvent, MemoryQuery, MemoryStore
from .portfolio import DIRECTION_BOXES

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .risk_control import RiskState

MANAGER = "manager"
RISK_CONTROL = "risk_control"

# the investment-belief block's aspects: each analyst role's, and "other aspects"
ASPECTS = ("historical momentum", "news insights", "Form 10-Q", "Form 10-K",
           "ECC", "other aspects")


@dataclass(frozen=True)
class Role:
    """An analyst role: the ``source`` it reads (a document kind, or "data"
    for the price stream, which also keys its memory decay ratio), the
    belief ``aspect`` it follows, and its default profile text."""

    source: str
    aspect: str
    profile_text: str


ROLES = {
    "news_analyst": Role("news", "news insights", (
        "You are the investment analyst for daily financial news. Your "
        "responsibilities are to distill investment insights and financial sentiment "
        "from news about {tickers}.")),
    "filing10k_analyst": Role("form10k", "Form 10-K", (
        "You are the investment analyst for annual filing reports (Form 10-K). Your "
        "responsibilities are to distill long-horizon investment insights for "
        "{tickers}.")),
    "filing10q_analyst": Role("form10q", "Form 10-Q", (
        "You are the investment analyst for quarterly filing reports (Form 10-Q). "
        "Your responsibilities are to distill medium-horizon investment insights for "
        "{tickers}.")),
    "ecc_analyst": Role("ecc_transcript", "ECC", (
        "You are the investment analyst for earnings-call transcripts. Your "
        "responsibilities are to extract investment tendencies from management "
        "commentary about {tickers}.")),
    "data_analyst": Role("data", "historical momentum", (
        "You are the market data analyst. Your responsibilities are to interpret "
        "key financial indicators such as momentum and tail risk for {tickers}.")),
}

RISK_AVERSE_CLAUSE = (
    "RISK ALERT: the risk-control component has flagged elevated downside risk. "
    "Adopt a risk-averse attitude for today's trading actions regardless of the "
    "prior risk status."
)

NO_SIGNAL = "no signal"

MANAGER_PROFILE_TEXT = (
    "You are an experienced trading manager in an investment firm. Your "
    "responsibilities are to consolidate investment insights from your analysts "
    "and decide trading actions on {tickers}."
)

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
    # None for the manager, which trades every ticker
    ticker: str | None
    profile_text: str
    general_config: str
    decay_ratio: float

    @cached_property
    def system_header(self) -> str:
        """The opening of each of the agent's system prompts."""
        return f"{self.profile_text}\n\n{self.general_config}"


def build_profiles(tickers, analyst_roles, general_config: str,
                   decay_ratios: dict[str, float],
                   profile_texts: dict[str, str] | None = None) -> dict[str, AgentProfile]:
    """Profiles for the manager plus one instance of each role per ticker.

    The manager's text is formatted with all tickers joined, an analyst's
    with its one ticker. Each role's text is formatted, so a given text is
    checked even if its role runs no instance: BadProfileText names the
    first whose only placeholder is not ``{tickers}``.
    """
    texts = {MANAGER: MANAGER_PROFILE_TEXT,
             **{role: spec.profile_text for role, spec in ROLES.items()},
             **(profile_texts or {})}
    # (agent id, role, ticker, the value of {tickers}, decay ratio)
    agents = [(MANAGER, MANAGER, None, ", ".join(tickers), decay_ratios[MANAGER])]
    agents += [(analyst_id(role, ticker), role, ticker, ticker, decay_ratios[spec.source])
               for role, spec in ROLES.items() for ticker in tickers]
    profiles = {}
    for aid, role, ticker, value, decay_ratio in agents:
        try:
            text = texts[role].format(tickers=value)
        except (KeyError, IndexError, ValueError, TypeError, AttributeError) as exc:
            raise BadProfileText(role, f"{texts[role]!r} must have {{tickers}} as its only "
                                       f"placeholder ({type(exc).__name__}: {exc})") from None
        if role == MANAGER or role in analyst_roles:
            profiles[aid] = AgentProfile(aid, role, ticker, text, general_config, decay_ratio)
    return profiles


@dataclass(frozen=True)
class InsightMessage:
    ticker: str
    distilled_insight: str
    sentiment: str
    indicators: dict[str, float]

    def __post_init__(self):
        for name, value in self.indicators.items():
            if not math.isfinite(value):
                raise ValueError(f"indicator {name} is not finite: {value}")


@dataclass
class TradingDecision:
    directions: dict[str, str]
    reasoning: str
    cited_memory_ids: tuple[str, ...]


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


def render_belief_block(block: dict[str, str]) -> str:
    keys = [a for a in ASPECTS if a in block]
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
    top_k: int
    temperature: float
    max_retries: int
    default_importance: float
    # query text -> its embedding, kept for the stage: a query's text is a
    # function of the agent, the date and the ticker, so later episodes
    # and rebuilt requests ask for the same texts again
    query_vectors: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True)
class AnalystSlice:
    """The uni-modal share of one day's observation owned by one analyst."""

    ticker: str
    documents: tuple[TextDocument, ...] = ()
    indicators: dict[str, float] = field(default_factory=dict)
    price_line: str = ""

    @property
    def calls_model(self) -> bool:
        """Whether the analyst has input today: documents or market data."""
        return bool(self.documents or self.price_line)


def _retrieve(ctx: StepContext, profile: AgentProfile, date: Date, ticker: str | None):
    query_text = memory_query_text(profile, date, ticker)
    embedding = ctx.query_vectors.get(query_text)
    if embedding is None:
        embedding = ctx.query_vectors[query_text] = ctx.embedder.embed(query_text)
    query = MemoryQuery(
        embedding=embedding,
        as_of=date,
        k=ctx.top_k,
        owner=profile.agent_id,
    )
    return ctx.store.retrieve_top_k(query)


def store_event(ctx: StepContext, agent_id: str, date: Date, tag: str, content: str,
                decay_ratio: float, importance: float | None):
    """Add one memory event ``<agent_id>:<episode>:<date>:<tag>`` owned by the agent."""
    ctx.store.add(MemoryEvent(
        event_id=f"{agent_id}:{ctx.episode}:{date.isoformat()}:{tag}",
        owner=agent_id,
        content=content,
        embedding=ctx.embedder.embed(content),
        initial_importance=ctx.default_importance if importance is None else importance,
        decay_ratio=decay_ratio,
        created_at=date,
    ))


def _request(ctx: StepContext, agent_id: str, date: Date, phase: str, system: str,
             user: str, schema: str, context: dict | None = None) -> CompletionRequest:
    return CompletionRequest(
        role_tag=agent_id,
        system_prompt=system,
        user_prompt=user,
        output_schema=schema,
        temperature=ctx.temperature,
        max_retries=ctx.max_retries,
        step_key=step_key(ctx.episode, date, phase),
        context=context or {},
    )


def analyst_request(profile: AgentProfile, belief_text: str | None, obs_slice: AnalystSlice,
                    date: Date, ctx: StepContext) -> CompletionRequest:
    """An analyst's daily distillation request for a slice that ``calls_model``,
    with its top-K memories and the belief for the analyst's aspect (None
    before the first belief update)."""
    retrieved = _retrieve(ctx, profile, date, obs_slice.ticker)
    system = profile.system_header
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
    return _request(ctx, profile.agent_id, date, "analyze", system, "\n\n".join(parts),
                    "analyst_insight")


def analyst_step(profile: AgentProfile, obs_slice: AnalystSlice, date: Date,
                 ctx: StepContext, reply: tuple[dict, dict] | None = None):
    """Store ``reply``, ``ctx.gateway.complete`` of the ``analyst_request``, as a
    procedural memory event; returns (InsightMessage, its prompt-log record). A
    slice with no documents or market data (a textual analyst with nothing
    published today) gets a neutral "no signal" message and no record."""
    if not obs_slice.calls_model:
        message = InsightMessage(ticker=obs_slice.ticker, distilled_insight=NO_SIGNAL,
                                 sentiment="neutral", indicators={})
        return message, None
    parsed, log_entry = reply
    store_event(ctx, profile.agent_id, date, "insight",
                f"[{obs_slice.ticker}] {parsed['insight']}",
                profile.decay_ratio, parsed.get("importance"))
    message = InsightMessage(
        ticker=obs_slice.ticker, distilled_insight=parsed["insight"],
        sentiment=parsed["sentiment"], indicators=dict(obs_slice.indicators))
    return message, log_entry


def manager_step(profile: AgentProfile, beliefs: dict[str, str],
                 insights: dict[str, InsightMessage], risk_state: RiskState,
                 date: Date, ctx: StepContext, tickers, expected_analysts):
    """Consolidate the day's insights into one schema-validated decision.

    Requires a report (possibly "no signal") from every expected analyst.
    The system prompt carries the investment-belief block ``beliefs``; when
    the risk state is alerting, the user prompt carries the risk-averse
    instruction. The decision's reasoning and per-analyst
    contribution notes are stored in the manager's procedural memory.
    """
    missing = sorted(set(expected_analysts) - set(insights))
    if missing:
        raise MissingAnalystReport(f"no report from {missing} on {date}")
    retrieved = _retrieve(ctx, profile, date, None)
    system = profile.system_header + "\n\nInvestment beliefs:\n" + render_belief_block(beliefs)
    parts = [f"Date: {date.isoformat()}"]
    if risk_state.alert:
        parts.append(RISK_AVERSE_CLAUSE)
    parts.append("Analyst insights:\n" + render_insights(insights))
    if retrieved:
        parts.append("Relevant memories:\n" + render_memories(retrieved))
    ticker_list = ", ".join(f'"{t}"' for t in tickers)
    labels = "|".join(f'"{d}"' for d in DIRECTION_BOXES)
    parts.append(
        "Decide one direction per ticker. Respond with a JSON object "
        '{"actions": {<ticker>: ' + labels + '}, "reasoning": <text>, '
        '"cited_memory_ids": [<memory id>...], "contributions": {<analyst id>: <note>}} '
        f"covering exactly these tickers: [{ticker_list}]."
    )
    parsed, log_entry = ctx.gateway.complete(_request(
        ctx, MANAGER, date, "decide", system, "\n\n".join(parts), "manager_decision",
        {"tickers": list(tickers), "analysts": list(expected_analysts),
         "known_memory_ids": ctx.store.all_ids()}))
    note_lines = "; ".join(f"{k}: {v}" for k, v in sorted(parsed["contributions"].items()))
    content = f"Decision {date.isoformat()}: " + ", ".join(
        f"{t}={parsed['actions'][t]}" for t in tickers)
    content += f". Reasoning: {parsed['reasoning']}"
    if note_lines:
        content += f". Contributions: {note_lines}"
    store_event(ctx, MANAGER, date, "decision", content, profile.decay_ratio, None)
    decision = TradingDecision(
        directions={t: parsed["actions"][t] for t in tickers},
        reasoning=parsed["reasoning"],
        cited_memory_ids=tuple(parsed["cited_memory_ids"]),
    )
    return decision, log_entry


def reflect_request(profile: AgentProfile, trigger: str, day_summary: str, date: Date,
                    ctx: StepContext) -> CompletionRequest:
    """The manager's self-reflection request on a within-episode alert."""
    user = "\n\n".join([
        f"Date: {date.isoformat()}",
        f"The risk-control component triggered a self-reflection ({trigger}).",
        f"Today's outcome: {day_summary}",
        REFLECTION_INSTRUCTIONS,
    ])
    return _request(ctx, MANAGER, date, "reflect", profile.system_header, user, "reflection")


def reflect_step(profile: AgentProfile, trigger: str, date: Date, ctx: StepContext,
                 reply: tuple[dict, dict]):
    """Store ``reply``, ``ctx.gateway.complete`` of the ``reflect_request``;
    returns (reflection text, the reply's prompt-log record)."""
    parsed, log_entry = reply
    store_event(ctx, MANAGER, date, f"reflection-{trigger}", parsed["reflection"],
                profile.decay_ratio, None)
    return parsed["reflection"], log_entry


def send_feedback(decision: TradingDecision, realized_pnl: float,
                  threshold: float | None, reporting_analysts,
                  insights: dict[str, InsightMessage], date: Date,
                  ctx: StepContext, router: Router) -> bool:
    """Manager feedback after a significant day: boosts and analyst notes;
    returns whether the day was significant.

    When |realized_pnl| reaches the threshold, every memory id cited in the
    decision gets the access bonus and each reporting analyst (a profile)
    receives a feedback message that is also appended to its procedural
    memory. Quiet days produce neither boosts nor messages.
    """
    if threshold is None or abs(realized_pnl) < threshold:
        return False
    for event_id in decision.cited_memory_ids:
        ctx.store.boost_access(event_id)
    for profile in sorted(reporting_analysts, key=lambda p: p.agent_id):
        aid = profile.agent_id
        text = (f"Feedback for {date.isoformat()}: realized PnL {realized_pnl!r} was "
                f"significant. Your insight was: {insights[aid].distilled_insight}")
        store_event(ctx, aid, date, "feedback", text, profile.decay_ratio, None)
        router.send(MANAGER, aid, "feedback")
    return True
