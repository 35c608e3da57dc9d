"""Dual-level risk control.

Within an episode, empirical CVaR of the strategy's daily PnL is recomputed
each day and an alert fires whenever CVaR drops or the day's PnL is negative
(once enough history has accumulated, the CVaR branch arms; the negative-PnL
branch is always live). The alert makes the manager reflect and trades the
next day under an explicit risk-averse instruction.

Across episodes, consecutive trajectories are compared: sustained winning
and losing runs are conceptualized into per-aspect insights, a meta prompt
states the optimization direction, and the investment-belief block is
rewritten with an edit aggressiveness scaled by the overlap percentage of
the two action sequences (the learning-rate analogue). This only operates
during training.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from datetime import date as Date
from typing import TYPE_CHECKING

from .errors import (
    AlphaOutOfRange,
    EmptyHistory,
    EmptySequence,
    IncompleteEpisode,
    LengthMismatch,
)
from .llm_gateway import CompletionRequest, LlmGateway, step_key

if TYPE_CHECKING:  # pragma: no cover
    from .agents import PromptSet
    from .backtest import Trajectory

ASPECTS = ("historical momentum", "news insights", "Form 10-Q", "Form 10-K",
           "ECC", "other aspects")

ASPECT_FOR_ROLE = {
    "data_analyst": "historical momentum",
    "news_analyst": "news insights",
    "filing10q_analyst": "Form 10-Q",
    "filing10k_analyst": "Form 10-K",
    "ecc_analyst": "ECC",
}

RISK_CONTROL_TAG = "risk_control"


# ---------------------------------------------------------------------------
# risk metrics and the within-episode trigger
# ---------------------------------------------------------------------------

def var_cvar(pnl_history, alpha: float) -> tuple[float, float]:
    """Empirical VaR and CVaR of a PnL sample at confidence level alpha.

    VaR is the lower empirical quantile, the smallest sample value whose
    cumulative probability reaches alpha; CVaR averages every value at or
    below it. Integer fix-up keeps the quantile index faithful to the
    infimum definition despite float rounding in alpha * n.
    """
    values = [float(x) for x in pnl_history]
    if not values:
        raise EmptyHistory("PnL history is empty")
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRange(f"alpha must be in (0,1), got {alpha}")
    values.sort()
    n = len(values)
    k = max(1, math.ceil(alpha * n))
    while k > 1 and (k - 1) / n >= alpha:
        k -= 1
    while k < n and k / n < alpha:
        k += 1
    var = values[k - 1]
    tail = [x for x in values if x <= var]
    return var, sum(tail) / len(tail)


def cvar(pnl_history, alpha: float) -> float:
    """Mean of the PnL values at or below the empirical alpha-quantile."""
    return var_cvar(pnl_history, alpha)[1]


@dataclass(frozen=True)
class RiskState:
    date: Date
    cvar: float | None
    prev_cvar: float | None
    alert: bool
    history_len: int

    @classmethod
    def initial(cls) -> "RiskState":
        return cls(date=Date.min, cvar=None, prev_cvar=None, alert=False, history_len=0)


def _cvar_dropped(state: RiskState, min_history: int) -> bool:
    """The CVaR branch of the trigger, armed once the history is long enough."""
    return (
        state.history_len >= min_history
        and state.prev_cvar is not None
        and state.cvar is not None
        and state.cvar < state.prev_cvar
    )


def within_episode_check(state: RiskState, r_t: float, min_history: int = 10) -> RiskState:
    """Evaluate the daily trigger: CVaR dropped OR today's PnL is negative.

    The CVaR branch arms only once ``history_len`` reaches ``min_history``;
    the negative-PnL branch is always active. r_t == 0 does not fire.
    """
    return replace(state, alert=bool(_cvar_dropped(state, min_history) or r_t < 0))


def alert_trigger(state: RiskState, r_t: float, min_history: int = 10) -> str | None:
    """Which reflection trigger applies, with the CVaR drop taking precedence."""
    if _cvar_dropped(state, min_history):
        return "cvar_drop"
    return "negative_pnl" if r_t < 0 else None


# ---------------------------------------------------------------------------
# overlap learning rate and convergence
# ---------------------------------------------------------------------------

def overlap_percentage(actions_a, actions_b) -> float:
    """Fraction of positions with identical direction labels."""
    a = list(actions_a)
    b = list(actions_b)
    if len(a) != len(b):
        raise LengthMismatch(f"sequence lengths differ: {len(a)} vs {len(b)}")
    if not a:
        raise EmptySequence("decision sequences are empty")
    agree = sum(1 for x, y in zip(a, b) if x == y)
    return agree / len(a)


def edit_instruction(tau: float) -> str:
    """Edit-aggressiveness instruction for the belief rewrite, scaled by tau."""
    if tau < 0.5:
        return "Substantially rewrite the belief aspects."
    if tau < 0.8:
        return "Revise the targeted belief aspects."
    return "Make minimal refinements only."


def convergence_check(tau_history, objective_history, tau_threshold: float = 0.8,
                      epsilon: float = 1e-6, max_episodes: int | None = None) -> bool:
    """Stop training when overlap is high and the objective has flattened.

    Also stops unconditionally once ``max_episodes`` episodes have run.
    """
    if max_episodes is not None and len(objective_history) >= max_episodes:
        return True
    if len(objective_history) < 2 or not tau_history:
        return False
    improvement = objective_history[-1] - objective_history[-2]
    return tau_history[-1] >= tau_threshold and improvement < epsilon


# ---------------------------------------------------------------------------
# conceptual verbal reinforcement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConceptInsight:
    aspect: str
    text: str

    def __post_init__(self):
        if self.aspect not in ASPECTS:
            raise ValueError(f"unknown aspect {self.aspect!r}")


@dataclass(frozen=True)
class BeliefUpdate:
    episode_pair: tuple[int, int]
    winner: int
    insights_prev: tuple[ConceptInsight, ...]
    insights_cur: tuple[ConceptInsight, ...]
    meta_prompt: str
    learning_rate: float
    target_agents: tuple[str, ...]
    beliefs: dict[str, str]

    @classmethod
    def from_record(cls, rec: dict) -> "BeliefUpdate":
        """The update a belief file holds; KeyError, TypeError or ValueError
        when the record does not describe one."""
        rate = rec["learning_rate"]
        if isinstance(rate, bool) or not isinstance(rate, (int, float)):
            raise TypeError(f"learning_rate must be a number, got {rate!r}")
        return cls(
            episode_pair=tuple(rec["episode_pair"]),
            winner=rec["winner"],
            insights_prev=tuple(ConceptInsight(**c) for c in rec["insights_prev"]),
            insights_cur=tuple(ConceptInsight(**c) for c in rec["insights_cur"]),
            meta_prompt=rec["meta_prompt"],
            learning_rate=float(rate),
            target_agents=tuple(rec["target_agents"]),
            beliefs=dict(rec["beliefs"]),
        )


def extract_runs(pnls, min_len: int = 2) -> list[dict]:
    """Maximal runs of consecutive positive or consecutive negative PnL days.

    Returns dicts with start/end indices (inclusive) and sign (+1/-1); zero
    days break runs and belong to none.
    """
    runs: list[dict] = []
    start = None
    sign = 0
    for i, value in enumerate(list(pnls) + [0.0]):
        s = 1 if value > 0 else (-1 if value < 0 else 0)
        if s != sign:
            if sign != 0 and i - start >= min_len:
                runs.append({"start": start, "end": i - 1, "sign": sign})
            start = i if s != 0 else None
            sign = s
    return runs


def render_day_record(record) -> str:
    """One audit line for a trajectory day, embedded in CVRF prompts."""
    directions = ",".join(f"{t}={d}" for t, d in sorted(record.directions.items()))
    insights = " | ".join(
        f"{aid}: {text}" for aid, text in sorted(record.insights.items()))
    return (f"{record.date.isoformat()} pnl={record.pnl!r} actions=[{directions}] "
            f"reasoning={record.reasoning} insights=[{insights}]")


def conceptualize(trajectory: "Trajectory", analyst_roles, gateway: LlmGateway,
                  min_run: int = 2, max_retries: int = 2) -> list[ConceptInsight]:
    """Distill a trajectory's sustained winning/losing runs into per-aspect insights.

    Runs one temperature-0 gateway call, as every between-episode call does.
    Returns an empty list without calling the gateway when no run of at
    least ``min_run`` consecutive positive or negative days exists.
    """
    pnls = [day.pnl for day in trajectory.days]
    runs = extract_runs(pnls, min_len=min_run)
    if not runs:
        return []
    sections = []
    for run in runs:
        label = "sustained profitable trades" if run["sign"] > 0 else "sustained losing trades"
        lines = [render_day_record(trajectory.days[i])
                 for i in range(run["start"], run["end"] + 1)]
        sections.append(f"[{label}]\n" + "\n".join(lines))
    aspect_list = ", ".join(f"'{a}'" for a in ASPECTS)
    user_prompt = (
        f"Episode {trajectory.episode} produced the following sustained runs of "
        f"trading outcomes.\n\n" + "\n\n".join(sections) +
        "\n\nSummarize conceptualized investment insights for this episode as a JSON "
        "object {\"insights\": {<aspect>: <advice>}} using only these aspect keys: "
        f"{aspect_list}. Cover the analyst perspectives ({', '.join(analyst_roles)}) "
        "that contributed to these outcomes."
    )
    request = CompletionRequest(
        role_tag=RISK_CONTROL_TAG,
        system_prompt="You are the risk-control component of a trading team. "
                      "You attribute episode performance to information aspects.",
        user_prompt=user_prompt,
        output_schema="conceptual_insights",
        temperature=0.0,
        max_retries=max_retries,
        step_key=step_key(trajectory.episode, trajectory.days[-1].date, "conceptualize"),
        context={"aspect_vocabulary": ASPECTS},
    )
    parsed = gateway.complete(request).parsed
    ordered = [a for a in ASPECTS if a in parsed["insights"]]
    return [ConceptInsight(aspect=a, text=parsed["insights"][a]) for a in ordered]


def aspects_in_text(text: str) -> list[str]:
    """Aspect keys mentioned in a meta prompt (case-insensitive substring)."""
    lowered = text.lower()
    return [a for a in ASPECTS if a.lower() in lowered]


def compare_and_update(h_prev: "Trajectory", h_cur: "Trajectory", prompts: "PromptSet",
                       gateway: LlmGateway, analysts: dict[str, str],
                       min_run: int = 2, max_retries: int = 2,
                       insights_prev: tuple[ConceptInsight, ...] | None = None):
    """One over-episode belief update from two adjacent training episodes.

    Conceptualizes the current trajectory, and the previous one unless its
    insights are given (the previous update's ``insights_cur``, so each
    episode is conceptualized once), computes the action-overlap learning
    rate, and runs a single temperature-0 gateway call that both states the
    optimization direction (meta prompt) and rewrites the belief block with
    edit aggressiveness scaled by the overlap. Returns (BeliefUpdate,
    updated PromptSet). Tie on objectives prefers the current episode.
    """
    if not h_prev.days or not h_cur.days:
        raise IncompleteEpisode("both episodes must contain trading days")
    obj_prev, obj_cur = h_prev.objective, h_cur.objective
    k_prev, k_cur = h_prev.episode, h_cur.episode
    winner = k_cur if obj_cur >= obj_prev else k_prev
    analyst_roles = sorted(set(analysts.values()))
    if insights_prev is None:
        insights_prev = conceptualize(h_prev, analyst_roles, gateway, min_run=min_run,
                                      max_retries=max_retries)
    insights_cur = conceptualize(h_cur, analyst_roles, gateway, min_run=min_run,
                                 max_retries=max_retries)
    tau = overlap_percentage(h_prev.action_labels(), h_cur.action_labels())

    def fmt(insights):
        if not insights:
            return "(none)"
        return "\n".join(f"- {c.aspect}: {c.text}" for c in insights)

    current_beliefs = json.dumps(prompts.belief_block, sort_keys=True)
    user_prompt = (
        f"Episode {k_prev} objective value: {obj_prev!r}\n"
        f"Episode {k_cur} objective value: {obj_cur!r}\n"
        f"Higher-performing episode: {winner}\n\n"
        f"Conceptualized insights from episode {k_prev}:\n{fmt(insights_prev)}\n\n"
        f"Conceptualized insights from episode {k_cur}:\n{fmt(insights_cur)}\n\n"
        f"Action-overlap percentage between the two episodes: {tau!r}\n"
        f"Edit policy: {edit_instruction(tau)}\n\n"
        f"Current investment beliefs: {current_beliefs}\n\n"
        "Compare the two insight sets, explain why the better episode performed "
        "better (the meta prompt), and rewrite the investment beliefs. Respond "
        "with a JSON object {\"meta_prompt\": <direction>, \"beliefs\": "
        "{<aspect>: <belief>}} using only the known aspect keys."
    )
    request = CompletionRequest(
        role_tag=RISK_CONTROL_TAG,
        system_prompt="You are the risk-control component of a trading team. "
                      "You optimize the team's investment beliefs between episodes.",
        user_prompt=user_prompt,
        output_schema="belief_update",
        temperature=0.0,
        max_retries=max_retries,
        step_key=step_key(k_cur, h_cur.days[-1].date, "belief_update"),
        context={"aspect_vocabulary": ASPECTS},
    )
    parsed = gateway.complete(request).parsed
    meta_prompt = parsed["meta_prompt"]
    beliefs = parsed["beliefs"]
    touched = aspects_in_text(meta_prompt)
    target_agents = ["manager"] + sorted(
        aid for aid, role in analysts.items() if ASPECT_FOR_ROLE.get(role) in touched)
    update = BeliefUpdate(
        episode_pair=(k_prev, k_cur),
        winner=winner,
        insights_prev=tuple(insights_prev),
        insights_cur=tuple(insights_cur),
        meta_prompt=meta_prompt,
        learning_rate=tau,
        target_agents=tuple(target_agents),
        beliefs=dict(beliefs),
    )
    return update, prompts.with_belief_block(dict(beliefs))
