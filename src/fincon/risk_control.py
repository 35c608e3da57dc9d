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

import bisect
import itertools
import json
import math
import re
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .agents import ASPECTS, MANAGER, RISK_CONTROL, ROLES
from .errors import (
    AlphaOutOfRange,
    EmptyHistory,
    EmptySequence,
    IncompleteEpisode,
    LengthMismatch,
)
from .llm_gateway import CompletionRequest, LlmGateway, step_key

if TYPE_CHECKING:  # pragma: no cover
    from .backtest import Trajectory


# ---------------------------------------------------------------------------
# risk metrics and the within-episode trigger
# ---------------------------------------------------------------------------

def var_cvar(pnl_history, alpha: float) -> tuple[float, float]:
    """Empirical VaR and CVaR of a PnL sample at confidence level alpha.

    VaR is the lower empirical quantile, the smallest sample value whose
    cumulative probability reaches alpha; CVaR averages every value at or
    below it. The one definition: this checks and sorts the sample, and
    ``sorted_var_cvar`` takes both from the sorted values, so a caller that
    keeps its sample sorted as it grows (``bisect.insort``) gets the same
    bits without sorting again.
    """
    values = [float(x) for x in pnl_history]
    if not values:
        raise EmptyHistory("PnL history is empty")
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRange(f"alpha must be in (0,1), got {alpha}")
    values.sort()
    return sorted_var_cvar(values, alpha)


def sorted_var_cvar(values: list[float], alpha: float) -> tuple[float, float]:
    """``var_cvar`` of a non-empty ascending list of floats, alpha in (0, 1),
    neither checked.

    Integer fix-up keeps the quantile index faithful to the infimum
    definition despite float rounding in alpha * n. The tail is the prefix
    of values at or below VaR, found by binary search and summed left to
    right, so a small alpha reads few values.
    """
    n = len(values)
    k = max(1, math.ceil(alpha * n))
    while k > 1 and (k - 1) / n >= alpha:
        k -= 1
    while k < n and k / n < alpha:
        k += 1
    var = values[k - 1]
    m = bisect.bisect_right(values, var, k)
    return var, sum(itertools.islice(values, m)) / m


def cvar(pnl_history, alpha: float) -> float:
    """Mean of the PnL values at or below the empirical alpha-quantile."""
    return var_cvar(pnl_history, alpha)[1]


@dataclass(frozen=True)
class RiskState:
    cvar: float | None
    prev_cvar: float | None
    alert: bool
    history_len: int

    @classmethod
    def initial(cls) -> "RiskState":
        return cls(cvar=None, prev_cvar=None, alert=False, history_len=0)


def alert_trigger(state: RiskState, r_t: float, min_history: int = 10) -> str | None:
    """The daily trigger: ``cvar_drop`` when CVaR fell below the prior day's
    once ``history_len`` reaches ``min_history``, else ``negative_pnl`` when
    today's PnL is negative (r_t == 0 does not fire), else None."""
    if (state.history_len >= min_history and state.prev_cvar is not None
            and state.cvar is not None and state.cvar < state.prev_cvar):
        return "cvar_drop"
    return "negative_pnl" if r_t < 0 else None


def within_episode_check(state: RiskState, r_t: float, min_history: int = 10) -> RiskState:
    """``state`` alerting exactly when ``alert_trigger`` fires."""
    return replace(state, alert=alert_trigger(state, r_t, min_history) is not None)


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


def check_belief_block(block) -> None:
    """TypeError unless ``block`` maps aspects to belief texts; ValueError
    for a key outside the aspect vocabulary."""
    if not isinstance(block, dict):
        raise TypeError(f"belief block must be an object, got {block!r}")
    for aspect, text in block.items():
        if aspect not in ASPECTS:
            raise ValueError(f"belief_block key {aspect!r} not in the aspect vocabulary")
        if not isinstance(text, str):
            raise TypeError(f"belief for {aspect!r} must be a string, got {text!r}")


@dataclass(frozen=True)
class BeliefUpdate:
    episode_pair: tuple[int, int]
    winner: int
    insights_prev: tuple[ConceptInsight, ...]
    insights_cur: tuple[ConceptInsight, ...]
    meta_prompt: str
    learning_rate: float
    target_agents: tuple[str, ...]
    # the investment-belief block after this update, keyed by aspect
    beliefs: dict[str, str]

    def __post_init__(self):
        check_belief_block(self.beliefs)


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


def _ask(gateway: LlmGateway, log: list, key: str, task: str, user: str,
         schema: str, max_retries: int) -> dict:
    """One between-episode request: temperature 0, answered in the aspect
    vocabulary; its prompt-log record is appended to ``log``."""
    parsed, record = gateway.complete(CompletionRequest(
        role_tag=RISK_CONTROL,
        system_prompt=f"You are the risk-control component of a trading team. {task}",
        user_prompt=user,
        output_schema=schema,
        temperature=0.0,
        max_retries=max_retries,
        step_key=key,
        context={"aspect_vocabulary": ASPECTS},
    ))
    log.append(record)
    return parsed


def conceptualize(trajectory: "Trajectory", analyst_roles, gateway: LlmGateway,
                  min_run: int = 2, max_retries: int = 2, *,
                  log: list) -> list[ConceptInsight]:
    """Distill a trajectory's sustained winning/losing runs into per-aspect insights.

    Runs one temperature-0 gateway call, as every between-episode call does,
    its prompt-log record going to ``log``. Returns an empty list without
    calling the gateway when no run of at least ``min_run`` consecutive
    positive or negative days exists.
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
    parsed = _ask(gateway, log,
                  step_key(trajectory.episode, trajectory.days[-1].date, "conceptualize"),
                  "You attribute episode performance to information aspects.",
                  user_prompt, "conceptual_insights", max_retries)
    ordered = [a for a in ASPECTS if a in parsed["insights"]]
    return [ConceptInsight(aspect=a, text=parsed["insights"][a]) for a in ordered]


# each aspect as a whole phrase: no word character just before or after it
_ASPECT_PATTERNS = [(a, re.compile(rf"(?<!\w){re.escape(a)}(?!\w)", re.IGNORECASE))
                    for a in ASPECTS]


def aspects_in_text(text: str) -> list[str]:
    """Aspect keys mentioned in a meta prompt as whole phrases, ignoring case."""
    return [a for a, pattern in _ASPECT_PATTERNS if pattern.search(text)]


def compare_and_update(h_prev: "Trajectory", h_cur: "Trajectory", beliefs: dict[str, str],
                       gateway: LlmGateway, analysts: dict[str, str],
                       min_run: int = 2, max_retries: int = 2,
                       insights_prev: tuple[ConceptInsight, ...] | None = None, *,
                       log: list):
    """One over-episode belief update from two adjacent training episodes.

    Conceptualizes the current trajectory, and the previous one unless its
    insights are given (the previous update's ``insights_cur``, so each
    episode is conceptualized once), computes the action-overlap learning
    rate, and runs a single temperature-0 gateway call that both states the
    optimization direction (meta prompt) and rewrites the belief block
    ``beliefs`` with edit aggressiveness scaled by the overlap. Returns the
    BeliefUpdate, which holds the rewritten block. Tie on objectives prefers
    the current episode. Each call's prompt-log record goes to ``log``.
    """
    if not h_prev.days or not h_cur.days:
        raise IncompleteEpisode("both episodes must contain trading days")
    obj_prev, obj_cur = h_prev.objective, h_cur.objective
    k_prev, k_cur = h_prev.episode, h_cur.episode
    winner = k_cur if obj_cur >= obj_prev else k_prev
    analyst_roles = sorted(set(analysts.values()))
    if insights_prev is None:
        insights_prev = conceptualize(h_prev, analyst_roles, gateway, min_run=min_run,
                                      max_retries=max_retries, log=log)
    insights_cur = conceptualize(h_cur, analyst_roles, gateway, min_run=min_run,
                                 max_retries=max_retries, log=log)
    tau = overlap_percentage(h_prev.action_labels(), h_cur.action_labels())

    def fmt(insights):
        if not insights:
            return "(none)"
        return "\n".join(f"- {c.aspect}: {c.text}" for c in insights)

    current_beliefs = json.dumps(beliefs, sort_keys=True)
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
    parsed = _ask(gateway, log, step_key(k_cur, h_cur.days[-1].date, "belief_update"),
                  "You optimize the team's investment beliefs between episodes.",
                  user_prompt, "belief_update", max_retries)
    meta_prompt = parsed["meta_prompt"]
    touched = aspects_in_text(meta_prompt)
    target_agents = [MANAGER] + sorted(
        aid for aid, role in analysts.items() if ROLES[role].aspect in touched)
    return BeliefUpdate(
        episode_pair=(k_prev, k_cur),
        winner=winner,
        insights_prev=tuple(insights_prev),
        insights_cur=tuple(insights_cur),
        meta_prompt=meta_prompt,
        learning_rate=tau,
        target_agents=tuple(target_agents),
        beliefs=dict(parsed["beliefs"]),
    )
