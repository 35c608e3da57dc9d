"""Deterministic backtest harness around the manager-analyst hierarchy.

The daily loop: file the analyst steps (every instance reports) together
with the reflection the prior day's alert asked for, send the next day's
analyst requests, check the risk state carried from the prior day's close,
run the manager decision (risk-averse clause when alerting), solve
portfolio weights where applicable, realize PnL on the close-to-close
transition, recompute CVaR and the within-episode trigger, and send
feedback. Decisions for day t always use data dated at most t; PnL
realizes on the t -> t+1 transition.

Training (``train``) loops episodes over the training range and runs the
over-episode belief update after every episode from the second on, stopping
at the configured maximum or when the action overlap converges. Testing
(``test``) inherits the investment-belief block and memory from a training
run directory and runs a single pass with the within-episode control active
and the belief machinery disabled.

All run artifacts (config.used.json, trajectory JSONL, beliefs, prompts,
memory snapshot, report.json, metrics.csv) are written with canonical
serialization so identical invocations produce byte-identical directories.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import re
import statistics
import sys
from collections.abc import Callable
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field
from datetime import date as Date
from pathlib import Path

import numpy as np

from .agents import (
    MANAGER,
    NO_SIGNAL,
    RISK_CONTROL,
    ROLES,
    AgentProfile,
    AnalystSlice,
    Router,
    StepContext,
    analyst_request,
    analyst_step,
    build_profiles,
    manager_step,
    reflect_request,
    reflect_step,
    send_feedback,
)
from .data_ingest import (
    MarketData,
    assemble_observation,
    finite_number,
    jsonl_line,
    log_return,
    open_input,
    parse_date,
    read_json,
    read_jsonl_lines,
    read_jsonl_objects,
)
from .errors import (
    BadProfileText,
    ConfigError,
    EmptySeries,
    EmptyTrajectory,
    EpisodeAborted,
    FinconError,
    InsufficientData,
    InsufficientSamples,
    LengthMismatch,
    MissingTrainingArtifacts,
    MissingTrajectory,
    NonPositiveValue,
    SchemaError,
    TooFewPairs,
    ZeroVolatility,
)
from .llm_gateway import CompletionRequest, LlmGateway
from .memory import HashEmbedder, MemoryStore
from .portfolio import (
    check_weight_signs,
    scale_to_positions,
    shrink_estimates,
    single_stock_weights,
    solve_mean_variance,
)
from .risk_control import (
    RiskState,
    alert_trigger,
    check_belief_block,
    compare_and_update,
    convergence_check,
    cvar,  # noqa: F401  perfbench/spans.py traces the engine's imports by name
    sorted_var_cvar,
    var_cvar,
    within_episode_check,
)

TRADING_DAYS_PER_YEAR = 252


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Kind:
    """What a config value must be: ``text`` says it, in error messages and
    the README, and ``admits`` tests a value."""

    text: str
    admits: Callable[[object], bool]

    def __str__(self) -> str:
        return self.text


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_date(value) -> bool:
    if not isinstance(value, str):
        return False
    try:
        parse_date(value)
    except ValueError:
        return False
    return True


def _list_of(item: Callable[[object], bool], text: str) -> Kind:
    return Kind(text, lambda v: isinstance(v, list) and all(map(item, v)))


def _map_of(keys: tuple | None, value: Callable[[object], bool], text: str) -> Kind:
    """A JSON object whose keys are among ``keys`` (any key for None) and
    whose values ``value`` admits."""
    return Kind(text, lambda v: isinstance(v, dict) and all(
        (keys is None or k in keys) and value(x) for k, x in v.items()))


def _or_null(kind: Kind) -> Kind:
    """``kind``, or JSON null."""
    return Kind(f"{kind} or null", lambda v: v is None or kind.admits(v))


def Bound(kind: type, low: float = -math.inf, high: float = math.inf,
          low_open: bool = False, high_open: bool = False) -> Kind:
    """A finite number (an integer when ``kind`` is int) from ``low`` to
    ``high``, each end included unless it is open or infinite."""

    def admits(value) -> bool:
        if isinstance(value, bool) or not isinstance(value, (int, kind)):
            return False
        if isinstance(value, float) and not math.isfinite(value):
            return False
        above = low < value if low_open else low <= value
        below = value < high if high_open else value <= high
        return above and below

    left = "(" if low_open or low == -math.inf else "["
    right = ")" if high_open or high == math.inf else "]"
    text = "an integer" if kind is int else "a number"
    return Kind(f"{text} in {left}{low:g}, {high:g}{right}", admits)


BOOL = Kind("true or false", lambda v: isinstance(v, bool))
DATE = Kind("a date Y-M-D", _is_date)
ROLE_TEXTS = _map_of((MANAGER, *ROLES), _is_str,
                     "a map of manager or analyst roles to strings")
# the memory sources a decay ratio keys: each analyst role's source, and the
# manager's own events
DECAY_SOURCES = (*(role.source for role in ROLES.values()), MANAGER)

# the default of a key that must be given
REQUIRED = object()

# every key of the config document: dotted key -> (default, kind). Each
# default but REQUIRED is of its key's kind, so only given values are
# checked; a map merges onto its default.
CONFIG_SCHEMA = {
    "mode": ("train", Kind("train or test", lambda v: v in ("train", "test"))),
    "tickers": (REQUIRED, Kind("a non-empty list of distinct ticker strings",
                               lambda v: isinstance(v, list) and bool(v)
                               and all(map(_is_str, v)) and len(set(v)) == len(v))),
    "data.prices": ({}, _map_of(None, _is_str, "a map of tickers to path strings")),
    "data.documents": ([], _list_of(_is_str, "a list of path strings")),
    "dates.train_start": (REQUIRED, DATE),
    "dates.train_end": (REQUIRED, DATE),
    "dates.test_start": (REQUIRED, DATE),
    "dates.test_end": (REQUIRED, DATE),
    "seed": (None, _or_null(Kind("an integer",
                                 lambda v: isinstance(v, int) and not isinstance(v, bool)))),
    "data_ingest.momentum_window": (20, Bound(int, 1)),
    "memory.top_k": (5, Bound(int, 1)),
    "memory.default_importance": (0.5, Bound(float, 0, 1)),
    "memory.decay_ratios": (
        {"news": 0.90, "ecc_transcript": 0.97, "form10q": 0.97, "form10k": 0.99,
         "data": 0.90, "manager": 0.95},
        _map_of(DECAY_SOURCES, Bound(float, 0, 1, low_open=True, high_open=True).admits,
                f"a map of {', '.join(DECAY_SOURCES)} to numbers in (0, 1)")),
    "llm.temperature_decision": (0.3, Bound(float, 0)),
    "llm.max_retries": (2, Bound(int, 0)),
    "llm.min_interval": (0.0, Bound(float, 0)),
    "agents.analyst_roles": (
        list(ROLES),
        _list_of(lambda r: r in ROLES, f"a list drawn from {', '.join(ROLES)}")),
    # null: one thread per analyst instance plus one for the reflection; an
    # integer caps the pool
    "agents.workers": (None, _or_null(Bound(int, 1))),
    "agents.general_config": ("", Kind("a string", _is_str)),
    "agents.profile_texts": ({}, ROLE_TEXTS),
    "agents.profile_files": ({}, ROLE_TEXTS),
    "risk.cvar_alpha": (0.01, Bound(float, 0, 1, low_open=True, high_open=True)),
    "risk.min_cvar_history": (10, Bound(int, 0)),
    "risk.min_run_length": (2, Bound(int, 1)),
    "risk.convergence_tau": (0.8, Bound(float, 0, 1)),
    "risk.convergence_epsilon": (1e-6, Bound(float)),
    "portfolio.shrinkage_lambda": (0.3, Bound(float, 0, 1)),
    "portfolio.estimation_window": (60, Bound(int, 2)),
    "portfolio.min_news": (800, Bound(int, 0)),
    "portfolio.pool_size": (3, Bound(int, 1)),
    "backtest.discount_alpha": (1.0, Bound(float, 0, 1, low_open=True)),
    "backtest.max_episodes": (4, Bound(int, 1)),
    "backtest.capital": (100_000.0, Bound(float, 0, low_open=True)),
    "backtest.position_size": (1.0, Bound(float, 0, 1, low_open=True)),
    "backtest.risk_free_daily": (0.0, Bound(float)),
    "backtest.annualize_sharpe": (False, BOOL),
    "backtest.feedback_threshold_mult": (2.0, Bound(float, 0)),
    "backtest.feedback_window": (20, Bound(int, 2)),
    "backtest.train_run_dir": (None, _or_null(Kind("a path string", _is_str))),
    "backtest.resume": (False, BOOL),
}

# the per-module sections, each a RunConfig attribute
SECTIONS = ("data_ingest", "memory", "llm", "agents", "risk", "portfolio", "backtest")

# CONFIG_SCHEMA's rows by section ("" for top-level keys), so that the walk
# looks each section up once
_ROWS_BY_SECTION: dict[str, list] = {}
for _key, (_default, _kind) in CONFIG_SCHEMA.items():
    _section, _, _name = _key.rpartition(".")
    _ROWS_BY_SECTION.setdefault(_section, []).append((_key, _name, _default, _kind))


def _resolve(payload: object) -> dict:
    """The config document with every default filled in, as nested dicts.

    Walks CONFIG_SCHEMA once; ConfigError names the first key that is
    required but missing, whose given value its kind rejects, or that the
    schema does not have.
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"the config must be a JSON object, got {payload!r}")
    resolved: dict = {}
    for section, rows in _ROWS_BY_SECTION.items():
        given, into = payload, resolved
        if section:
            given = payload.get(section, {})
            if not isinstance(given, dict):
                raise ConfigError(f"{section} must be a JSON object, got {given!r}")
            into = resolved[section] = {}
        for key, name, default, kind in rows:
            value = given.get(name, default)
            if value is REQUIRED:
                raise ConfigError(f"{key} is required")
            if value is not default and not kind.admits(value):
                raise ConfigError(f"{key} must be {kind}, got {value!r}")
            # a list is copied, like a map, so that a change to the document
            # reaches neither the schema's default nor the payload
            if isinstance(value, list):
                value = list(value)
            into[name] = {**default, **value} if isinstance(default, dict) else value
    for name, given in payload.items():
        if name in CONFIG_SCHEMA:
            continue
        if name not in resolved:
            raise ConfigError(f"unknown key {name}")
        for key in given:
            if key not in resolved[name]:
                raise ConfigError(f"unknown key {name}.{key}")
    return resolved


def read_config_payload(path: str | Path) -> dict:
    """The JSON document in a config file; ConfigError if missing, SchemaError
    if not JSON."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return read_json(path)


@dataclass
class RunConfig:
    """One run's full, resolved configuration: ``doc``, the single JSON
    document that config.used.json records (``agents.workers`` aside), and
    typed views of its keys.
    Each section attribute is ``doc``'s own section dict."""

    doc: dict
    tickers: list[str]
    price_paths: dict[str, str]
    document_paths: list[str]
    train_start: Date
    train_end: Date
    test_start: Date
    test_end: Date
    data_ingest: dict
    memory: dict
    llm: dict
    agents: dict
    risk: dict
    portfolio: dict
    backtest: dict
    seed: int | None = None
    # the config file's directory: relative paths resolve against it
    base_dir: Path = Path(".")
    # the manager's and every analyst instance's profile, by agent id
    profiles: dict[str, AgentProfile] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, payload: dict, base_dir: str | Path = ".") -> "RunConfig":
        """The config ``payload`` resolved by the schema, plus the checks that
        span several keys: a price file per ticker, the date order, and each
        profile file and text, which the agent profiles are built from."""
        base = Path(base_dir)
        doc = _resolve(payload)
        tickers = doc["tickers"]
        prices = {t: str(base / p) for t, p in doc["data"]["prices"].items()}
        for t in tickers:
            if t not in prices:
                raise ConfigError(f"data.prices missing ticker {t}")
        # MarketData.load takes the trading calendar from the first price file
        prices = {tickers[0]: prices.pop(tickers[0]), **prices}
        dates = {key: parse_date(text) for key, text in doc["dates"].items()}
        if not dates["train_start"] <= dates["train_end"]:
            raise ConfigError("train_start must not exceed train_end")
        if not dates["test_start"] <= dates["test_end"]:
            raise ConfigError("test_start must not exceed test_end")
        if not dates["train_end"] < dates["test_start"]:
            raise ConfigError("the training range must precede the test range")
        doc["dates"] = {key: day.isoformat() for key, day in dates.items()}
        if doc["seed"] is None:
            del doc["seed"]
        # profile texts may live in referenced plain-text files
        agents = doc["agents"]
        texts = agents["profile_texts"]
        for role, rel in agents["profile_files"].items():
            file_path = base / rel
            try:
                with open_input(file_path) as fh:
                    texts[role] = fh.read()
            except FileNotFoundError:
                raise ConfigError(f"agents.profile_files[{role}]: {file_path} not found") from None
            except SchemaError as exc:
                raise ConfigError(f"agents.profile_files[{role}]: {exc}") from None
        general = agents["general_config"] or (
            f"Investment task: {'portfolio management' if len(tickers) > 1 else 'single stock trading'} "
            f"on {', '.join(tickers)}. Objective: maximize cumulative discounted PnL "
            f"while controlling downside risk."
        )
        try:
            profiles = build_profiles(tickers, agents["analyst_roles"], general,
                                      doc["memory"]["decay_ratios"], texts)
        except BadProfileText as exc:
            source = "files" if exc.role in agents["profile_files"] else "texts"
            raise ConfigError(f"agents.profile_{source}[{exc.role}]: {exc}") from None
        return cls(
            doc=doc, tickers=tickers, price_paths=prices,
            document_paths=[str(base / p) for p in doc["data"]["documents"]],
            **dates, seed=doc.get("seed"), base_dir=base, profiles=profiles,
            **{name: doc[name] for name in SECTIONS},
        )

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        return cls.from_dict(read_config_payload(path), base_dir=path.parent)


# ---------------------------------------------------------------------------
# performance metrics
# ---------------------------------------------------------------------------

def daily_pnl(action: float, price_t: float, price_next: float) -> float:
    """One day's PnL for a signed position: action * ln(p_next / p_t)."""
    return action * log_return(price_t, price_next)


def cumulative_return(pnls) -> float:
    """Sum of daily log returns, in percent."""
    values = list(pnls)
    if not values:
        raise EmptyTrajectory("no PnL records")
    return 100.0 * math.fsum(values)


def sample_stdev(values) -> float:
    """Sample (n-1) standard deviation of two or more finite floats,
    correctly rounded: the square root of their exact variance, rounded once.

    ``statistics.stdev`` gives the same value from Python 3.11 on, at several
    times the cost; 3.10 rounds twice and can differ in the last bit. Each
    value is an integer over a power of two, so scaled by the largest of
    those powers all are integers, and the variance is a ratio of integers.
    """
    ratios = [x.as_integer_ratio() for x in map(float, values)]
    n = len(ratios)
    if n < 2:
        raise ValueError(f"need at least 2 values, got {n}")
    scale = max(d for _, d in ratios).bit_length() - 1  # every x * 2**scale is an integer
    ints = [num << (scale - d.bit_length() + 1) for num, d in ratios]
    total = sum(ints)
    # sum((x - mean)**2) / (n - 1) = (n * sum(x**2) - sum(x)**2) / (n * (n - 1))
    return _sqrt_of_ratio(n * sum(i * i for i in ints) - total * total,
                          n * (n - 1) << 2 * scale)


# bits of the integer square root taken before the one rounding to a float:
# two more than twice the float's precision, as ``statistics`` uses
_SQRT_BITS = 2 * sys.float_info.mant_dig + 3


def _sqrt_of_ratio(n: int, m: int) -> float:
    """sqrt(n / m) as the correctly rounded float, for n >= 0 and m > 0.

    The root is taken in integers to ``_SQRT_BITS`` bits, its last bit set
    when it is inexact (round to odd), so the one rounding to a float
    cannot land on a false tie.
    """
    q = (n.bit_length() - m.bit_length() - _SQRT_BITS) // 2
    if q >= 0:
        m <<= 2 * q
    else:
        n <<= -2 * q
    root = math.isqrt(n // m)
    root |= root * root * m != n
    return float(root << q) if q >= 0 else root / (1 << -q)


def sharpe_ratio(pnls, risk_free_daily: float = 0.0, annualize: bool = False) -> float:
    """Mean excess PnL over its sample (n-1) standard deviation."""
    values = [float(x) for x in pnls]
    if len(values) < 2:
        raise InsufficientData(f"need at least 2 days, got {len(values)}")
    std = sample_stdev(values)
    if std == 0.0:
        raise ZeroVolatility("PnL standard deviation is zero")
    ratio = (statistics.fmean(values) - risk_free_daily) / std
    if annualize:
        ratio *= math.sqrt(TRADING_DAYS_PER_YEAR)
    return ratio


def max_drawdown(values) -> float:
    """Largest running-peak-to-value decline of a positive series, in percent."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise EmptySeries("no values")
    if np.any(arr <= 0):
        raise NonPositiveValue("drawdown needs positive values")
    peaks = np.maximum.accumulate(arr)
    return 100.0 * float(np.max((peaks - arr) / peaks))


def objective_value(pnls, alpha: float) -> float:
    """Discounted PnL sum: sum over t of alpha**t * r_t, t zero-based."""
    return math.fsum(alpha**t * r for t, r in enumerate(pnls))


def equity_curve(pnls, capital: float) -> list[float]:
    """Capital compounded through exp(r_t) each day."""
    out = []
    level = capital
    for r in pnls:
        level *= math.exp(r)
        out.append(level)
    return out


def rolling_sigma_threshold(pnls: list[float], window: int = 20,
                            mult: float = 2.0) -> float | None:
    """Feedback significance bar: mult x rolling std of the last ``window``
    PnL values of the chronological list ``pnls``, of which only that window
    is copied.

    None (no feedback possible) until two PnL points exist or while the
    rolling standard deviation is zero.
    """
    recent = pnls[-window:]
    if len(recent) < 2:
        return None
    std = sample_stdev(recent)
    if std == 0.0:
        return None
    return mult * std


@dataclass(frozen=True)
class MetricsReport:
    cr_pct: float
    sharpe: float | None
    mdd_pct: float
    var: float
    cvar: float
    alpha: float
    days: int
    objective: float
    # the run-directory file holding the per-day series
    pnl_series: str = "metrics.csv"


def build_report(pnls, capital: float, cvar_alpha: float, risk_free_daily: float,
                 annualize: bool, discount_alpha: float) -> MetricsReport:
    """Compute every report metric from the PnL series alone."""
    values = list(pnls)
    if not values:
        raise EmptyTrajectory("no PnL records")
    try:
        sharpe = sharpe_ratio(values, risk_free_daily, annualize)
    except (ZeroVolatility, InsufficientData):
        sharpe = None
    var_value, cvar_value = var_cvar(values, cvar_alpha)
    return MetricsReport(
        cr_pct=cumulative_return(values),
        sharpe=sharpe,
        mdd_pct=max_drawdown(equity_curve(values, capital)),
        var=var_value,
        cvar=cvar_value,
        alpha=cvar_alpha,
        days=len(values),
        objective=objective_value(values, discount_alpha),
    )


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank test
# ---------------------------------------------------------------------------

def signed_rank_sums(a, b) -> tuple[float, float, list[float]]:
    """(W+, W-, tied-rank sizes) after dropping zero differences."""
    a = list(a)
    b = list(b)
    if len(a) != len(b):
        raise LengthMismatch(f"paired series lengths differ: {len(a)} vs {len(b)}")
    diffs = [x - y for x, y in zip(a, b) if x != y]
    n = len(diffs)
    if n < 6:
        raise TooFewPairs(f"need at least 6 nonzero differences, got {n}")
    order = sorted(range(n), key=lambda i: abs(diffs[i]))
    ranks = [0.0] * n
    tie_sizes: list[float] = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(diffs[order[j + 1]]) == abs(diffs[order[i]]):
            j += 1
        avg_rank = (i + j + 2) / 2.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg_rank
        tie_sizes.append(float(j - i + 1))
        i = j + 1
    w_plus = sum(r for d, r in zip(diffs, ranks) if d > 0)
    w_minus = sum(r for d, r in zip(diffs, ranks) if d < 0)
    return w_plus, w_minus, tie_sizes


def _exact_signed_rank_cdf(w: int, n: int) -> float:
    """P(W <= w) under the null, by subset-sum counting over ranks 1..n."""
    total = n * (n + 1) // 2
    counts = [0] * (total + 1)
    counts[0] = 1
    for rank in range(1, n + 1):
        for s in range(total, rank - 1, -1):
            counts[s] += counts[s - rank]
    return sum(counts[: w + 1]) / 2.0**n


def wilcoxon_signed_rank(a, b) -> tuple[float, float]:
    """Two-sided Wilcoxon signed-rank test on paired series.

    Zero differences are dropped; at least six must remain. The statistic is
    the smaller of the positive and negative rank sums. The p-value uses the
    exact null distribution for n <= 25 without ties, and a tie-corrected
    normal approximation with continuity correction otherwise.
    """
    w_plus, w_minus, tie_sizes = signed_rank_sums(a, b)
    n = int(sum(tie_sizes))
    w = min(w_plus, w_minus)
    has_ties = any(t > 1 for t in tie_sizes)
    if n <= 25 and not has_ties:
        p = min(1.0, 2.0 * _exact_signed_rank_cdf(int(round(w)), n))
        return w, p
    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    variance -= sum(t**3 - t for t in tie_sizes) / 48.0
    if variance <= 0:
        raise InsufficientData("zero variance in signed ranks")
    z = (w - mean + 0.5) / math.sqrt(variance)
    p = min(1.0, 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0)))
    return w, p


# ---------------------------------------------------------------------------
# trajectory records
# ---------------------------------------------------------------------------

@dataclass
class DayRecord:
    date: Date
    directions: dict[str, str]
    weights: dict[str, float]
    target_shares: dict[str, float]
    pnl: float
    cvar: float
    alert: bool
    trigger: str | None
    reflections: list[dict]
    reasoning: str
    insights: dict[str, str]
    cited_memory_ids: list[str]

    def to_record(self) -> dict:
        # vars, not asdict: the record is dumped at once, and asdict's deep
        # copy of every value cost ~70 us a record (2-vCPU x86 host)
        return {**vars(self), "date": self.date.isoformat()}

    @classmethod
    def from_record(cls, rec: dict) -> "DayRecord":
        """The day a trajectory record holds; KeyError, TypeError or
        ValueError when the record does not describe one."""
        day = cls(**{**rec, "date": parse_date(rec["date"])})
        for name in ("pnl", "cvar"):
            finite_number(name, getattr(day, name))
        if not isinstance(day.alert, bool):
            raise TypeError(f"alert must be true or false, got {day.alert!r}")
        return day


@dataclass
class Trajectory:
    episode: object
    days: list[DayRecord]
    objective: float = 0.0

    def pnls(self) -> list[float]:
        return [d.pnl for d in self.days]

    def action_labels(self) -> list[str]:
        """Direction labels flattened per (date, ticker) for overlap comparison."""
        labels = []
        for day in self.days:
            for ticker in sorted(day.directions):
                labels.append(day.directions[ticker])
        return labels


# ---------------------------------------------------------------------------
# run directory
# ---------------------------------------------------------------------------

def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _dump_jsonl(records) -> str:
    return "".join(map(jsonl_line, records))


def _write_atomic(path: Path, text: str) -> None:
    """``path`` holds ``text`` or what it held before, never a part: the text
    goes to a temporary file beside it, which then replaces it."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


class RunWriter:
    """The one owner of the run-directory layout: writes every artifact with
    canonical serialization and reads back, beside each writer, what resume,
    the test stage and ``report`` need. Opening a directory creates nothing."""

    # what a run writes for each episode tag (an episode number, or "test"),
    # and what it writes once, at its end
    EPISODE_FILES = ("trajectory_{}.jsonl", "trajectory_{}.FAILED.jsonl",
                     "beliefs/episode_{}.json", "prompts/assembled_{}.jsonl")
    FINAL_FILES = ("prompts/final/prompt_set.json", "memory/snapshot.jsonl", "report.json",
                   "metrics.csv", "train_summary.json", "test_summary.json")
    # the checkpoints runs wrote before resume replayed the prompt logs
    STATE_FILES = ("state/checkpoint_{}.json", "state/memory_{}.jsonl")
    # a prompt-log record's fields (``LlmGateway.complete``); older logs lack the first
    LOG_FIELDS = ("response", "agent_id", "step_key", "system", "user")

    def __init__(self, run_dir: str | Path):
        self.run_dir = Path(run_dir)

    def clear_outputs(self, keep: int = 0) -> None:
        """Remove the episode and final-output files an earlier run left, and
        the ``.tmp`` files a cut-short ``_write_atomic`` left beside them, but
        those of episodes 1 to ``keep``; every ``STATE_FILES`` file, and then
        ``state/`` once it is empty; and no other file."""
        if not self.run_dir.is_dir():
            return
        for pattern in self.EPISODE_FILES + self.STATE_FILES:
            head, tail = pattern.split("{}")
            name = re.compile(f"{re.escape(head)}([1-9][0-9]*|test){re.escape(tail)}(\\.tmp)?")
            for path in self.run_dir.glob(pattern.format("*") + "*"):
                match = name.fullmatch(path.relative_to(self.run_dir).as_posix())
                if match and (match[2] or not match[1].isdigit() or int(match[1]) > keep
                              or pattern in self.STATE_FILES):
                    path.unlink()
        for name in self.FINAL_FILES:
            (self.run_dir / name).unlink(missing_ok=True)
        state = self.run_dir / "state"
        if state.is_dir() and not any(state.iterdir()):
            state.rmdir()

    def path(self, *parts) -> Path:
        """A file to write, its directory created (ConfigError if it cannot be)."""
        p = self.run_dir.joinpath(*parts)
        try:
            p.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create directory {p.parent}: {exc.strerror}") from None
        return p

    def write_config(self, config: RunConfig) -> None:
        """The resolved config document without ``agents.workers``: the pool
        size changes no output, so the run directory does not record it."""
        doc = dict(config.doc)
        doc["agents"] = {k: v for k, v in doc["agents"].items() if k != "workers"}
        self.path("config.used.json").write_text(_dump_json(doc))

    def write_trajectory(self, tag: object, trajectory: Trajectory) -> None:
        """The completed episode's trajectory, whole or not at all; removes the
        FAILED artifact an earlier, aborted attempt at the episode left."""
        _write_atomic(self.path(f"trajectory_{tag}.jsonl"),
                      _dump_jsonl(d.to_record() for d in trajectory.days))
        (self.run_dir / f"trajectory_{tag}.FAILED.jsonl").unlink(missing_ok=True)

    def read_trajectory(self, tag: object, discount_alpha: float) -> Trajectory:
        """Its objective discounted by ``discount_alpha``; SchemaError(row, None)
        names a line that is not JSON or not a day record."""
        path = self.run_dir / f"trajectory_{tag}.jsonl"
        days = []
        for row_no, _, rec in read_jsonl_lines(path):
            try:
                days.append(DayRecord.from_record(rec))
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError.not_a(path, "day record", exc, row_no) from None
        return Trajectory(tag, days, objective_value([d.pnl for d in days], discount_alpha))

    def write_failed(self, tag: object, days: list[DayRecord], error: str) -> None:
        records = [d.to_record() for d in days] + [{"FAILED": error}]
        self.path(f"trajectory_{tag}.FAILED.jsonl").write_text(_dump_jsonl(records))

    def write_belief(self, episode: int, update) -> None:
        self.path("beliefs", f"episode_{episode}.json").write_text(_dump_json(asdict(update)))

    def write_prompt_set(self, beliefs: dict[str, str]) -> None:
        """The final belief block, which the test stage inherits."""
        self.path("prompts", "final", "prompt_set.json").write_text(
            _dump_json({"belief_block": beliefs}))

    def read_belief_block(self) -> dict[str, str]:
        """What a test stage inherits first: MissingTrainingArtifacts unless the
        memory snapshot exists too; other prompt-set fields are ignored."""
        path = self.run_dir / "prompts" / "final" / "prompt_set.json"
        if not path.exists() or not (self.run_dir / "memory" / "snapshot.jsonl").exists():
            raise MissingTrainingArtifacts(
                f"missing training artifacts under {self.run_dir} "
                "(expected prompts/final/prompt_set.json and memory/snapshot.jsonl)")
        payload = read_json(path)
        try:
            check_belief_block(payload["belief_block"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError.not_a(path, "prompt set", exc) from None
        return payload["belief_block"]

    def write_prompt_log(self, tag: object, records: list[dict]) -> None:
        """The episode's request records (``LlmGateway.complete``) in order,
        whole or not at all, however it ended: resume replays their replies."""
        _write_atomic(self.path("prompts", f"assembled_{tag}.jsonl"), _dump_jsonl(records))

    def read_prompt_logs(self) -> dict[tuple[str, str], tuple[str, str, str]]:
        """The training episodes' prompt logs as ``LlmGateway`` answers;
        SchemaError(row, field) names the log and row of a record that is not
        an object of string fields, such as one written before records held
        the reply."""
        answers = {}
        for path in self.run_dir.glob("prompts/assembled_*.jsonl"):
            if re.fullmatch("assembled_[1-9][0-9]*", path.stem):
                for _, rec in read_jsonl_objects(path, self.LOG_FIELDS):
                    answers[rec["agent_id"], rec["step_key"]] = (
                        rec["system"], rec["user"], rec["response"])
        return answers

    def write_memory(self, store: MemoryStore) -> None:
        store.save_jsonl(self.path("memory", "snapshot.jsonl"))

    def read_memory(self, calendar: tuple[Date, ...]) -> MemoryStore:
        return MemoryStore.load_jsonl(self.run_dir / "memory" / "snapshot.jsonl",
                                      calendar=calendar)

    def write_report(self, report: MetricsReport) -> None:
        self.path("report.json").write_text(_dump_json(asdict(report)))

    def write_metrics_csv(self, days: list[DayRecord], capital: float) -> None:
        equity = equity_curve([d.pnl for d in days], capital)
        lines = ["date,pnl,equity,cvar,alert"]
        for day, eq in zip(days, equity):
            lines.append(f"{day.date.isoformat()},{day.pnl!r},{eq!r},{day.cvar!r},"
                         f"{int(day.alert)}")
        self.path("metrics.csv").write_text("\n".join(lines) + "\n")

    def write_summary(self, name: str, payload: dict) -> None:
        self.path(name).write_text(_dump_json(payload))

    def report_tag(self, cap: int) -> object:
        """What ``report`` reads: the test trajectory, else the last of the
        completed episodes 1, 2, ... (to ``cap``), each a written trajectory."""
        if (self.run_dir / "trajectory_test.jsonl").exists():
            return "test"
        k = 0
        while k < cap and (self.run_dir / f"trajectory_{k + 1}.jsonl").exists():
            k += 1
        if not k:
            raise MissingTrajectory(f"no test trajectory or completed episode in {self.run_dir}")
        return k


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

# a request, and the pool's call for its reply (None: asked for as it is filed)
Sent = tuple[CompletionRequest, Future | None]


class BacktestEngine:
    """Drives episodes over a loaded market with one gateway and one store.

    Each day files one batch of model replies: the manager's reflection on
    the previous day's alert, if there was one, then the analysts with input
    in agent-id order. The engine's thread builds every request and records
    every reply in batch order, the reflection and the alert day's record
    first, so every output keeps the order of a run that asks each call as
    it is filed. A day's analyst requests are built and sent right after
    the day before's analysts are filed, so they wait on the model while
    that day's decision does. That day's feedback is the one write to an
    analyst's memory in between: after feedback, each request is built
    again, and one that differs from the request sent is sent again, the
    stale call's reply or failure dropped unread. A reflection is sent when
    its alert day ends, so it waits beside the next day's analysts; a
    last-day reflection is asked on the engine's thread after the loop.

    An early call that waits on a model (``LlmGateway.waits``) goes to the
    episode's thread pool as soon as its request is built; the pool is shut
    down when the episode returns or fails. It has one thread per analyst
    instance plus one for the reflection, unless an integer
    ``agents.workers`` caps it; the engine's own calls can wait beside it,
    so up to its width plus one calls are in flight. Every other call is
    asked for on the engine's thread as it is filed, so a mock run starts
    no pool thread and makes no call that is dropped.

    No day's risk figure sorts a whole history again. The day's CVaR comes
    from the episode's PnL, kept sorted as it grows beside the chronological
    list, and each data analyst's asset CVaR from its ticker's returns,
    inserted once per stage (``_asset_cvar``); ``sorted_var_cvar`` reads
    both, so the bits are ``var_cvar``'s.
    """

    def __init__(self, config: RunConfig, market: MarketData, gateway: LlmGateway,
                 store: MemoryStore, writer: RunWriter):
        self.config = config
        self.market = market
        self.gateway = gateway
        self.store = store
        self.writer = writer
        self.embedder = HashEmbedder()
        # the stage's memory-query vectors by query text, shared by its episodes
        self.query_vectors: dict[str, np.ndarray] = {}
        self.manager = config.profiles[MANAGER]
        # the analyst instances' profiles by agent id, in fan-out order
        self.analysts = {aid: p for aid, p in sorted(config.profiles.items())
                         if aid != MANAGER}
        self.router = Router(self.analysts)
        # per data-analyst ticker: its returns through the last bar asked
        # for, sorted, and the CVaR by bar position (None at bar 0)
        self._asset_cvars: dict[str, tuple[list[float], dict[int, float | None]]] = {}

    # -- helpers ------------------------------------------------------------

    def _decision_days(self, start: Date, end: Date) -> list[Date]:
        days = [d for d in self.market.calendar if start <= d <= end]
        if not days:
            raise ConfigError(f"no trading days between {start} and {end}")
        if self.market.trading_day_after(days[-1]) is None:
            raise ConfigError(
                f"price files must extend at least one bar beyond {days[-1]} "
                "to realize the final day's PnL")
        return days

    def _asset_cvar(self, ticker: str, date: Date) -> float | None:
        """CVaR of ``ticker``'s log returns through its bar at or before
        ``date``, as ``cvar`` of ``MarketData.log_returns_to`` gives it; None
        before the ticker's second bar.

        Each return is inserted once per stage into the ticker's sorted list,
        in bar order, and the CVaR is kept by bar position, so the stage's
        later episodes read it back. A date earlier than the bars inserted so
        far, and not asked for before, starts the list over.
        """
        series = self.market.series[ticker]
        pos = series.index_at_or_before(date)
        ordered, cvars = self._asset_cvars.setdefault(ticker, ([], {0: None}))
        if pos not in cvars:
            if pos < len(ordered):
                ordered.clear()
            for r in series.log_returns[len(ordered):pos].tolist():
                bisect.insort(ordered, r)
            cvars[pos] = sorted_var_cvar(ordered, self.config.risk["cvar_alpha"])[1]
        return cvars[pos]

    def _analyst_slice(self, source: str, ticker: str, obs, date: Date) -> AnalystSlice:
        ticker_slice = obs[ticker]
        if source == "data":
            indicators = dict(ticker_slice.indicators)
            asset_cvar = self._asset_cvar(ticker, date)
            if asset_cvar is not None:
                indicators["cvar"] = asset_cvar
            bar = ticker_slice.bar
            price_line = (f"close={bar.close!r} adj_close={bar.adj_close!r} "
                          f"volume={bar.volume}")
            return AnalystSlice(ticker=ticker, indicators=indicators, price_line=price_line)
        docs = tuple(d for d in ticker_slice.documents if d.kind == source)
        return AnalystSlice(ticker=ticker, documents=docs)

    def _solve_weights(self, directions: dict[str, str], date: Date) -> dict[str, float]:
        cfg = self.config
        if len(cfg.tickers) == 1:
            return single_stock_weights(directions, cfg.backtest["position_size"])
        window = cfg.portfolio["estimation_window"]
        histories = {t: self.market.log_returns_to(t, date, max_window=window)
                     for t in cfg.tickers}
        t_len = min(len(h) for h in histories.values())
        if t_len < 2:
            raise InsufficientSamples(
                f"need at least 2 aligned daily returns before {date}; "
                "provide warmup bars before the simulation range")
        matrix = np.column_stack([histories[t][-t_len:] for t in cfg.tickers])
        mu, sigma = shrink_estimates(matrix, cfg.portfolio["shrinkage_lambda"])
        w = solve_mean_variance(mu, sigma, [directions[t] for t in cfg.tickers])
        return {t: float(w[i]) for i, t in enumerate(cfg.tickers)}

    # -- episode loop ---------------------------------------------------------

    def run_episode(self, beliefs: dict[str, str], episode: object,
                    start: Date, end: Date, log: list[dict]) -> Trajectory:
        """One pass over [start, end] under the belief block ``beliefs``;
        writes the episode's trajectory and returns it, and appends each
        reply's prompt-log record to ``log`` as it is filed. The stage
        writes ``log``, however the episode ends.

        A gateway failure aborts the episode: the partial trajectory is
        written as a FAILED artifact, and EpisodeAborted propagates.
        """
        cfg = self.config
        days = self._decision_days(start, end)
        ctx = StepContext(
            store=self.store,
            gateway=self.gateway,
            embedder=self.embedder,
            episode=episode,
            top_k=cfg.memory["top_k"],
            temperature=cfg.llm["temperature_decision"],
            max_retries=cfg.llm["max_retries"],
            default_importance=cfg.memory["default_importance"],
            query_vectors=self.query_vectors,
        )
        records: list[DayRecord] = []
        try:
            # one thread per analyst instance plus one for the previous
            # day's reflection, so that no call of a batch but one sent
            # again after feedback waits for a thread; threads start only
            # for calls that find none idle
            workers = cfg.agents["workers"] or len(self.analysts) + 1
            with ThreadPoolExecutor(max_workers=workers) as pool:
                self._run_days(beliefs, ctx, days, records, log, pool)
        except FinconError as exc:
            self.writer.write_failed(episode, records, f"{type(exc).__name__}: {exc}")
            raise EpisodeAborted(episode, exc) from exc
        trajectory = Trajectory(episode=episode, days=records)
        trajectory.objective = objective_value(trajectory.pnls(),
                                               cfg.backtest["discount_alpha"])
        self.writer.write_trajectory(episode, trajectory)
        return trajectory

    def _run_days(self, beliefs: dict[str, str], ctx: StepContext, days: list[Date],
                  records: list[DayRecord], log: list[dict],
                  pool: ThreadPoolExecutor) -> None:
        cfg = self.config
        risk_state = RiskState.initial()
        pnl_history: list[float] = []
        # the same values kept sorted as they come, for the day's CVaR
        pnl_sorted: list[float] = []
        prev_rho: float | None = None
        # an alert day's record and its sent reflection, filed with the next day's batch
        alerted: tuple[DayRecord, Sent] | None = None
        # the pool's calls for requests that feedback changed, dropped unread
        stale: list[Future] = []

        def send(request: CompletionRequest) -> Sent:
            """The request and the pool's call for its reply; no call when
            the reply does not wait on a model (``LlmGateway.waits``): it is
            asked for on this thread as it is filed."""
            if ctx.gateway.waits(request):
                return request, pool.submit(ctx.gateway.complete, request)
            return request, None

        def reply(sent: Sent) -> tuple[dict, dict]:
            request, call = sent
            return ctx.gateway.complete(request) if call is None else call.result()

        def analyst_requests(day: Date, slices: dict[str, AnalystSlice]):
            """The requests of the analysts with input, in agent-id order, each
            built when the iteration reaches it."""
            return ((aid, analyst_request(p, beliefs.get(ROLES[p.role].aspect), slices[aid],
                                          day, ctx))
                    for aid, p in self.analysts.items() if slices[aid].calls_model)

        def batch(day: Date) -> tuple[dict[str, AnalystSlice], dict[str, Sent]]:
            """The day's analyst slices, and each request sent as soon as it is built."""
            obs = assemble_observation(day, cfg.tickers, self.market)
            slices = {aid: self._analyst_slice(ROLES[p.role].source, p.ticker, obs, day)
                      for aid, p in self.analysts.items()}
            return slices, {aid: send(request) for aid, request in analyst_requests(day, slices)}

        def file_reflection(record: DayRecord, answer: tuple[dict, dict]) -> None:
            text, entry = reflect_step(self.manager, record.trigger, record.date, ctx, answer)
            record.reflections.append({"trigger": record.trigger, "text": text})
            log.append(entry)
            records.append(record)

        slices, sent = batch(days[0])
        for day, tomorrow in zip(days, [*days[1:], None]):
            # the day's batch is filed in order: the previous day's
            # reflection, if any, then the analysts with input
            if alerted is not None:
                file_reflection(alerted[0], reply(alerted[1]))
                alerted = None
            insights = {}
            for aid, obs_slice in slices.items():
                answer = reply(sent[aid]) if aid in sent else None
                insights[aid], entry = analyst_step(self.analysts[aid], obs_slice, day, ctx,
                                                    answer)
                if answer:
                    log.append(entry)
                self.router.send(aid, MANAGER, "insight")
            # a dropped call still ends within the day it was sent for
            wait(stale)
            stale.clear()

            # tomorrow's analysts wait on the model while today's decision does
            if tomorrow is not None:
                slices, sent = batch(tomorrow)
            decision, entry = manager_step(self.manager, beliefs, insights, risk_state, day,
                                           ctx, cfg.tickers, self.analysts)
            log.append(entry)
            self.router.send(MANAGER, RISK_CONTROL, "decision")

            weights = self._solve_weights(decision.directions, day)
            check_weight_signs(decision.directions, weights)
            closes = [self.market.close(t, day) for t in cfg.tickers]
            shares = scale_to_positions(
                np.array([weights[t] for t in cfg.tickers]), cfg.backtest["capital"], closes)

            next_day = self.market.trading_day_after(day)
            r_t = math.fsum(
                daily_pnl(weights[t], close, self.market.close(t, next_day))
                for t, close in zip(cfg.tickers, closes))
            pnl_history.append(r_t)
            bisect.insort(pnl_sorted, r_t)
            rho_t = sorted_var_cvar(pnl_sorted, cfg.risk["cvar_alpha"])[1]
            provisional = RiskState(cvar=rho_t, prev_cvar=prev_rho,
                                    alert=False, history_len=len(pnl_history))
            trigger = alert_trigger(provisional, r_t, cfg.risk["min_cvar_history"])
            checked = within_episode_check(provisional, r_t, cfg.risk["min_cvar_history"])

            threshold = rolling_sigma_threshold(
                pnl_history, cfg.backtest["feedback_window"],
                cfg.backtest["feedback_threshold_mult"])
            reporting = [self.analysts[aid] for aid, m in insights.items()
                         if m.distilled_insight != NO_SIGNAL]
            fed_back = send_feedback(decision, r_t, threshold, reporting, insights, day, ctx,
                                     self.router)
            if fed_back and tomorrow is not None:
                # feedback is the one write to an analyst's memory between
                # its requests' build and their filing: a request it changed
                # is sent again
                for aid, request in analyst_requests(tomorrow, slices):
                    if request != sent[aid][0]:
                        if sent[aid][1] is not None:
                            stale.append(sent[aid][1])
                        sent[aid] = send(request)

            record = DayRecord(
                date=day,
                directions=dict(decision.directions),
                weights=weights,
                target_shares={t: float(shares[i]) for i, t in enumerate(cfg.tickers)},
                pnl=r_t,
                cvar=rho_t,
                alert=checked.alert,
                trigger=trigger,
                reflections=[],
                reasoning=decision.reasoning,
                insights={aid: m.distilled_insight for aid, m in insights.items()},
                cited_memory_ids=list(decision.cited_memory_ids),
            )
            if checked.alert:
                day_summary = (f"PnL {r_t!r}, CVaR {rho_t!r} "
                               f"(previous {prev_rho!r}), trigger {trigger}.")
                request = reflect_request(self.manager, trigger, day_summary, day, ctx)
                # the last day's reflection has no next day to go with
                alerted = (record, (request, None) if tomorrow is None else send(request))
            else:
                records.append(record)
            risk_state = checked
            prev_rho = rho_t
        if alerted is not None:
            file_reflection(alerted[0], reply(alerted[1]))


# ---------------------------------------------------------------------------
# train / test drivers
# ---------------------------------------------------------------------------

def load_market(config: RunConfig) -> MarketData:
    """Market data over the config's whole train-to-test range."""
    return MarketData.load(
        config.price_paths, config.document_paths,
        range_start=config.train_start, range_end=config.test_end,
        momentum_window=config.data_ingest["momentum_window"],
    )


def _write_report(writer: RunWriter, config: RunConfig,
                  trajectory: Trajectory) -> MetricsReport:
    """Write report.json and metrics.csv for one trajectory; returns the report."""
    report = build_report(trajectory.pnls(), config.backtest["capital"],
                          config.risk["cvar_alpha"], config.backtest["risk_free_daily"],
                          config.backtest["annualize_sharpe"],
                          config.backtest["discount_alpha"])
    writer.write_report(report)
    writer.write_metrics_csv(trajectory.days, config.backtest["capital"])
    return report


def train(config: RunConfig, gateway: LlmGateway, run_dir: str | Path,
          market: MarketData | None = None):
    """Run the training stage; returns (trajectories, belief updates).

    From episode 2 on, each completed episode triggers a belief update
    comparing it with its predecessor, whose insights are reused from the
    previous update, so each episode is conceptualized once; training stops
    at the episode cap or when the overlap/objective convergence rule fires.
    Each episode's prompt log, its update's requests included, is written
    once, however the two end: only a killed process loses its answers.
    Without ``resume``, the episode and final-output files an earlier run
    left in the directory are removed first (``RunWriter.clear_outputs``).
    With it, the stage runs as a fresh one, the gateway answering from the
    directory's prompt logs, and the files of episodes it does not reach are
    removed at its end: it writes what a clean run of its config writes.
    """
    market = market if market is not None else load_market(config)
    writer = RunWriter(run_dir)
    if config.backtest["resume"]:
        gateway = LlmGateway(gateway.backend, gateway.min_interval, writer.read_prompt_logs())
    else:
        writer.clear_outputs()
    writer.write_config(config)
    engine = BacktestEngine(config, market, gateway, MemoryStore(calendar=market.calendar),
                            writer)
    trajectories: list[Trajectory] = []
    updates = []
    # the between-episode gateway calls: conceptualize and belief_update
    belief_update_calls = 0

    def beliefs() -> dict[str, str]:
        return updates[-1].beliefs if updates else {}

    def converged() -> bool:
        return convergence_check([u.learning_rate for u in updates],
                                 [t.objective for t in trajectories],
                                 tau_threshold=config.risk["convergence_tau"],
                                 epsilon=config.risk["convergence_epsilon"],
                                 max_episodes=config.backtest["max_episodes"])

    while not converged():
        k = len(trajectories) + 1
        log: list[dict] = []
        try:
            trajectories.append(engine.run_episode(beliefs(), k, config.train_start,
                                                   config.train_end, log))
            if k >= 2:
                episode_calls = len(log)
                update = compare_and_update(
                    trajectories[-2], trajectories[-1], beliefs(), gateway,
                    {aid: p.role for aid, p in engine.analysts.items()},
                    min_run=config.risk["min_run_length"],
                    max_retries=config.llm["max_retries"],
                    insights_prev=updates[-1].insights_cur if updates else None, log=log)
                belief_update_calls += len(log) - episode_calls
                updates.append(update)
                writer.write_belief(k, update)
                engine.router.send(RISK_CONTROL, MANAGER, "belief_update")
                for target in update.target_agents:
                    if target != MANAGER:
                        engine.router.send(MANAGER, target, "belief_update")
        finally:
            writer.write_prompt_log(k, log)

    writer.clear_outputs(keep=len(trajectories))
    writer.write_prompt_set(beliefs())
    writer.write_memory(engine.store)
    _write_report(writer, config, trajectories[-1])
    writer.write_summary("train_summary.json", {
        "episodes_run": len(trajectories),
        "objectives": [t.objective for t in trajectories],
        "taus": [u.learning_rate for u in updates],
        "belief_updates": len(updates),
        "belief_update_calls": belief_update_calls,
        "message_count": engine.router.count(),
    })
    return trajectories, updates


def test(config: RunConfig, gateway: LlmGateway, run_dir: str | Path,
         market: MarketData | None = None):
    """Run the test stage from inherited training artifacts.

    The within-episode risk control stays active; the belief-update machinery
    is never invoked, so test_summary.json records 0 belief-update calls.
    The prompt log is written however the episode ends. ConfigError, before
    any write, when ``run_dir`` is the training directory; else the files an
    earlier run left there go first (``clear_outputs``).
    Returns (trajectory, report).
    """
    train_dir = config.backtest["train_run_dir"]
    if not train_dir:
        raise MissingTrainingArtifacts("backtest.train_run_dir is not configured")
    training = RunWriter(config.base_dir / train_dir)
    if Path(run_dir).resolve() == training.run_dir.resolve():
        raise ConfigError(f"the test stage cannot write into its training directory "
                          f"{training.run_dir} (backtest.train_run_dir)")
    beliefs = training.read_belief_block()
    market = market if market is not None else load_market(config)
    writer = RunWriter(run_dir)
    writer.clear_outputs()
    writer.write_config(config)
    engine = BacktestEngine(config, market, gateway, training.read_memory(market.calendar),
                            writer)
    log: list[dict] = []
    try:
        trajectory = engine.run_episode(beliefs, "test", config.test_start, config.test_end, log)
    finally:
        writer.write_prompt_log("test", log)
    report = _write_report(writer, config, trajectory)
    writer.write_memory(engine.store)
    writer.write_summary("test_summary.json", {
        "days": len(trajectory.days),
        "belief_update_calls": 0,
        "message_count": engine.router.count(),
    })
    return trajectory, report


def recompute_report(run_dir: str | Path, config: RunConfig) -> MetricsReport:
    """Rebuild report.json and metrics.csv from ``RunWriter.report_tag``'s trajectory."""
    writer = RunWriter(run_dir)
    tag = writer.report_tag(config.backtest["max_episodes"])
    trajectory = writer.read_trajectory(tag, config.backtest["discount_alpha"])
    return _write_report(writer, config, trajectory)
