"""Deterministic backtest harness around the manager-analyst hierarchy.

The daily loop: assemble the observation, fan analyst steps out (a barrier
waits for every instance), check the risk state carried from the prior
day's close, run the manager decision (risk-averse clause when alerting),
solve portfolio weights where applicable, realize PnL on the close-to-close
transition, recompute CVaR and the within-episode trigger, reflect when
triggered, and send feedback. Decisions for day t always use data dated
at most t; PnL realizes on the t -> t+1 transition.

Training (``train``) loops episodes over the training range and runs the
over-episode belief update after every episode from the second on, stopping
at the configured maximum or when the action overlap converges. Testing
(``test``) inherits prompts and memory from a training run directory and
runs a single pass with the within-episode control active and the belief
machinery disabled.

All run artifacts (config.used.json, trajectory JSONL, beliefs, prompts,
memory snapshot, report.json, metrics.csv) are written with canonical
serialization so identical invocations produce byte-identical directories.
"""

from __future__ import annotations

import json
import math
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from datetime import date as Date
from pathlib import Path

import numpy as np

from .agents import (
    DAILY_ANALYST_ROLES,
    MANAGER,
    NO_SIGNAL,
    RISK_CONTROL,
    SOURCE_FOR_ROLE,
    AnalystSlice,
    PromptSet,
    Router,
    StepContext,
    analyst_id,
    analyst_step,
    build_profiles,
    manager_step,
    reflect_step,
    send_feedback,
    single_stock_weights,
    store_event,
)
from .data_ingest import MarketData, assemble_observation, log_return, parse_date, read_json, read_jsonl
from .errors import (
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
from .llm_gateway import LlmGateway
from .memory import HashEmbedder, MemoryStore
from .portfolio import MVInputs, ReturnPanel, scale_to_positions, shrink_estimates, solve_mean_variance
from .risk_control import (
    ASPECT_FOR_ROLE,
    BeliefUpdate,
    RiskState,
    alert_trigger,
    compare_and_update,
    convergence_check,
    cvar,
    var_cvar,
    within_episode_check,
)

TRADING_DAYS_PER_YEAR = 252


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

DEFAULT_DECAY_RATIOS = {
    "news": 0.90,
    "ecc_transcript": 0.97,
    "form10q": 0.97,
    "form10k": 0.99,
    "analyst_report": 0.95,
    "data": 0.90,
    "manager": 0.95,
}

DEFAULTS = {
    "data_ingest": {"momentum_window": 20},
    "memory": {
        "top_k": 5,
        "default_importance": 0.5,
        "decay_ratios": DEFAULT_DECAY_RATIOS,
    },
    "llm": {
        "temperature_decision": 0.3,
        "max_retries": 2,
        "min_interval": 0.0,
    },
    "agents": {
        "analyst_roles": list(DAILY_ANALYST_ROLES),
        "workers": 2,
        "general_config": "",
        "profile_texts": {},
        "profile_files": {},
    },
    "risk": {
        "cvar_alpha": 0.01,
        "min_cvar_history": 10,
        "min_run_length": 2,
        "convergence_tau": 0.8,
        "convergence_epsilon": 1e-6,
    },
    "portfolio": {
        "shrinkage_lambda": 0.3,
        "estimation_window": 60,
        "min_news": 800,
        "pool_size": 3,
    },
    "backtest": {
        "discount_alpha": 1.0,
        "max_episodes": 4,
        "capital": 100_000.0,
        "position_size": 1.0,
        "risk_free_daily": 0.0,
        "annualize_sharpe": False,
        "feedback_threshold_mult": 2.0,
        "feedback_window": 20,
        "train_run_dir": None,
        "resume": False,
    },
}


def _merge_defaults(section: str, user: object) -> dict:
    if not isinstance(user, dict):
        raise ConfigError(f"{section} must be a JSON object, got {user!r}")
    merged = dict(DEFAULTS[section])
    for key, value in user.items():
        if key not in merged:
            raise ConfigError(f"unknown key {section}.{key}")
        if key == "decay_ratios":
            if not isinstance(value, dict):
                raise ConfigError(f"memory.decay_ratios must be a JSON object, got {value!r}")
            ratios = dict(DEFAULT_DECAY_RATIOS)
            ratios.update(value)
            value = ratios
        merged[key] = value
    return merged


def read_config_payload(path: str | Path) -> dict:
    """The JSON document in a config file; ConfigError if missing, SchemaError
    if not JSON."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return read_json(path)


@dataclass
class RunConfig:
    """One run's full, resolved configuration (a single JSON document)."""

    mode: str
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
    raw: dict = field(default_factory=dict)
    # the config file's directory: relative paths resolve against it
    base_dir: Path = Path(".")

    @property
    def is_portfolio(self) -> bool:
        return len(self.tickers) > 1

    @classmethod
    def from_dict(cls, payload: dict, base_dir: str | Path = ".") -> "RunConfig":
        base = Path(base_dir)
        mode = payload.get("mode", "train")
        if mode not in ("train", "test"):
            raise ConfigError(f"mode must be train or test, got {mode!r}")
        tickers = list(payload.get("tickers", []))
        if not tickers:
            raise ConfigError("tickers must be a non-empty list")
        data = payload.get("data", {})
        prices = {t: str(base / p) for t, p in data.get("prices", {}).items()}
        for t in tickers:
            if t not in prices:
                raise ConfigError(f"data.prices missing ticker {t}")
        documents = [str(base / p) for p in data.get("documents", [])]
        dates = payload.get("dates", {})
        parsed = {}
        for key in ("train_start", "train_end", "test_start", "test_end"):
            if key not in dates:
                raise ConfigError(f"dates.{key} is required")
            try:
                parsed[key] = parse_date(dates[key])
            except ValueError:
                raise ConfigError(f"dates.{key}: bad date {dates[key]!r}") from None
        train_start, train_end = parsed["train_start"], parsed["train_end"]
        test_start, test_end = parsed["test_start"], parsed["test_end"]
        if not train_start <= train_end:
            raise ConfigError("train_start must not exceed train_end")
        if not test_start <= test_end:
            raise ConfigError("test_start must not exceed test_end")
        if not train_end < test_start:
            raise ConfigError("the training range must precede the test range")
        sections = {
            name: _merge_defaults(name, payload.get(name, {}))
            for name in ("data_ingest", "memory", "llm", "agents", "risk",
                         "portfolio", "backtest")
        }
        # profile texts may live in referenced plain-text files
        texts = dict(sections["agents"]["profile_texts"])
        for role, rel in sections["agents"]["profile_files"].items():
            file_path = base / rel
            if not file_path.exists():
                raise ConfigError(f"agents.profile_files[{role}]: {file_path} not found")
            texts[role] = file_path.read_text()
        sections["agents"]["profile_texts"] = texts
        for key in ("discount_alpha", "position_size"):
            value = sections["backtest"][key]
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not 0.0 < value <= 1.0:
                raise ConfigError(f"backtest.{key} must be in (0,1], got {value!r}")
        cvar_alpha = sections["risk"]["cvar_alpha"]
        if not 0.0 < cvar_alpha < 1.0:
            raise ConfigError(f"risk.cvar_alpha must be in (0,1), got {cvar_alpha}")
        for role in sections["agents"]["analyst_roles"]:
            if role not in DAILY_ANALYST_ROLES:
                raise ConfigError(f"unknown analyst role {role!r}")
        for name, key in (("backtest", "max_episodes"), ("agents", "workers")):
            value = sections[name][key]
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name}.{key} must be an integer >= 1, got {value!r}")
        return cls(
            mode=mode, tickers=tickers, price_paths=prices, document_paths=documents,
            train_start=train_start, train_end=train_end,
            test_start=test_start, test_end=test_end,
            seed=payload.get("seed"),
            raw=payload,
            base_dir=base,
            **sections,
        )

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        return cls.from_dict(read_config_payload(path), base_dir=path.parent)

    def resolved_dict(self) -> dict:
        """Fully resolved config (defaults merged) for config.used.json."""
        out = {
            "mode": self.mode,
            "tickers": list(self.tickers),
            "data": self.raw.get("data", {}),
            "dates": {
                "train_start": self.train_start.isoformat(),
                "train_end": self.train_end.isoformat(),
                "test_start": self.test_start.isoformat(),
                "test_end": self.test_end.isoformat(),
            },
        }
        if self.seed is not None:
            out["seed"] = self.seed
        for name in ("data_ingest", "memory", "llm", "agents", "risk", "portfolio",
                     "backtest"):
            out[name] = getattr(self, name)
        return out


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


def sharpe_ratio(pnls, risk_free_daily: float = 0.0, annualize: bool = False) -> float:
    """Mean excess PnL over its sample (n-1) standard deviation."""
    values = [float(x) for x in pnls]
    if len(values) < 2:
        raise InsufficientData(f"need at least 2 days, got {len(values)}")
    std = statistics.stdev(values)
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


def rolling_sigma_threshold(pnls, window: int = 20, mult: float = 2.0) -> float | None:
    """Feedback significance bar: mult x rolling std of recent PnL.

    None (no feedback possible) until two PnL points exist or while the
    rolling standard deviation is zero.
    """
    recent = list(pnls)[-window:]
    if len(recent) < 2:
        return None
    std = statistics.stdev(recent)
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
        return cls(**{**rec, "date": parse_date(rec["date"])})


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

    def to_jsonl(self) -> str:
        return _dump_jsonl(d.to_record() for d in self.days)

    @classmethod
    def from_jsonl(cls, path: str | Path, episode: object, discount_alpha: float) -> "Trajectory":
        """The trajectory a ``to_jsonl`` file holds. SchemaError(row, None)
        names the file and row of a line that is not JSON or not a day record."""
        days = []
        for row_no, rec in read_jsonl(path):
            try:
                days.append(DayRecord.from_record(rec))
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(row_no, None, f"{path}: row {row_no} is not a day record "
                                  f"({type(exc).__name__}: {exc})") from None
        traj = cls(episode=episode, days=days)
        traj.objective = objective_value(traj.pnls(), discount_alpha)
        return traj


# ---------------------------------------------------------------------------
# run directory writer
# ---------------------------------------------------------------------------

def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _dump_jsonl(records) -> str:
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                   for r in records)


class RunWriter:
    """Writes every run artifact with canonical, reproducible serialization."""

    def __init__(self, run_dir: str | Path):
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)

    def path(self, *parts) -> Path:
        p = self.run_dir.joinpath(*parts)
        p.parent.mkdir(parents=True, exist_ok=True)
        return p

    def write_config(self, config: RunConfig) -> None:
        self.path("config.used.json").write_text(_dump_json(config.resolved_dict()))

    def write_trajectory(self, tag: object, trajectory: Trajectory) -> None:
        """The completed episode's trajectory; removes the FAILED artifact an
        earlier, aborted attempt at the episode left."""
        self.path(f"trajectory_{tag}.jsonl").write_text(trajectory.to_jsonl())
        (self.run_dir / f"trajectory_{tag}.FAILED.jsonl").unlink(missing_ok=True)

    def write_failed(self, tag: object, days: list[DayRecord], error: str) -> None:
        records = [d.to_record() for d in days] + [{"FAILED": error}]
        self.path(f"trajectory_{tag}.FAILED.jsonl").write_text(_dump_jsonl(records))

    def write_belief(self, episode: int, update) -> None:
        self.path("beliefs", f"episode_{episode}.json").write_text(_dump_json(asdict(update)))

    def write_prompt_set(self, prompts: PromptSet) -> None:
        self.path("prompts", "final", "prompt_set.json").write_text(_dump_json(asdict(prompts)))

    def write_prompt_log(self, tag: object, entries: list[dict]) -> None:
        self.path("prompts", f"assembled_{tag}.jsonl").write_text(_dump_jsonl(entries))

    def write_memory(self, store: MemoryStore) -> None:
        store.save_jsonl(self.path("memory", "snapshot.jsonl"))

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

    def write_checkpoint(self, episode: int, store: MemoryStore, message_counts: dict) -> None:
        """Memory first: resume trusts a checkpoint only once its JSON file
        exists, so a crash while the memory file is written leaves the
        episode to be re-run rather than a truncated store to be loaded. The
        rest of the training state is in the episode's trajectory and belief
        files, written before either."""
        store.save_jsonl(self.path("state", f"memory_{episode}.jsonl"))
        payload = {"episode": episode, "message_counts": message_counts}
        self.path("state", f"checkpoint_{episode}.json").write_text(_dump_json(payload))


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

class BacktestEngine:
    """Drives episodes over a loaded market with one gateway and one store.

    Each episode fans its analysts out on one thread pool of
    ``agents.workers`` threads, shut down when the episode returns or fails.
    """

    def __init__(self, config: RunConfig, market: MarketData, gateway: LlmGateway,
                 store: MemoryStore | None = None, writer: RunWriter | None = None):
        self.config = config
        self.market = market
        self.gateway = gateway
        self.store = store if store is not None else MemoryStore(calendar=market.calendar)
        self.writer = writer
        self.embedder = HashEmbedder()
        roles = list(config.agents["analyst_roles"])
        self.analyst_ids = {
            analyst_id(role, ticker): role
            for role in roles for ticker in config.tickers
        }
        general = config.agents["general_config"] or (
            f"Investment task: {'portfolio management' if config.is_portfolio else 'single stock trading'} "
            f"on {', '.join(config.tickers)}. Objective: maximize cumulative discounted PnL "
            f"while controlling downside risk."
        )
        self.profiles = build_profiles(config.tickers, roles, general,
                                       config.agents.get("profile_texts") or None)
        self.router = Router(self.analyst_ids)
        self.prompt_log: dict[object, list[dict]] = {}

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

    def _analyst_slice(self, role: str, ticker: str, obs, date: Date) -> AnalystSlice:
        ticker_slice = obs.tickers[ticker]
        source = SOURCE_FOR_ROLE[role]
        if source == "data":
            indicators = dict(ticker_slice.indicators)
            asset_returns = self.market.log_returns_to(ticker, date)
            if asset_returns:
                indicators["cvar"] = cvar(asset_returns, self.config.risk["cvar_alpha"])
            bar = ticker_slice.bar
            price_line = (f"close={bar.close!r} adj_close={bar.adj_close!r} "
                          f"volume={bar.volume}")
            return AnalystSlice(ticker=ticker, indicators=indicators, price_line=price_line)
        docs = tuple(d for d in ticker_slice.documents if d.kind == source)
        return AnalystSlice(ticker=ticker, documents=docs)

    def _log_prompts(self, episode: object, entries: list[dict]) -> None:
        self.prompt_log.setdefault(episode, []).extend(
            sorted(entries, key=lambda e: (e["date"], e["phase"], e["agent_id"])))

    def _solve_weights(self, decision, date: Date) -> dict[str, float]:
        cfg = self.config
        if not cfg.is_portfolio:
            return single_stock_weights(decision, cfg.backtest["position_size"])
        window = cfg.portfolio["estimation_window"]
        histories = {t: self.market.log_returns_to(t, date, max_window=window)
                     for t in cfg.tickers}
        t_len = min(len(h) for h in histories.values())
        if t_len < 2:
            raise InsufficientSamples(
                f"need at least 2 aligned daily returns before {date}; "
                "provide warmup bars before the simulation range")
        matrix = np.column_stack([histories[t][-t_len:] for t in cfg.tickers])
        panel = ReturnPanel(tickers=tuple(cfg.tickers), dates=tuple(range(t_len)),
                            returns=matrix)
        mu, sigma = shrink_estimates(panel, cfg.portfolio["shrinkage_lambda"])
        directions = tuple(decision.directions[t] for t in cfg.tickers)
        w = solve_mean_variance(MVInputs(mu=mu, sigma=sigma, directions=directions))
        return {t: float(w[i]) for i, t in enumerate(cfg.tickers)}

    # -- episode loop ---------------------------------------------------------

    def run_episode(self, prompts: PromptSet, episode: object,
                    start: Date, end: Date) -> Trajectory:
        """One pass over [start, end]; returns the trajectory.

        A gateway failure aborts the episode: the partial trajectory is
        written as a FAILED artifact (when a writer is attached) and
        EpisodeAborted propagates.
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
        )
        records: list[DayRecord] = []
        try:
            with ThreadPoolExecutor(max_workers=cfg.agents["workers"]) as pool:
                self._run_days(prompts, ctx, days, records, pool)
        except FinconError as exc:
            if self.writer is not None:
                self.writer.write_failed(episode, records, f"{type(exc).__name__}: {exc}")
            raise EpisodeAborted(episode, exc) from exc
        trajectory = Trajectory(episode=episode, days=records)
        trajectory.objective = objective_value(trajectory.pnls(),
                                               cfg.backtest["discount_alpha"])
        summary = (f"Episode {episode} summary: objective "
                   f"{trajectory.objective!r}, cumulative return "
                   f"{cumulative_return(trajectory.pnls())!r}%.")
        store_event(ctx, MANAGER, records[-1].date, "episode", summary,
                    cfg.memory["decay_ratios"]["manager"], None, layer="episodic")
        return trajectory

    def _run_days(self, prompts: PromptSet, ctx: StepContext, days: list[Date],
                  records: list[DayRecord], pool: ThreadPoolExecutor) -> None:
        cfg = self.config
        decay = cfg.memory["decay_ratios"]
        risk_state = RiskState.initial()
        pnl_history: list[float] = []
        prev_rho: float | None = None
        instance_ids = sorted(self.analyst_ids)
        for day in days:
            obs = assemble_observation(day, cfg.tickers, self.market)
            day_entries: list[dict] = []

            def run_one(aid: str):
                role = self.analyst_ids[aid]
                ticker = aid.split(":", 1)[1]
                obs_slice = self._analyst_slice(role, ticker, obs, day)
                belief = prompts.belief_block.get(ASPECT_FOR_ROLE[role])
                return analyst_step(self.profiles[aid], prompts.analyst_prompts[aid],
                                    belief, obs_slice, day, ctx,
                                    decay[SOURCE_FOR_ROLE[role]])

            insights = {}
            for aid, (message, entry) in zip(instance_ids, pool.map(run_one, instance_ids)):
                insights[aid] = message
                self.router.send(aid, MANAGER, "insight")
                if entry is not None:
                    day_entries.append(entry)

            decision, entry = manager_step(
                self.profiles[MANAGER], prompts, insights, risk_state, day, ctx,
                cfg.tickers, instance_ids, decay["manager"])
            day_entries.append(entry)
            self.router.send(MANAGER, RISK_CONTROL, "decision")

            decision.weights = self._solve_weights(decision, day)
            decision.check_weight_signs()
            closes = np.array([self.market.close(t, day) for t in cfg.tickers])
            shares = scale_to_positions(
                np.array([decision.weights[t] for t in cfg.tickers]),
                cfg.backtest["capital"], closes)

            next_day = self.market.trading_day_after(day)
            r_t = math.fsum(
                daily_pnl(decision.weights[t], self.market.close(t, day),
                          self.market.close(t, next_day))
                for t in cfg.tickers)
            pnl_history.append(r_t)
            rho_t = cvar(pnl_history, cfg.risk["cvar_alpha"])
            provisional = RiskState(date=day, cvar=rho_t, prev_cvar=prev_rho,
                                    alert=False, history_len=len(pnl_history))
            trigger = alert_trigger(provisional, r_t, cfg.risk["min_cvar_history"])
            checked = within_episode_check(provisional, r_t, cfg.risk["min_cvar_history"])

            reflections: list[dict] = []
            if checked.alert:
                day_summary = (f"PnL {r_t!r}, CVaR {rho_t!r} "
                               f"(previous {prev_rho!r}), trigger {trigger}.")
                reflection, r_entry = reflect_step(
                    self.profiles[MANAGER], trigger, day_summary, day, ctx,
                    decay["manager"])
                reflections.append({"trigger": reflection.trigger, "text": reflection.text})
                day_entries.append(r_entry)

            threshold = rolling_sigma_threshold(
                pnl_history, cfg.backtest["feedback_window"],
                cfg.backtest["feedback_threshold_mult"])
            reporting = [aid for aid, m in insights.items()
                         if m.distilled_insight != NO_SIGNAL]
            send_feedback(decision, r_t, threshold, reporting, insights, day, ctx,
                          self.router, decay, self.analyst_ids)

            records.append(DayRecord(
                date=day,
                directions=dict(decision.directions),
                weights={t: decision.weights[t] for t in cfg.tickers},
                target_shares={t: float(shares[i]) for i, t in enumerate(cfg.tickers)},
                pnl=r_t,
                cvar=rho_t,
                alert=checked.alert,
                trigger=trigger,
                reflections=reflections,
                reasoning=decision.reasoning,
                insights={aid: m.distilled_insight for aid, m in insights.items()},
                cited_memory_ids=list(decision.cited_memory_ids),
            ))
            self._log_prompts(ctx.episode, day_entries)
            risk_state = checked
            prev_rho = rho_t


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
    """Run the training stage; returns (final prompts, trajectories, updates).

    From episode 2 on, each completed episode triggers a belief update
    comparing it with its predecessor, whose insights are reused from the
    previous update, so each episode is conceptualized once; training stops
    at the episode cap or when the overlap/objective convergence rule fires.
    With ``resume`` set, episodes whose trajectory and checkpoint already
    exist are reloaded instead of re-run, and a restored state that had
    already converged runs no further episode.
    """
    market = market if market is not None else load_market(config)
    writer = RunWriter(run_dir)
    writer.write_config(config)
    engine = BacktestEngine(config, market, gateway, writer=writer)
    prompts = PromptSet.initial(engine.profiles)
    trajectories: list[Trajectory] = []
    updates: list[BeliefUpdate] = []
    if config.backtest.get("resume"):
        prompts, trajectories, updates = _resume_state(config, writer, engine, prompts)

    def converged() -> bool:
        return convergence_check([u.learning_rate for u in updates],
                                 [t.objective for t in trajectories],
                                 tau_threshold=config.risk["convergence_tau"],
                                 epsilon=config.risk["convergence_epsilon"],
                                 max_episodes=config.backtest["max_episodes"])

    while not converged():
        k = len(trajectories) + 1
        trajectory = engine.run_episode(prompts, k, config.train_start, config.train_end)
        trajectories.append(trajectory)
        writer.write_trajectory(k, trajectory)
        writer.write_prompt_log(k, engine.prompt_log.pop(k, []))
        if k >= 2:
            update, prompts = compare_and_update(
                trajectories[-2], trajectory, prompts, gateway, engine.analyst_ids,
                min_run=config.risk["min_run_length"],
                max_retries=config.llm["max_retries"],
                insights_prev=updates[-1].insights_cur if updates else None)
            updates.append(update)
            writer.write_belief(k, update)
            engine.router.send(RISK_CONTROL, MANAGER, "belief_update")
            for target in update.target_agents:
                if target != MANAGER:
                    engine.router.send(MANAGER, target, "belief_update")
        writer.write_checkpoint(k, engine.store, engine.router.counts_by_kind())

    writer.write_prompt_set(prompts)
    writer.write_memory(engine.store)
    _write_report(writer, config, trajectories[-1])
    writer.write_summary("train_summary.json", {
        "episodes_run": len(trajectories),
        "objectives": [t.objective for t in trajectories],
        "taus": [u.learning_rate for u in updates],
        "belief_updates": len(updates),
        "belief_update_calls": len(updates),
        "message_count": engine.router.count(),
    })
    return prompts, trajectories, updates


def _prompt_set(payload, path: Path) -> PromptSet:
    """The PromptSet a run file stores; SchemaError when its fields do not fit."""
    try:
        return PromptSet(**payload)
    except (TypeError, ValueError) as exc:
        raise SchemaError(0, None, f"{path}: not a prompt set ({exc})") from None


def _resume_state(config: RunConfig, writer: RunWriter, engine: BacktestEngine,
                  prompts: PromptSet):
    """Rebuild the training state of the newest checkpoint from the run's
    files, so training continues after an abort. Returns (prompts,
    trajectories, belief updates); restores memory and message counts."""
    run_dir = writer.run_dir
    last_done = 0
    for k in range(1, config.backtest["max_episodes"] + 1):
        if (run_dir / f"trajectory_{k}.jsonl").exists() and \
                (run_dir / "state" / f"checkpoint_{k}.json").exists():
            last_done = k
    if last_done == 0:
        return prompts, [], []
    checkpoint = run_dir / "state" / f"checkpoint_{last_done}.json"
    payload = read_json(checkpoint)
    counts = payload.get("message_counts") if isinstance(payload, dict) else None
    if not isinstance(counts, dict) or not all(
            isinstance(n, int) and not isinstance(n, bool) for n in counts.values()):
        raise SchemaError(0, "message_counts",
                          f"{checkpoint}: 'message_counts' is not a map of counts")
    engine.router.restore_counts(counts)
    engine.store = MemoryStore.load_jsonl(run_dir / "state" / f"memory_{last_done}.jsonl",
                                          calendar=engine.market.calendar)
    trajectories = [
        Trajectory.from_jsonl(run_dir / f"trajectory_{k}.jsonl", k,
                              config.backtest["discount_alpha"])
        for k in range(1, last_done + 1)
    ]
    updates = []
    for k in range(2, last_done + 1):
        path = run_dir / "beliefs" / f"episode_{k}.json"
        record = read_json(path)
        try:
            updates.append(BeliefUpdate.from_record(record))
            prompts = prompts.with_belief_block(updates[-1].beliefs)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(0, None, f"{path}: not a belief update "
                              f"({type(exc).__name__}: {exc})") from None
    return prompts, trajectories, updates


def test(config: RunConfig, gateway: LlmGateway, run_dir: str | Path,
         market: MarketData | None = None):
    """Run the test stage from inherited training artifacts.

    The within-episode risk control stays active; the belief-update machinery
    is never invoked, so test_summary.json records 0 belief-update calls.
    Returns (trajectory, report).
    """
    train_dir = config.backtest.get("train_run_dir")
    if not train_dir:
        raise MissingTrainingArtifacts("backtest.train_run_dir is not configured")
    train_dir = config.base_dir / train_dir
    prompt_path = train_dir / "prompts" / "final" / "prompt_set.json"
    memory_path = train_dir / "memory" / "snapshot.jsonl"
    if not prompt_path.exists() or not memory_path.exists():
        raise MissingTrainingArtifacts(
            f"missing training artifacts under {train_dir} "
            "(expected prompts/final/prompt_set.json and memory/snapshot.jsonl)")
    prompts = _prompt_set(read_json(prompt_path), prompt_path)
    market = market if market is not None else load_market(config)
    writer = RunWriter(run_dir)
    writer.write_config(config)
    store = MemoryStore.load_jsonl(memory_path, calendar=market.calendar)
    engine = BacktestEngine(config, market, gateway, store=store, writer=writer)
    trajectory = engine.run_episode(prompts, "test", config.test_start, config.test_end)
    writer.write_trajectory("test", trajectory)
    writer.write_prompt_log("test", engine.prompt_log.pop("test", []))
    report = _write_report(writer, config, trajectory)
    writer.write_memory(engine.store)
    writer.write_summary("test_summary.json", {
        "days": len(trajectory.days),
        "belief_update_calls": 0,
        "message_count": engine.router.count(),
    })
    return trajectory, report


def recompute_report(run_dir: str | Path, config: RunConfig) -> MetricsReport:
    """Rebuild report.json and metrics.csv from the newest trajectory on disk."""
    run_dir = Path(run_dir)
    candidates = [run_dir / "trajectory_test.jsonl"]
    candidates += sorted(run_dir.glob("trajectory_[0-9]*.jsonl"), reverse=True)
    path = next((p for p in candidates if p.exists()), None)
    if path is None:
        raise MissingTrajectory(f"no trajectory file in {run_dir}")
    tag = path.stem.replace("trajectory_", "")
    trajectory = Trajectory.from_jsonl(path, tag, config.backtest["discount_alpha"])
    writer = RunWriter(run_dir)
    return _write_report(writer, config, trajectory)
