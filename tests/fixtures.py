"""Synthetic fixtures: price paths, document corpora, mock scripts, and an
independent hand-rolled trace oracle.

The oracle simulates the daily loop arithmetic (PnL, empirical CVaR, the
alert rule) from closes and scripted directions alone, without touching the
engine, so engine traces can be checked against it and mock scripts can be
generated with reflect entries on exactly the days that will alert.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from datetime import date as Date, timedelta
from fractions import Fraction
from pathlib import Path

import numpy as np

DEFAULT_ALPHA = 0.01
DEFAULT_MIN_HISTORY = 10
SIGNS = {"long": 1.0, "short": -1.0, "neutral": 0.0}


def trading_days(start: Date, count: int) -> list[Date]:
    days = []
    d = start
    while len(days) < count:
        if d.weekday() < 5:
            days.append(d)
        d += timedelta(days=1)
    return days


def mixed_growth(i: int) -> float:
    """Deterministic growth sequence with mixed signs, |g| <= 1.2%."""
    return 0.012 * math.sin(1.0 + 0.9 * i)


def shrinking_gains_growth(i: int) -> float:
    """Positive but strictly decreasing daily growth (eventually negative)."""
    return 0.02 - 0.0012 * i


def closes_from_growth(n: int, growth, start_price: float = 100.0) -> list[float]:
    closes = [start_price]
    for i in range(n - 1):
        closes.append(closes[-1] * math.exp(growth(i)))
    return closes


def write_price_csv(path: Path, days: list[Date], closes: list[float]) -> None:
    # repr keeps full float precision so in-memory closes equal loaded ones
    rows = ["date,open,high,low,close,adj_close,volume"]
    for i, (d, c) in enumerate(zip(days, closes)):
        o = closes[i - 1] if i else c
        hi = max(o, c) * 1.01
        lo = min(o, c) * 0.99
        rows.append(f"{d.isoformat()},{o!r},{hi!r},{lo!r},{c!r},{c!r},{1000 + i}")
    path.write_text("\n".join(rows) + "\n")


def write_documents(path: Path, docs: list[dict]) -> None:
    path.write_text("".join(json.dumps(d, sort_keys=True) + "\n" for d in docs))


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def oracle_var_cvar(pnls, alpha: float) -> tuple[float, float]:
    """Count-based empirical VaR/CVaR, written independently of the package."""
    xs = sorted(float(x) for x in pnls)
    n = len(xs)
    var = None
    for v in xs:
        if sum(1 for x in xs if x <= v) / n >= alpha:
            var = v
            break
    tail = [x for x in xs if x <= var]
    return var, sum(tail) / len(tail)


def oracle_sample_stdev(values) -> float:
    """Correctly rounded sample standard deviation from exact fractions,
    written independently of the package.

    The variance is exact; the answer is the float r with the exact variance
    between the squares of the midpoints to r's neighbours (a tie goes to the
    even significand). A first guess from a scaled float root is walked one
    float at a time until it is that r.
    """
    xs = [Fraction(x) for x in values]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
    if var == 0:
        return 0.0
    e = (var.denominator.bit_length() - var.numerator.bit_length()) // 2
    r = math.ldexp(math.sqrt(var * Fraction(4) ** e), -e)

    def midpoint_squared(a: float, b: float) -> Fraction:
        return ((Fraction(a) + Fraction(b)) / 2) ** 2

    def odd(x: float) -> bool:  # the last bit of the significand
        return struct.unpack("<q", struct.pack("<d", x))[0] & 1 == 1

    while True:
        up, down = math.nextafter(r, math.inf), math.nextafter(r, 0.0)
        hi, lo = midpoint_squared(r, up), midpoint_squared(down, r)
        if var > hi or (var == hi and odd(r)):
            r = up
        elif var < lo or (var == lo and odd(r)):
            r = down
        else:
            return r


@dataclass
class TraceDay:
    index: int
    pnl: float
    rho: float
    alert: bool
    trigger: str | None


def oracle_trace(closes: list[float], directions: list[str],
                 alpha: float = DEFAULT_ALPHA,
                 min_history: int = DEFAULT_MIN_HISTORY,
                 position: float = 1.0) -> list[TraceDay]:
    """Hand simulation of the single-stock daily loop.

    ``closes`` must hold one more bar than there are directions (the final
    realization). Replicates: r_t = sign * ln(c_{t+1}/c_t), rho_t = CVaR of
    the history so far, alert when rho drops (armed) or r_t < 0.
    """
    assert len(closes) == len(directions) + 1
    out: list[TraceDay] = []
    pnls: list[float] = []
    prev_rho = None
    for t, direction in enumerate(directions):
        r = SIGNS[direction] * position * math.log(closes[t + 1] / closes[t])
        pnls.append(r)
        rho = oracle_var_cvar(pnls, alpha)[1]
        cvar_drop = (len(pnls) >= min_history and prev_rho is not None and rho < prev_rho)
        alert = cvar_drop or r < 0
        trigger = "cvar_drop" if cvar_drop else ("negative_pnl" if r < 0 else None)
        out.append(TraceDay(index=t, pnl=r, rho=rho, alert=alert,
                            trigger=trigger if alert else None))
        prev_rho = rho
    return out


def oracle_runs(pnls, min_len: int = 2) -> list[tuple[int, int, int]]:
    """Maximal same-sign runs by linear scan: (start, end, sign)."""
    runs = []
    i = 0
    n = len(pnls)
    while i < n:
        if pnls[i] == 0:
            i += 1
            continue
        sign = 1 if pnls[i] > 0 else -1
        j = i
        while j + 1 < n and (pnls[j + 1] > 0) == (sign > 0) and pnls[j + 1] != 0:
            j += 1
        if j - i + 1 >= min_len:
            runs.append((i, j, sign))
        i = j + 1
    return runs


def oracle_embed(text: str, dim: int) -> list[float]:
    """Hash-embedding reference, one digest per component: component i is
    the first 8 bytes of sha256(utf-8 text || i as 4 big-endian bytes), read
    as a big-endian unsigned integer n and mapped to n / 2**63 - 1."""
    data = text.encode("utf-8")
    out = []
    for i in range(dim):
        digest = hashlib.sha256(data + i.to_bytes(4, "big")).digest()
        out.append(int.from_bytes(digest[:8], "big") / 2**63 - 1.0)
    return out


def oracle_calendar_position(calendar, day: Date) -> int:
    """Index of the last calendar day <= ``day`` by a linear walk; -1 when
    there is none or no calendar is given."""
    pos = -1
    for i, d in enumerate(calendar or ()):
        if d > day:
            break
        pos = i
    return pos


def oracle_importance(event, as_of: Date, calendar=None) -> float:
    """v0 * theta**dt + bonus, theta**dt being the exact rational power
    rounded once; dt counts trading days between the two dates' calendar
    positions, or calendar days when either date has none."""
    p0 = oracle_calendar_position(calendar, event.created_at)
    p1 = oracle_calendar_position(calendar, as_of)
    dt = p1 - p0 if p0 >= 0 and p1 >= 0 else (as_of - event.created_at).days
    power = float(Fraction(event.decay_ratio) ** dt)
    return event.initial_importance * power + event.access_bonus


def oracle_top_k(events, query_emb, as_of: Date, k: int, owner: str,
                 calendar=None) -> list[tuple]:
    """Per-event retrieval reference: ``(event_id, relevancy, importance,
    gamma)`` of the top ``k`` candidates, best first.

    Candidates are ``owner``'s events (in the given order) created at or
    before ``as_of``. Relevancy is cosine similarity, importance is
    ``oracle_importance``; both are min-max scaled (a constant set scales to
    0.5) and summed into gamma. Ties go to the newer event, then the
    smaller id.
    """
    cands = [e for e in events if e.owner == owner and e.created_at <= as_of]
    if not cands:
        return []
    q = [float(x) for x in query_emb]
    q_norm = math.sqrt(sum(x * x for x in q))

    def relevancy(e) -> float:
        v = [float(x) for x in e.embedding]
        dot = sum(x * y for x, y in zip(v, q))
        return dot / (math.sqrt(sum(x * x for x in v)) * q_norm)

    def minmax(xs):
        lo, hi = min(xs), max(xs)
        return [0.5] * len(xs) if hi == lo else [(x - lo) / (hi - lo) for x in xs]

    rel = minmax([relevancy(e) for e in cands])
    imp = minmax([oracle_importance(e, as_of, calendar) for e in cands])
    scored = [(e.event_id, r, i, r + i, e.created_at) for e, r, i in zip(cands, rel, imp)]
    scored.sort(key=lambda s: (-s[3], -s[4].toordinal(), s[0]))
    return [s[:4] for s in scored[:k]]


def oracle_pg(mu, sigma, lo, hi, max_iter: int = 60_000) -> float:
    """Box-constrained mean-variance optimum ``max w.mu - w'Sigma w`` by
    projected gradient: midpoint start, step from ``eigvalsh``, run until the
    objective stops improving or ``max_iter`` steps."""
    lam_max = float(np.linalg.eigvalsh(sigma).max())
    step = 1.0 / (2.5 * max(lam_max, 1e-9))
    w = (lo + hi) / 2.0
    prev = -math.inf
    for _ in range(max_iter):
        w = np.minimum(np.maximum(w + step * (mu - 2.0 * sigma @ w), lo), hi)
        obj = float(w @ mu - w @ (sigma @ w))
        if obj - prev < 1e-15:
            break
        prev = obj
    return float(w @ mu - w @ (sigma @ w))


def oracle_grid(mu, sigma, lo, hi, h: float = 1e-3) -> float:
    """The same optimum by a dense ``h`` grid search over the (at most
    2-dimensional) box."""
    axes = [np.arange(lo[i], hi[i] + h / 2, h) if hi[i] > lo[i]
            else np.array([lo[i]]) for i in range(len(mu))]
    if len(mu) == 1:
        w = axes[0][:, None]
    else:
        g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
        w = np.column_stack([g0.ravel(), g1.ravel()])
    return float((w @ mu - np.einsum("ij,jk,ik->i", w, sigma, w)).max())


# ---------------------------------------------------------------------------
# mock responses
# ---------------------------------------------------------------------------

def insight_response(ticker: str, day: Date, flavor: str) -> str:
    cycle = ("positive", "neutral", "negative")[day.toordinal() % 3]
    return json.dumps({
        "insight": f"{flavor} view on {ticker} for {day.isoformat()}",
        "sentiment": cycle,
    })


def decide_response(directions: dict[str, str], day: Date, cited=()) -> str:
    return json.dumps({
        "actions": directions,
        "reasoning": f"Scripted decision for {day.isoformat()}",
        "cited_memory_ids": list(cited),
        "contributions": {},
    })


def reflect_response(day: Date) -> str:
    return json.dumps({"reflection": f"Lesson recorded on {day.isoformat()}"})


def conceptualize_response(episode) -> str:
    return json.dumps({"insights": {
        "historical momentum": f"Episode {episode}: follow momentum turns promptly.",
        "news insights": f"Episode {episode}: weigh fresh headlines higher.",
    }})


def belief_update_response(episode: int) -> str:
    return json.dumps({
        "meta_prompt": (
            f"After episode {episode}, lean on historical momentum signals and "
            "news insights when they agree."),
        "beliefs": {
            "historical momentum": f"v{episode}: act on momentum sign changes.",
            "news insights": f"v{episode}: trust sentiment only with volume.",
            "other aspects": "sector trends",
        },
    })


# ---------------------------------------------------------------------------
# single-stock fixture
# ---------------------------------------------------------------------------

@dataclass
class Fixture:
    root: Path
    config_path: Path
    script_path: Path
    payload: dict
    ticker: str
    all_days: list[Date]
    closes: list[float]
    train_days: list[Date]
    test_days: list[Date]
    traces: dict = field(default_factory=dict)

    def train_closes(self) -> list[float]:
        i = self.all_days.index(self.train_days[0])
        return self.closes[i:i + len(self.train_days) + 1]

    def test_closes(self) -> list[float]:
        i = self.all_days.index(self.test_days[0])
        return self.closes[i:i + len(self.test_days) + 1]


def constant_directions(label: str):
    return lambda episode, t: label


def varied_directions(episode, t):
    """Direction pattern that changes across episodes (overlap < 1)."""
    if isinstance(episode, str):
        period = 5
    else:
        period = 2 + episode
    return ("long", "short", "neutral")[(t // period) % 3]


def build_single_stock_fixture(root: Path, *, n_train: int = 20, n_test: int = 0,
                               warmup: int = 25, episodes: int = 1,
                               directions_fn=varied_directions,
                               growth=mixed_growth,
                               news_every: int = 0,
                               analyst_roles=("news_analyst", "data_analyst"),
                               cvar_alpha: float = DEFAULT_ALPHA,
                               min_history: int = DEFAULT_MIN_HISTORY,
                               extra_config: dict | None = None,
                               ticker: str = "SYN") -> Fixture:
    """Prices + docs + config + a mock script covering every engine call.

    The trace oracle decides which days need reflect entries and which
    episodes need conceptualize entries; the script contains exactly those
    plus analyze/decide entries for every decision day.
    """
    root.mkdir(parents=True, exist_ok=True)
    total = warmup + n_train + n_test + 1
    all_days = trading_days(Date(2022, 1, 3), total)
    closes = closes_from_growth(total, growth)
    write_price_csv(root / f"prices_{ticker}.csv", all_days, closes)

    train_days = all_days[warmup:warmup + n_train]
    test_days = all_days[warmup + n_train:warmup + n_train + n_test]
    docs = []
    if news_every:
        for idx, day in enumerate(train_days + test_days):
            if idx % news_every == 0:
                docs.append({
                    "doc_id": f"news-{day.isoformat()}",
                    "ticker": ticker,
                    "kind": "news",
                    "published": day.isoformat(),
                    "body": f"Headline about {ticker} on {day.isoformat()}.",
                })
    write_documents(root / "docs.jsonl", docs)
    news_days = {d["published"] for d in docs}

    if n_test:
        test_start, test_end = test_days[0], test_days[-1]
    else:
        test_start = test_end = all_days[-1]
    payload = {
        "mode": "train",
        "tickers": [ticker],
        "data": {"prices": {ticker: f"prices_{ticker}.csv"},
                 "documents": ["docs.jsonl"] if docs else []},
        "dates": {
            "train_start": train_days[0].isoformat(),
            "train_end": train_days[-1].isoformat(),
            "test_start": test_start.isoformat(),
            "test_end": test_end.isoformat(),
        },
        "agents": {"analyst_roles": list(analyst_roles)},
        "risk": {"cvar_alpha": cvar_alpha, "min_cvar_history": min_history},
        "backtest": {"max_episodes": episodes},
    }
    for section, values in (extra_config or {}).items():
        payload.setdefault(section, {}).update(values)
    config_path = root / "config.json"
    config_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    fix = Fixture(root=root, config_path=config_path, script_path=root / "script.jsonl",
                  payload=payload, ticker=ticker, all_days=all_days, closes=closes,
                  train_days=train_days, test_days=test_days)

    entries: list[dict] = []

    def add(role_tag: str, step_key: str, response: str) -> None:
        entries.append({"role_tag": role_tag, "step_key": step_key, "response": response})

    def script_episode(tag, days: list[Date], closes_slice: list[float]) -> None:
        directions = [directions_fn(tag, t) for t in range(len(days))]
        trace = oracle_trace(closes_slice, directions, alpha=cvar_alpha,
                             min_history=min_history)
        fix.traces[tag] = trace
        for t, day in enumerate(days):
            key = f"{tag}:{day.isoformat()}:analyze"
            if "news_analyst" in analyst_roles and day.isoformat() in news_days:
                add(f"news_analyst:{ticker}", key, insight_response(ticker, day, "News"))
            if "data_analyst" in analyst_roles:
                add(f"data_analyst:{ticker}", key, insight_response(ticker, day, "Data"))
            add("manager", f"{tag}:{day.isoformat()}:decide",
                decide_response({ticker: directions[t]}, day))
            if trace[t].alert:
                add("manager", f"{tag}:{day.isoformat()}:reflect", reflect_response(day))

    for k in range(1, episodes + 1):
        script_episode(k, train_days, fix.train_closes())
    if n_test:
        script_episode("test", test_days, fix.test_closes())

    if episodes >= 2:
        last = train_days[-1].isoformat()
        for k in range(1, episodes + 1):
            if oracle_runs([d.pnl for d in fix.traces[k]]):
                add("risk_control", f"{k}:{last}:conceptualize", conceptualize_response(k))
        for k in range(2, episodes + 1):
            add("risk_control", f"{k}:{last}:belief_update", belief_update_response(k))

    fix.script_path.write_text(
        "".join(json.dumps(e, sort_keys=True) + "\n" for e in entries))
    return fix


# ---------------------------------------------------------------------------
# portfolio fixture (data analyst only, one episode)
# ---------------------------------------------------------------------------

def build_portfolio_fixture(root: Path, n_days: int = 8, warmup: int = 25,
                            diverge_at: int | None = None,
                            tickers: tuple[str, ...] = ("AAA", "BBB"),
                            n_test: int = 0):
    """Portfolio fixture, two tickers by default, with constant directions:
    long, short, long, ... in ticker order.

    ``diverge_at`` scales every bar from that global index on by 0.7,
    leaving earlier bars untouched (for no-look-ahead checks). Reflect
    entries exist for every day so either price variant stays scripted.
    ``n_test`` adds a scripted test range right after the training range.
    Returns (config_path, script_path, all_days, closes, range_days).
    """
    root.mkdir(parents=True, exist_ok=True)
    total = warmup + n_days + n_test + 1
    days = trading_days(Date(2022, 1, 3), total)
    closes: dict[str, list[float]] = {}
    for j, t in enumerate(tickers):
        closes[t] = [100.0 * math.exp(sum(0.012 * math.sin(1.0 + 0.9 * i + j)
                                          for i in range(k)))
                     for k in range(total)]
        if diverge_at is not None:
            closes[t] = closes[t][:diverge_at] + [c * 0.7 for c in closes[t][diverge_at:]]
        write_price_csv(root / f"{t}.csv", days, closes[t])
    range_days = days[warmup:warmup + n_days]
    test_days = days[warmup + n_days:warmup + n_days + n_test]
    test_start, test_end = (test_days[0], test_days[-1]) if n_test else (days[-1], days[-1])
    payload = {
        "mode": "train",
        "tickers": list(tickers),
        "data": {"prices": {t: f"{t}.csv" for t in tickers}, "documents": []},
        "dates": {"train_start": range_days[0].isoformat(),
                  "train_end": range_days[-1].isoformat(),
                  "test_start": test_start.isoformat(),
                  "test_end": test_end.isoformat()},
        "agents": {"analyst_roles": ["data_analyst"]},
        "backtest": {"max_episodes": 1},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    entries = []
    actions = {t: ("long", "short")[j % 2] for j, t in enumerate(tickers)}
    for tag, day in [(1, d) for d in range_days] + [("test", d) for d in test_days]:
        key = f"{tag}:{day.isoformat()}:analyze"
        for t in tickers:
            entries.append({"role_tag": f"data_analyst:{t}", "step_key": key,
                            "response": insight_response(t, day, "Data")})
        entries.append({"role_tag": "manager",
                        "step_key": f"{tag}:{day.isoformat()}:decide",
                        "response": decide_response(actions, day)})
        entries.append({"role_tag": "manager",
                        "step_key": f"{tag}:{day.isoformat()}:reflect",
                        "response": reflect_response(day)})
    script_path = root / "script.jsonl"
    script_path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    return config_path, script_path, days, closes, range_days
