"""Workload shapes, the seeded input generator and the latency/fault backend.

The generator writes everything the program reads (price CSVs, a document
JSONL, a train and a test config, a mock script) into one directory and
returns what the correctness gate needs to know about those inputs (closes,
scripted directions, calendar slices). The program itself only ever sees
the files.

Response bodies, price/document writers and the trace oracle come from
``tests/fixtures.py`` so the benchmark and the test suite share one copy.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import threading
import time
from dataclasses import dataclass, field
from datetime import date as Date
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
for _p in (REPO / "src", REPO / "tests"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import fixtures  # noqa: E402  (tests/fixtures.py)

DIRECTIONS = ("long", "short", "neutral")
TEXT_KIND = {
    "news_analyst": "news",
    "filing10k_analyst": "form10k",
    "filing10q_analyst": "form10q",
    "ecc_analyst": "ecc_transcript",
}
ALL_KINDS = ("news", "form10k", "form10q", "ecc_transcript", "analyst_report")
ALL_ROLES = ("news_analyst", "filing10k_analyst", "filing10q_analyst", "ecc_analyst",
             "data_analyst")

TRAIN_CONFIG = "config.json"
TEST_CONFIG = "config_test.json"
SCRIPT = "script.jsonl"
TRAIN_DIR = "runs/train"
TEST_DIR = "runs/test"


@dataclass(frozen=True)
class Workload:
    name: str
    tickers: tuple[str, ...]
    roles: tuple[str, ...]
    warmup: int
    train_days: int
    episodes: int
    test_days: int
    # probability that a document of this kind is published for a ticker on a day
    doc_rates: dict = field(default_factory=dict)
    latency_ms: float = 0.0
    fault_rate: float = 0.0


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload(
        name="single_train",
        tickers=("SYN",),
        roles=("news_analyst", "filing10q_analyst", "ecc_analyst", "data_analyst"),
        warmup=30, train_days=50, episodes=3, test_days=25,
        doc_rates={"news": 0.3, "form10q": 1 / 60, "ecc_transcript": 1 / 60},
    ),
    Workload(
        name="portfolio_wide",
        tickers=tuple(f"T{i:02d}" for i in range(8)),
        roles=("data_analyst",),
        warmup=250, train_days=30, episodes=1, test_days=15,
    ),
    Workload(
        name="latency_fanout",
        tickers=("AAA", "BBB"),
        roles=ALL_ROLES,
        warmup=30, train_days=16, episodes=1, test_days=8,
        doc_rates={kind: 1.0 for kind in ALL_KINDS},
        latency_ms=10.0, fault_rate=0.05,
    ),
)}


@dataclass
class Inputs:
    """What the gate knows about one generated input set."""

    workload: Workload
    calendar: list[Date]
    closes: dict[str, list[float]]
    train_days: list[Date]
    test_days: list[Date]
    # episode tag (1..E or "test") -> per-day {ticker: direction}
    directions: dict[object, list[dict[str, str]]]

    def closes_for(self, ticker: str, days: list[Date]) -> list[float]:
        """Closes of ``days`` plus the realizing bar after the last one."""
        i = self.calendar.index(days[0])
        return self.closes[ticker][i:i + len(days) + 1]


def _price_path(rng: random.Random, n: int) -> list[float]:
    closes = [100.0 * math.exp(rng.uniform(-0.3, 0.3))]
    for _ in range(n - 1):
        closes.append(closes[-1] * math.exp(rng.gauss(0.0003, 0.015)))
    return closes


def generate(workload: Workload, seed: int, root: Path) -> Inputs:
    """Write a complete, self-consistent input set for ``workload`` under ``root``.

    Byte-identical for a given (workload, seed). The mock script answers
    every call the engine can make on these inputs: analyze entries exactly
    where an analyst has something to read, decide and reflect entries for
    every day, conceptualize for every episode and belief_update from
    episode 2 on. Directions are drawn per episode, so consecutive episodes
    overlap by about a third and training never converges early.
    """
    w = workload
    rng = random.Random(f"{w.name}:{seed}")
    data_dir = root / "inputs"
    data_dir.mkdir(parents=True, exist_ok=True)

    total = w.warmup + w.train_days + w.test_days + 1
    calendar = fixtures.trading_days(Date(2021, 1, 4), total)
    train_days = calendar[w.warmup:w.warmup + w.train_days]
    test_days = calendar[w.warmup + w.train_days:w.warmup + w.train_days + w.test_days]
    closes = {}
    for t in w.tickers:
        closes[t] = _price_path(rng, total)
        fixtures.write_price_csv(data_dir / f"prices_{t}.csv", calendar, closes[t])

    docs = []
    doc_days: set[tuple[str, str, Date]] = set()
    for day in train_days + test_days:
        for t in w.tickers:
            for kind in ALL_KINDS:
                if rng.random() < w.doc_rates.get(kind, 0.0):
                    doc_days.add((t, kind, day))
                    docs.append({
                        "doc_id": f"{kind}-{t}-{day.isoformat()}",
                        "ticker": t,
                        "kind": kind,
                        "published": day.isoformat(),
                        "body": f"{kind} item on {t} ({day.isoformat()}), tone "
                                f"{rng.choice(('upbeat', 'cautious', 'mixed'))}.",
                    })
    fixtures.write_documents(data_dir / "docs.jsonl", docs)

    tags = list(range(1, w.episodes + 1)) + ["test"]
    directions = {
        tag: [{t: rng.choice(DIRECTIONS) for t in w.tickers}
              for _ in (test_days if tag == "test" else train_days)]
        for tag in tags
    }

    payload = {
        "mode": "train",
        "tickers": list(w.tickers),
        "data": {"prices": {t: f"inputs/prices_{t}.csv" for t in w.tickers},
                 "documents": ["inputs/docs.jsonl"]},
        "dates": {"train_start": train_days[0].isoformat(),
                  "train_end": train_days[-1].isoformat(),
                  "test_start": test_days[0].isoformat(),
                  "test_end": test_days[-1].isoformat()},
        "agents": {"analyst_roles": list(w.roles)},
        "backtest": {"max_episodes": w.episodes},
    }
    (root / TRAIN_CONFIG).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    # train_run_dir is relative to both the working directory and the config's
    # directory, which are the same (the benchmark runs inside ``root``)
    test_payload = dict(payload, mode="test",
                        backtest={"max_episodes": w.episodes, "train_run_dir": TRAIN_DIR})
    (root / TEST_CONFIG).write_text(json.dumps(test_payload, indent=2, sort_keys=True) + "\n")

    entries = []

    def add(role_tag: str, step_key: str, response: str) -> None:
        entries.append({"role_tag": role_tag, "step_key": step_key, "response": response})

    cite_owner = f"data_analyst:{w.tickers[0]}"
    for tag in tags:
        days = test_days if tag == "test" else train_days
        for day, dirs in zip(days, directions[tag]):
            key = f"{tag}:{day.isoformat()}"
            for role in w.roles:
                for t in w.tickers:
                    if role == "data_analyst" or (t, TEXT_KIND[role], day) in doc_days:
                        add(f"{role}:{t}", f"{key}:analyze",
                            fixtures.insight_response(t, day, role))
            # cite today's data-analyst insight so significant days boost it
            add("manager", f"{key}:decide", fixtures.decide_response(
                dirs, day, cited=[f"{cite_owner}:{key}:insight"]))
            add("manager", f"{key}:reflect", fixtures.reflect_response(day))
    last = train_days[-1].isoformat()
    for k in range(1, w.episodes + 1):
        add("risk_control", f"{k}:{last}:conceptualize", fixtures.conceptualize_response(k))
        if k >= 2:
            add("risk_control", f"{k}:{last}:belief_update",
                fixtures.belief_update_response(k))
    (root / SCRIPT).write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in entries))

    return Inputs(workload=w, calendar=calendar, closes=closes,
                  train_days=train_days, test_days=test_days, directions=directions)


def _unit(*parts) -> float:
    """Uniform [0, 1) value from a hash of ``parts``; independent of call order."""
    digest = hashlib.sha256("|".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class LatencyFaultBackend:
    """Backend wrapper that sleeps a seeded latency and injects malformed replies.

    Latency and the fault decision are functions of ``(seed, role_tag,
    step_key)`` (latency also of the attempt number), never of call order,
    so the faulted set is the same whatever the analyst pool's scheduling.
    A faulted key answers malformed JSON on its first attempt only; the
    gateway's schema retry then reaches the wrapped backend.
    """

    MALFORMED = '{"insight": "truncated'

    def __init__(self, inner, seed: int, latency_ms: float, fault_rate: float):
        self.inner = inner
        self.seed = seed
        self.latency_s = latency_ms / 1000.0
        self.fault_rate = fault_rate
        self._lock = threading.Lock()
        self._attempts: dict[tuple[str, str], int] = {}
        self.faulted: set[tuple[str, str]] = set()

    def is_faulty(self, role_tag: str, step_key: str) -> bool:
        return _unit(self.seed, "fault", role_tag, step_key) < self.fault_rate

    def generate(self, request) -> str:
        key = (request.role_tag, request.step_key)
        with self._lock:
            attempt = self._attempts.get(key, 0)
            self._attempts[key] = attempt + 1
        if self.latency_s > 0:
            time.sleep(self.latency_s * (0.5 + _unit(self.seed, "latency", *key, attempt)))
        if attempt == 0 and self.is_faulty(*key):
            with self._lock:
                self.faulted.add(key)
            return self.MALFORMED
        return self.inner.generate(request)
