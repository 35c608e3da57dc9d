"""Span recorder for the traced run, installed from outside the package.

``Tracer.install`` wraps the public functions each fincon module exposes to
the backtest engine (the names ``fincon.backtest`` imported, and class
methods), ``patch_backend`` wraps one gateway backend instance, and
``uninstall`` restores everything, so untraced runs execute the unmodified
program.

Spans carry ``(id, name, start, end, parent, run_id)``. The parent is the
innermost open span of the same thread; an analyst step on a pool thread
has no open span of its own and takes the current decision-day span as its
parent. A decision day is not a function of its own: its span opens at the
engine's ``assemble_observation`` call and closes at the next one or when
the episode returns.

``attribute`` turns spans into self times that add up to wall time even
when pool threads overlap: every instant is shared equally among the
innermost spans open at that instant, and an instant that no span covers
is reported as uncovered. ``check_spans`` verifies the structure that this
attribution relies on.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import statistics
import threading
import weakref
from collections import Counter, defaultdict
from time import perf_counter

from fincon import backtest
from fincon.agents import NO_SIGNAL, Router
from fincon.data_ingest import MarketData
from fincon.llm_gateway import LlmGateway
from fincon.memory import HashEmbedder, MemoryStore

DAY = "backtest.day"
ANALYST = "agents.analyst"
OBSERVE = "data_ingest.observe"
ENGINE_SPANS = ("backtest.train", "backtest.test", "backtest.episode", DAY)
# the top-level spans must cover all but this share of a traced iteration
COVERAGE_TOLERANCE = 0.02

# (owner, attribute, span name); backtest-module names are the engine's
# imports from the other modules
WRAPPED = [
    (MarketData, "load", "data_ingest.load"),
    (MarketData, "log_returns_to", "data_ingest.returns"),
    (MarketData, "close", "data_ingest.close"),
    (MarketData, "trading_day_after", "data_ingest.calendar"),
    (MemoryStore, "retrieve_top_k", "memory.retrieve"),
    (MemoryStore, "add", "memory.add"),
    (MemoryStore, "all_ids", "memory.ids"),
    (MemoryStore, "boost_access", "memory.boost"),
    (MemoryStore, "save_jsonl", "memory.snapshot"),
    (MemoryStore, "load_jsonl", "memory.snapshot"),
    (HashEmbedder, "embed", "memory.embed"),
    (LlmGateway, "complete", "llm_gateway.complete"),
    (backtest, "analyst_step", ANALYST),
    (backtest, "manager_step", "agents.manager"),
    (backtest, "reflect_step", "agents.reflect"),
    (backtest, "send_feedback", "agents.feedback"),
    (backtest, "single_stock_weights", "agents.weights"),
    (Router, "send", "agents.route"),
    (backtest, "cvar", "risk_control.cvar"),
    (backtest, "var_cvar", "risk_control.var_cvar"),
    (backtest, "alert_trigger", "risk_control.trigger"),
    (backtest, "within_episode_check", "risk_control.trigger"),
    (backtest, "compare_and_update", "risk_control.belief_update"),
    (backtest, "convergence_check", "risk_control.convergence"),
    (backtest, "shrink_estimates", "portfolio.shrink"),
    (backtest, "solve_mean_variance", "portfolio.solve"),
    (backtest, "scale_to_positions", "portfolio.scale"),
    (backtest, "train", "backtest.train"),
    (backtest, "test", "backtest.test"),
] + [(backtest.RunWriter, name, "backtest.persist")
     for name in sorted(vars(backtest.RunWriter)) if name.startswith("write_")]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._lock = threading.Lock()
        self._day: tuple | None = None
        self._patches: list[tuple] = []
        # store -> (owner, layer) -> sorted creation ordinals, to count the
        # candidates each retrieval scores without re-reading the store
        self._created = weakref.WeakKeyDictionary()

    # -- recording ------------------------------------------------------------

    def begin(self, run_id: int) -> None:
        self.spans = []
        self.counts = Counter()
        self.run_id = run_id
        self._day = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list):
        if stack:
            return stack[-1]
        if self._day is not None and threading.current_thread() is not self._main:
            return self._day[0]
        return None

    def _close_day(self) -> None:
        if self._day is None:
            return
        sid, start, parent = self._day
        stack = self._stack()
        if stack and stack[-1] == sid:
            stack.pop()
        self.spans.append((sid, DAY, start, perf_counter(), parent, self.run_id))
        self._day = None

    def _open_day(self) -> None:
        self._close_day()
        stack = self._stack()
        sid = next(self._ids)
        self._day = (sid, perf_counter(), self._parent(stack))
        stack.append(sid)

    def wrap(self, name: str, func, after=None, closes_day: bool = False):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                if closes_day:
                    tracer._close_day()
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, tracer.run_id))
            if after is not None:
                with tracer._lock:
                    after(args, result)
            return result

        return traced

    # -- counters (run after the span closes) -----------------------------------

    def _on_add(self, args, result) -> None:
        store, event = args
        index = self._created.setdefault(store, defaultdict(list))
        day = event.created_at.toordinal()
        for key in ((event.owner, event.layer), (event.owner, None)):
            bisect.insort(index[key], day)

    def _on_retrieve(self, args, result) -> None:
        store, query = args
        created = self._created.get(store, {}).get((query.owner, query.layer), [])
        self.counts["candidates"] += bisect.bisect_right(created, query.as_of.toordinal())

    def _on_analyst(self, args, result) -> None:
        if result[0].distilled_insight == NO_SIGNAL:
            self.counts["no_signal"] += 1

    def _on_check(self, args, result) -> None:
        if result.alert:
            self.counts["alerts"] += 1

    # -- install / uninstall ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced function; undone by ``uninstall``."""
        after = {"memory.add": self._on_add, "memory.retrieve": self._on_retrieve,
                 ANALYST: self._on_analyst}
        for owner, attr, name in WRAPPED:
            original = vars(owner)[attr]
            hook = self._on_check if attr == "within_episode_check" else after.get(name)
            if isinstance(original, classmethod):
                self._patch(owner, attr, classmethod(self.wrap(name, original.__func__, hook)))
            else:
                self._patch(owner, attr, self.wrap(name, original, hook))
        self._patch(backtest, "assemble_observation",
                    self._observe(backtest.assemble_observation))
        self._patch(backtest.BacktestEngine, "run_episode",
                    self.wrap("backtest.episode", backtest.BacktestEngine.run_episode,
                              closes_day=True))

    def patch_backend(self, backend) -> None:
        """Trace ``generate`` on this backend instance; undone by ``uninstall``."""
        self._patch(backend, "generate", self.wrap("llm_gateway.backend", backend.generate))

    def _observe(self, func):
        traced = self.wrap(OBSERVE, func)

        @functools.wraps(func)
        def observe(*args, **kwargs):
            self._open_day()
            return traced(*args, **kwargs)

        return observe

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches = []


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def attribute(spans, t0: float, t1: float) -> tuple[dict, float]:
    """Share of [t0, t1] owned by each span id, and the uncovered remainder."""
    parent_of = {}
    events = []
    for sid, _name, start, end, parent, _run in spans:
        parent_of[sid] = parent
        events.append((start, 1, sid))
        # at equal times ends come first, the later-opened span first
        events.append((end, 0, -sid))
    events.sort()
    share: dict = defaultdict(float)
    open_children: Counter = Counter()
    active: set = set()
    leaves: set = set()
    uncovered = 0.0
    prev = t0
    for when, is_start, key in events:
        dt = min(when, t1) - max(prev, t0)
        if dt > 0:
            if leaves:
                each = dt / len(leaves)
                for sid in leaves:
                    share[sid] += each
            else:
                uncovered += dt
        prev = max(prev, when)
        sid = key if is_start else -key
        parent = parent_of[sid]
        if is_start:
            active.add(sid)
            leaves.add(sid)
            if parent in active:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent in active:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    uncovered += max(0.0, t1 - max(prev, t0))
    return share, uncovered


def check_spans(spans, t0: float, t1: float) -> list[str]:
    """Structural checks of one traced iteration over [t0, t1]; failure
    strings, empty when every check passes.

    Every span lies inside its parent's interval and run, every analyst step
    has a decision day as its parent (a pool thread that does not find the
    day would be attributed as a top-level span), and the top-level spans
    cover all but ``COVERAGE_TOLERANCE`` of [t0, t1].
    """
    by_id = {s[0]: s for s in spans}
    errors = []
    for sid, name, start, end, parent, run_id in spans:
        if parent is None:
            if name == ANALYST:
                errors.append(f"{name} span {sid} has no decision-day parent")
            continue
        p = by_id.get(parent)
        if p is None:
            errors.append(f"{name} span {sid}: parent {parent} was never closed")
        elif p[5] != run_id or start < p[2] or end > p[3]:
            errors.append(f"{name} span {sid} (run {run_id}, {start:.6f}..{end:.6f}) lies "
                          f"outside its parent {p[1]} (run {p[5]}, {p[2]:.6f}..{p[3]:.6f})")
        elif name == ANALYST and p[1] != DAY:
            errors.append(f"{name} span {sid} has parent {p[1]}, not a decision day")
    covered, reach = 0.0, t0
    for start, end in sorted((s[2], s[3]) for s in spans if s[4] is None):
        start, end = max(start, reach), min(end, t1)
        if end > start:
            covered += end - start
            reach = end
    if covered < (1.0 - COVERAGE_TOLERANCE) * (t1 - t0):
        errors.append(f"top-level spans cover {covered:.4f} s of the {t1 - t0:.4f} s traced")
    return errors


def layer_metrics(tracer: Tracer, t0: float, t1: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced iteration over [t0, t1], and the
    wall-time accounting that backs them."""
    spans = tracer.spans
    share, uncovered = attribute(spans, t0, t1)
    self_s: dict = defaultdict(float)
    total_s: dict = defaultdict(float)
    calls: Counter = Counter()
    for sid, name, start, end, _parent, _run in spans:
        self_s[name] += share[sid]
        total_s[name] += end - start
        calls[name] += 1

    def layer(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

    days = [s for s in spans if s[1] == DAY]
    by_day = defaultdict(list)
    for s in spans:
        if s[1] == ANALYST and s[4] is not None:
            by_day[s[4]].append(s)
    fanout_wall = sum(max(s[3] for s in group) - min(s[2] for s in group)
                      for group in by_day.values())
    analyst_busy = sum(s[3] - s[2] for group in by_day.values() for s in group)
    completions = calls["llm_gateway.complete"]
    attempts = calls["llm_gateway.backend"]
    candidates = tracer.counts["candidates"]
    retrieve_s = self_s["memory.retrieve"]

    glue = sum(self_s[n] for n in ENGINE_SPANS) + uncovered
    metrics = {
        "data_ingest.load_s": total_s["data_ingest.load"],
        "data_ingest.observe_s": self_s[OBSERVE],
        "data_ingest.observe_calls": calls[OBSERVE],
        "data_ingest.returns_s": self_s["data_ingest.returns"],
        "data_ingest.returns_calls": calls["data_ingest.returns"],
        "data_ingest.close_calls": calls["data_ingest.close"],
        "data_ingest.self_s": layer("data_ingest"),
        "memory.retrieve_s": retrieve_s,
        "memory.retrieve_calls": calls["memory.retrieve"],
        "memory.candidates_scored": candidates,
        "memory.retrieve_us_per_candidate": 1e6 * retrieve_s / max(candidates, 1),
        "memory.embed_s": self_s["memory.embed"],
        "memory.embed_calls": calls["memory.embed"],
        "memory.add_s": self_s["memory.add"],
        "memory.snapshot_s": total_s["memory.snapshot"],
        "memory.self_s": layer("memory"),
        "llm_gateway.completions": completions,
        "llm_gateway.attempts": attempts,
        "llm_gateway.retries": attempts - completions,
        "llm_gateway.useful_ratio": completions / max(attempts, 1),
        "llm_gateway.self_s": self_s["llm_gateway.complete"],
        "llm_gateway.backend_wait_s": total_s["llm_gateway.backend"],
        "agents.analyst_s": self_s[ANALYST],
        "agents.analyst_calls": calls[ANALYST],
        "agents.no_signal": tracer.counts["no_signal"],
        "agents.manager_s": self_s["agents.manager"],
        "agents.reflect_s": self_s["agents.reflect"],
        "agents.reflect_calls": calls["agents.reflect"],
        "agents.feedback_s": self_s["agents.feedback"],
        "agents.fanout_wall_s": fanout_wall,
        "agents.fanout_overlap": analyst_busy / fanout_wall if fanout_wall else 0.0,
        "agents.self_s": layer("agents"),
        "risk_control.cvar_s": self_s["risk_control.cvar"],
        "risk_control.cvar_calls": calls["risk_control.cvar"],
        "risk_control.alerts": tracer.counts["alerts"],
        "risk_control.belief_update_s": self_s["risk_control.belief_update"],
        "risk_control.self_s": layer("risk_control"),
        "portfolio.solve_s": self_s["portfolio.solve"],
        "portfolio.shrink_s": self_s["portfolio.shrink"],
        "portfolio.solves": calls["portfolio.solve"],
        "portfolio.self_s": layer("portfolio"),
        "backtest.persist_s": self_s["backtest.persist"],
        "backtest.glue_s": glue,
    }
    parts = {
        "data_ingest": metrics["data_ingest.self_s"],
        "memory": metrics["memory.self_s"],
        "llm_gateway": metrics["llm_gateway.self_s"],
        "llm_gateway.backend (attributed)": self_s["llm_gateway.backend"],
        "agents": metrics["agents.self_s"],
        "risk_control": metrics["risk_control.self_s"],
        "portfolio": metrics["portfolio.self_s"],
        "backtest.persist": metrics["backtest.persist_s"],
        "backtest.glue": glue,
    }
    accounting = {"wall_s": t1 - t0, "parts": parts,
                  "day_ms": [1000.0 * (s[3] - s[2]) for s in days]}
    return metrics, accounting


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def summarize(traced: list[dict], day_ms: list[float],
              traced_days_per_s: list[float], untraced_days_per_s: list[float]):
    """Per-layer result of a traced run: medians of per-iteration times;
    counts, which must repeat exactly, taken as they are.

    Returns (metrics, {count name: distinct values}) where the second map
    lists every count that did not repeat."""
    out, unstable = {}, {}
    for name in traced[0]:
        values = [m[name] for m in traced]
        if isinstance(values[0], int):
            if len(set(values)) > 1:
                unstable[name] = sorted(set(values))
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    out["backtest.day_p50_ms"] = percentile(day_ms, 50)
    out["backtest.day_p99_ms"] = percentile(day_ms, 99)
    out["backtest.day_samples"] = len(day_ms)
    plain = statistics.median(untraced_days_per_s)
    out["trace_overhead_pct"] = 100.0 * (plain - statistics.median(traced_days_per_s)) / plain
    return out, unstable
