"""Layered agent memory with scored top-K retrieval.

Each stored event carries an embedding, an initial importance, a per-day
decay ratio and a cumulative access bonus. Retrieval ranks an agent's own
events by the sum of two [0,1] min-max scaled components: cosine relevancy
to the query embedding and decayed importance (v * theta**dt + bonus, dt in
whole trading days). Events newer than the query's as-of date are never
candidates.

One store serves every agent in a run; ownership filters retrieval. Each
owner's events are indexed in append-only columns (embedding rows, importance
inputs, creation day and its trading-day position, found once at ``add``),
so a query costs numpy work over that owner's events and no Python work per
candidate. The store is safe for concurrent readers and writers (writes are
serialized), and can be persisted to / restored from a JSONL snapshot so a
test stage inherits the training stage's memory.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from collections.abc import KeysView
from dataclasses import dataclass
from datetime import date as Date

import numpy as np

from .data_ingest import jsonl_line, parse_date, read_jsonl_lines
from .errors import DimensionMismatch, FutureEvent, SchemaError, UnknownEventId, ZeroVector

LAYERS = ("working", "procedural", "episodic")

ACCESS_BOOST = 5.0


class HashEmbedder:
    """Deterministic test embedder: content bytes hashed to a fixed vector.

    Each component comes from sha256(content || index), mapped into [-1, 1].
    Stable across platforms and Python versions; no external model needed.
    Production embedders plug in behind the same two-member interface
    (``dim`` attribute and ``embed(text)``).
    """

    def __init__(self, dim: int = 64):
        self.dim = dim
        self._indexes = [i.to_bytes(4, "big") for i in range(dim)]

    def embed(self, text: str) -> np.ndarray:
        content = hashlib.sha256(text.encode("utf-8"))
        words = bytearray()
        for index in self._indexes:
            digest = content.copy()
            digest.update(index)
            words += digest.digest()[:8]
        # uint64 -> float64 rounds once and 2**63 is exact, so each component
        # equals the correctly rounded int(word) / 2**63 - 1.0
        return np.frombuffer(words, dtype=">u8") / 2**63 - 1.0


@dataclass
class MemoryEvent:
    event_id: str
    owner: str
    layer: str
    content: str
    embedding: np.ndarray
    initial_importance: float
    decay_ratio: float
    created_at: Date
    access_bonus: float = 0.0

    def __post_init__(self):
        if self.layer not in LAYERS:
            raise ValueError(f"unknown memory layer {self.layer!r}")
        if not 0.0 < self.decay_ratio < 1.0:
            raise ValueError(f"decay_ratio must be in (0,1), got {self.decay_ratio}")
        if not 0.0 <= self.initial_importance <= 1.0:
            raise ValueError(f"initial_importance must be in [0,1], got {self.initial_importance}")
        if self.access_bonus < 0:
            raise ValueError("access_bonus must be non-negative")

    def to_record(self) -> dict:
        return {
            "event_id": self.event_id,
            "owner": self.owner,
            "layer": self.layer,
            "content": self.content,
            "embedding": np.asarray(self.embedding, dtype=float).tolist(),
            "initial_importance": self.initial_importance,
            "decay_ratio": self.decay_ratio,
            "created_at": self.created_at.isoformat(),
            "access_bonus": self.access_bonus,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "MemoryEvent":
        """The event a snapshot record holds; KeyError, TypeError or
        ValueError when the record does not describe one."""
        for name in ("event_id", "owner", "content"):
            if not isinstance(rec[name], str):
                raise TypeError(f"{name} must be a string, got {rec[name]!r}")
        return cls(
            event_id=rec["event_id"],
            owner=rec["owner"],
            layer=rec["layer"],
            content=rec["content"],
            embedding=np.asarray(rec["embedding"], dtype=float),
            initial_importance=float(rec["initial_importance"]),
            decay_ratio=float(rec["decay_ratio"]),
            created_at=parse_date(rec["created_at"]),
            access_bonus=float(rec["access_bonus"]),
        )


@dataclass(frozen=True)
class MemoryQuery:
    query_text: str
    embedding: np.ndarray
    as_of: Date
    k: int
    owner: str
    layer: str | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class ScoredEvent:
    """A retrieval hit: scaled components and their sum (the ranking score)."""

    event: MemoryEvent
    relevancy: float
    importance: float
    gamma: float


def cosine_matrix(query: np.ndarray, emb: np.ndarray) -> np.ndarray:
    """Cosine similarity between one query vector and each row of ``emb``."""
    qnorm = np.sqrt(query @ query)
    norms = np.sqrt(np.einsum("ij,ij->i", emb, emb))
    return (emb @ query) / (norms * qnorm)


def decay_importance(v0: np.ndarray, theta: np.ndarray, dt: np.ndarray,
                     bonus: np.ndarray) -> np.ndarray:
    """Elementwise v0 * theta**dt + bonus."""
    return v0 * np.power(theta, dt) + bonus


def importance_score(event: MemoryEvent, as_of: Date,
                     calendar: tuple[Date, ...] | None = None) -> float:
    """Decayed importance v * theta**dt + access bonus.

    dt counts whole trading days when a calendar is supplied, calendar days
    otherwise. ``as_of`` may not precede the event's creation date.
    """
    if as_of < event.created_at:
        raise FutureEvent(f"{event.event_id} created {event.created_at}, queried {as_of}")
    dt = int(elapsed_days(trading_position(calendar, event.created_at),
                          trading_position(calendar, as_of),
                          (as_of - event.created_at).days))
    return float(decay_importance(event.initial_importance, event.decay_ratio, dt,
                                  event.access_bonus))


def trading_position(calendar: tuple[Date, ...] | None, day: Date) -> int:
    """Position of the last calendar day <= ``day``; -1 when there is none
    (``day`` precedes the calendar, or no calendar is given)."""
    if calendar is None:
        return -1
    return bisect.bisect_right(calendar, day) - 1


def elapsed_days(created_pos, as_of_pos, calendar_days):
    """dt for decay: trading days between the two positions, or the calendar
    days given when either date has no position. Elementwise on arrays."""
    return np.where((created_pos >= 0) & (as_of_pos >= 0),
                    np.maximum(as_of_pos - created_pos, 0), calendar_days)


def scale_unit(values: np.ndarray) -> np.ndarray:
    """Min-max scale to [0,1]; a degenerate (constant) set scales to 0.5."""
    values = np.asarray(values, dtype=float)
    lo = float(values.min())
    hi = float(values.max())
    if hi == lo:
        return np.full(values.shape, 0.5)
    return (values - lo) / (hi - lo)


def score_candidates(raw_relevancy: np.ndarray, raw_importance: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scaled relevancy, scaled importance, and their sum (the retrieval score)."""
    s_rel = scale_unit(raw_relevancy)
    s_imp = scale_unit(raw_importance)
    return s_rel, s_imp, s_rel + s_imp


def rank_top_k(gamma: np.ndarray, created: np.ndarray, event_id, k: int) -> np.ndarray:
    """Positions of the ``k`` best candidates, best first: higher gamma, then
    the newer event (larger ``created``), then the smaller ``event_id(i)``.

    Only candidates scoring at least the k-th largest gamma can be among the
    k best, so ids are looked up for those alone.
    """
    n = len(gamma)
    keep = np.arange(n)
    if n > k:
        kth = np.partition(gamma, n - k)[n - k]
        if not np.isnan(kth):  # NaN scores (a zero event embedding) sort all
            keep = np.flatnonzero(gamma >= kth)
    ids = np.array([event_id(i) for i in keep])
    return keep[np.lexsort((ids, -created[keep], -gamma[keep]))][:k]


_LAYER_CODE = {layer: code for code, layer in enumerate(LAYERS)}


class _OwnerColumns:
    """One owner's events in insertion order, as append-only columns.

    The arrays grow by doubling; ``n`` rows are in use. A row never changes
    after ``append`` except its ``bonus``. All embeddings share one dim.
    """

    _ARRAYS = ("emb", "v0", "theta", "bonus", "created", "pos", "layer")

    def __init__(self, dim: int):
        self.n = 0
        self.events: list[MemoryEvent] = []
        cap = 16
        self.emb = np.empty((cap, dim))
        self.v0 = np.empty(cap)
        self.theta = np.empty(cap)
        self.bonus = np.empty(cap)
        self.created = np.empty(cap, dtype=np.int64)
        self.pos = np.empty(cap, dtype=np.int64)
        self.layer = np.empty(cap, dtype=np.int8)

    def append(self, event: MemoryEvent, pos: int) -> int:
        dim = self.emb.shape[1]
        if np.shape(event.embedding) != (dim,):
            raise DimensionMismatch(
                f"event {event.event_id}: embedding shape {np.shape(event.embedding)}, "
                f"owner {event.owner} stores dim {dim}")
        i = self.n
        if i == len(self.v0):
            for name in self._ARRAYS:
                old = getattr(self, name)
                new = np.empty((2 * len(old),) + old.shape[1:], dtype=old.dtype)
                new[:i] = old
                setattr(self, name, new)
        self.emb[i] = event.embedding
        self.v0[i] = event.initial_importance
        self.theta[i] = event.decay_ratio
        self.bonus[i] = event.access_bonus
        self.created[i] = event.created_at.toordinal()
        self.pos[i] = pos
        self.layer[i] = _LAYER_CODE[event.layer]
        self.events.append(event)
        self.n = i + 1
        return i


class MemoryStore:
    """Event storage shared by all agents, indexed per owner; writes serialized.

    ``boost_access`` is the one way to change a stored event's access bonus.
    Every event of one owner must have the same embedding dim.
    """

    def __init__(self, calendar: tuple[Date, ...] | None = None):
        self.calendar = tuple(calendar) if calendar is not None else None
        self._events: dict[str, MemoryEvent] = {}
        self._owners: dict[str, _OwnerColumns] = {}
        self._rows: dict[str, tuple[_OwnerColumns, int]] = {}
        # event_id -> (access bonus when encoded, snapshot line)
        self._encoded: dict[str, tuple[float, str]] = {}
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._events)

    def add(self, event: MemoryEvent) -> None:
        with self._lock:
            if event.event_id in self._events:
                raise ValueError(f"duplicate event_id {event.event_id!r}")
            cols = self._owners.get(event.owner)
            if cols is None:
                cols = _OwnerColumns(len(event.embedding))
            row = cols.append(event, trading_position(self.calendar, event.created_at))
            self._owners[event.owner] = cols
            self._rows[event.event_id] = (cols, row)
            self._events[event.event_id] = event

    def get(self, event_id: str) -> MemoryEvent:
        try:
            return self._events[event_id]
        except KeyError:
            raise UnknownEventId(event_id) from None

    def has(self, event_id: str) -> bool:
        return event_id in self._events

    def all_ids(self) -> KeysView[str]:
        """Live view of every stored event id (membership tests, no copy)."""
        return self._events.keys()

    def boost_access(self, event_id: str) -> None:
        """Add the fixed retrieval bonus to one event; cumulative across calls."""
        with self._lock:
            event = self.get(event_id)
            event.access_bonus += ACCESS_BOOST
            cols, row = self._rows[event_id]
            cols.bonus[row] = event.access_bonus

    def retrieve_top_k(self, query: MemoryQuery) -> list[ScoredEvent]:
        """Top-k events for the query's owner, ranked by combined score.

        Candidates are the owner's events created at or before ``as_of``
        (optionally restricted to one layer), in insertion order. Ties break
        toward the newer event, then the lexicographically smaller event_id.
        """
        as_of = query.as_of.toordinal()
        with self._lock:
            cols = self._owners.get(query.owner)
            if cols is None:
                return []
            n = cols.n
            mask = cols.created[:n] <= as_of
            if query.layer is not None:
                mask &= cols.layer[:n] == _LAYER_CODE.get(query.layer, -1)
            rows = np.flatnonzero(mask)
            if rows.size == 0:
                return []
            # fancy indexing copies, so the arrays are safe to use unlocked
            emb, v0, theta = cols.emb[rows], cols.v0[rows], cols.theta[rows]
            bonus, created, pos = cols.bonus[rows], cols.created[rows], cols.pos[rows]
            events = cols.events
        dim = len(query.embedding)
        if emb.shape[1] != dim:
            raise DimensionMismatch(
                f"event {events[rows[0]].event_id}: dim {emb.shape[1]} vs query {dim}")
        q = np.asarray(query.embedding, dtype=float)
        if float(q @ q) == 0.0:
            raise ZeroVector("query embedding is zero")
        raw_rel = cosine_matrix(q, emb)
        dts = elapsed_days(pos, trading_position(self.calendar, query.as_of),
                           as_of - created).astype(float)
        raw_imp = decay_importance(v0, theta, dts, bonus)
        s_rel, s_imp, gamma = score_candidates(raw_rel, raw_imp)
        order = rank_top_k(gamma, created, lambda i: events[rows[i]].event_id, query.k)
        return [
            ScoredEvent(event=events[rows[i]], relevancy=float(s_rel[i]),
                        importance=float(s_imp[i]), gamma=float(gamma[i]))
            for i in order
        ]

    def save_jsonl(self, path) -> None:
        """Snapshot every event, one JSON object per line, sorted by id.

        Each event's line is encoded once and again only after its access
        bonus changes, so repeated snapshots of a growing store stay cheap.
        An event ``load_jsonl`` read keeps the line it was read from (stripped,
        ending in a newline) until its bonus changes, so a snapshot this
        method wrote loads and saves back byte for byte.
        """
        with self._lock:
            events = sorted(self._events.items())
        with open(path, "w", encoding="utf-8") as fh:
            for event_id, event in events:
                cached = self._encoded.get(event_id)
                if cached is None or cached[0] != event.access_bonus:
                    line = jsonl_line(event.to_record())
                    cached = self._encoded[event_id] = (event.access_bonus, line)
                fh.write(cached[1])

    @classmethod
    def load_jsonl(cls, path, calendar: tuple[Date, ...] | None = None) -> "MemoryStore":
        """The store a ``save_jsonl`` snapshot holds, each line kept as its
        event's encoding. SchemaError(row, None) names the file and row of a
        line that is not JSON or not an event the store accepts."""
        store = cls(calendar=calendar)
        for row_no, line, rec in read_jsonl_lines(path):
            try:
                event = MemoryEvent.from_record(rec)
                store.add(event)
            except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
                raise SchemaError.not_a(path, "memory event", exc, row_no) from None
            store._encoded[event.event_id] = (event.access_bonus, line + "\n")
        return store
