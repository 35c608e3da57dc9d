"""Layered agent memory with scored top-K retrieval.

Each stored event carries an embedding, an initial importance, a per-day
decay ratio and a cumulative access bonus. Retrieval ranks an agent's own
events by the sum of two [0,1] min-max scaled components: cosine relevancy
to the query embedding and decayed importance (v * theta**dt + bonus, dt in
whole trading days). Events newer than the query's as-of date are never
candidates.

One store serves every agent in a run; ownership filters retrieval. The
store is safe for many concurrent readers with serialized writers, and can
be persisted to / restored from a JSONL snapshot so a test stage inherits
the training stage's memory.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from datetime import date as Date

import numpy as np

from .errors import DimensionMismatch, FutureEvent, UnknownEventId, ZeroVector

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

    def embed(self, text: str) -> np.ndarray:
        data = text.encode("utf-8")
        out = np.empty(self.dim)
        for i in range(self.dim):
            digest = hashlib.sha256(data + i.to_bytes(4, "big")).digest()
            out[i] = int.from_bytes(digest[:8], "big") / 2**63 - 1.0
        return out


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
            "embedding": [float(x) for x in self.embedding],
            "initial_importance": self.initial_importance,
            "decay_ratio": self.decay_ratio,
            "created_at": self.created_at.isoformat(),
            "access_bonus": self.access_bonus,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "MemoryEvent":
        y, m, d = (int(p) for p in rec["created_at"].split("-"))
        return cls(
            event_id=rec["event_id"],
            owner=rec["owner"],
            layer=rec["layer"],
            content=rec["content"],
            embedding=np.asarray(rec["embedding"], dtype=float),
            initial_importance=float(rec["initial_importance"]),
            decay_ratio=float(rec["decay_ratio"]),
            created_at=Date(y, m, d),
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


def relevancy_score(query_emb: np.ndarray, event_emb: np.ndarray) -> float:
    """Cosine similarity in [-1, 1] between two equal-length nonzero vectors."""
    a = np.asarray(query_emb, dtype=float)
    b = np.asarray(event_emb, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    if float(a @ a) == 0.0 or float(b @ b) == 0.0:
        raise ZeroVector("cosine similarity undefined for a zero vector")
    return float(cosine_matrix(a, b[np.newaxis, :])[0])


def importance_score(event: MemoryEvent, as_of: Date,
                     calendar: tuple[Date, ...] | None = None) -> float:
    """Decayed importance v * theta**dt + access bonus.

    dt counts whole trading days when a calendar is supplied, calendar days
    otherwise. ``as_of`` may not precede the event's creation date.
    """
    if as_of < event.created_at:
        raise FutureEvent(f"{event.event_id} created {event.created_at}, queried {as_of}")
    dt = _delta_days(event.created_at, as_of, calendar)
    return float(decay_importance(event.initial_importance, event.decay_ratio, dt,
                                  event.access_bonus))


def _delta_days(created: Date, as_of: Date, calendar: tuple[Date, ...] | None) -> int:
    if calendar is None:
        return (as_of - created).days
    # positions of the last calendar day <= each endpoint
    def pos(d: Date) -> int:
        p = -1
        for i, c in enumerate(calendar):
            if c > d:
                break
            p = i
        return p
    p0, p1 = pos(created), pos(as_of)
    if p0 < 0 or p1 < 0:
        return (as_of - created).days
    return max(0, p1 - p0)


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


class MemoryStore:
    """Event storage shared by all agents; reads are cheap, writes serialized."""

    def __init__(self, calendar: tuple[Date, ...] | None = None):
        self.calendar = tuple(calendar) if calendar is not None else None
        self._events: dict[str, MemoryEvent] = {}
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._events)

    def add(self, event: MemoryEvent) -> None:
        with self._lock:
            if event.event_id in self._events:
                raise ValueError(f"duplicate event_id {event.event_id!r}")
            self._events[event.event_id] = event

    def get(self, event_id: str) -> MemoryEvent:
        try:
            return self._events[event_id]
        except KeyError:
            raise UnknownEventId(event_id) from None

    def has(self, event_id: str) -> bool:
        return event_id in self._events

    def all_ids(self) -> frozenset[str]:
        with self._lock:
            return frozenset(self._events.keys())

    def boost_access(self, event_id: str) -> None:
        """Add the fixed retrieval bonus to one event; cumulative across calls."""
        with self._lock:
            event = self.get(event_id)
            event.access_bonus += ACCESS_BOOST

    def events_for(self, owner: str, layer: str | None = None) -> list[MemoryEvent]:
        with self._lock:
            events = [e for e in self._events.values() if e.owner == owner]
        if layer is not None:
            events = [e for e in events if e.layer == layer]
        return events

    def retrieve_top_k(self, query: MemoryQuery) -> list[ScoredEvent]:
        """Top-k events for the query's owner, ranked by combined score.

        Candidates are the owner's events created at or before ``as_of``
        (optionally restricted to one layer). Ties break toward the newer
        event, then the lexicographically smaller event_id.
        """
        candidates = [
            e for e in self.events_for(query.owner, query.layer)
            if e.created_at <= query.as_of
        ]
        if not candidates:
            return []
        dim = len(query.embedding)
        for e in candidates:
            if len(e.embedding) != dim:
                raise DimensionMismatch(
                    f"event {e.event_id}: dim {len(e.embedding)} vs query {dim}")
        emb = np.stack([e.embedding for e in candidates])
        q = np.asarray(query.embedding, dtype=float)
        if float(q @ q) == 0.0:
            raise ZeroVector("query embedding is zero")
        raw_rel = cosine_matrix(q, emb)
        v0 = np.array([e.initial_importance for e in candidates])
        theta = np.array([e.decay_ratio for e in candidates])
        dts = np.array(
            [float(_delta_days(e.created_at, query.as_of, self.calendar)) for e in candidates])
        bonus = np.array([e.access_bonus for e in candidates])
        raw_imp = decay_importance(v0, theta, dts, bonus)
        s_rel, s_imp, gamma = score_candidates(raw_rel, raw_imp)
        order = sorted(
            range(len(candidates)),
            key=lambda i: (-gamma[i], -candidates[i].created_at.toordinal(),
                           candidates[i].event_id),
        )
        return [
            ScoredEvent(event=candidates[i], relevancy=float(s_rel[i]),
                        importance=float(s_imp[i]), gamma=float(gamma[i]))
            for i in order[: query.k]
        ]

    def save_jsonl(self, path) -> None:
        """Snapshot every event, one JSON object per line, sorted by id."""
        with self._lock:
            events = sorted(self._events.values(), key=lambda e: e.event_id)
        with open(path, "w") as fh:
            for e in events:
                fh.write(json.dumps(e.to_record(), sort_keys=True, separators=(",", ":")))
                fh.write("\n")

    @classmethod
    def load_jsonl(cls, path, calendar: tuple[Date, ...] | None = None) -> "MemoryStore":
        store = cls(calendar=calendar)
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    store.add(MemoryEvent.from_record(json.loads(line)))
        return store
