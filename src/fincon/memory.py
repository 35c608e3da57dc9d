"""Agent memory events with scored top-K retrieval.

Each stored event carries an embedding, an initial importance, a per-day
decay ratio and a cumulative access bonus. Retrieval ranks an agent's own
events by the sum of two [0,1] min-max scaled components: cosine relevancy
to the query embedding and decayed importance (v * theta**dt + bonus, dt in
whole trading days, theta**dt correctly rounded from integers). Events
newer than the query's as-of date are never candidates.

One store serves every agent in a run; ownership filters retrieval. Each
owner's events are indexed in append-only columns (embedding rows and their
norms, importance inputs, creation day and its trading-day position, each
found once), so a query costs numpy work over that owner's events and no
Python work per candidate. Every sum of products runs in numpy's own loops
in one fixed order, not in BLAS, so a score keeps its bits whatever BLAS
kernel the host loads and whatever else the owner holds.

The store can be persisted to / restored from a JSONL snapshot so a test
stage inherits the training stage's memory. One encoder writes a snapshot
line (``MemoryEvent.snapshot_line``), field by field, in the bytes of the
event's record as a canonical JSON line. Loading decodes every base64
embedding in one pass (``decode_embeddings``), and every loaded event
still goes through ``MemoryStore.add``, in file order, so a fault names
the first faulty row.
"""

from __future__ import annotations

import base64
import binascii
import bisect
import hashlib
import math
from collections.abc import KeysView
from dataclasses import dataclass
from datetime import date as Date
from typing import ClassVar

import numpy as np

from .data_ingest import (
    finite_number,
    json_number,
    json_string,
    parse_date,
    read_jsonl_lines,
)
from .errors import DimensionMismatch, SchemaError, UnknownEventId, ZeroVector

# a snapshot line's embedding: base64 of its values as big-endian float64
# (older snapshots hold a JSON list of numbers, which still loads)
EMBEDDING_DTYPE = np.dtype(">f8")

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
    # every event is one kind; perfbench/spans.py reads this name
    layer: ClassVar[str] = "procedural"

    event_id: str
    owner: str
    content: str
    embedding: np.ndarray
    initial_importance: float
    decay_ratio: float
    created_at: Date
    access_bonus: float = 0.0

    def __post_init__(self):
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
            "content": self.content,
            "embedding": encode_embedding(self.embedding),
            "initial_importance": self.initial_importance,
            "decay_ratio": self.decay_ratio,
            "created_at": self.created_at.isoformat(),
            "access_bonus": self.access_bonus,
        }

    def snapshot_line(self) -> str:
        """The event's snapshot line: ``jsonl_line(self.to_record())``, laid
        out field by field in its sorted key order. The one encoder of a
        snapshot line."""
        return (f'{{"access_bonus":{json_number(self.access_bonus)},'
                f'"content":{json_string(self.content)},'
                f'"created_at":"{self.created_at.isoformat()}",'
                f'"decay_ratio":{json_number(self.decay_ratio)},'
                f'"embedding":"{encode_embedding(self.embedding)}",'
                f'"event_id":{json_string(self.event_id)},'
                f'"initial_importance":{json_number(self.initial_importance)},'
                f'"owner":{json_string(self.owner)}}}\n')

    @classmethod
    def from_record(cls, rec: dict, embedding=None) -> "MemoryEvent":
        """The event a snapshot record holds, its embedding in either form;
        KeyError, TypeError or ValueError when the record does not describe
        one. ``embedding`` is what ``decode_embeddings`` made of the record's
        base64 embedding, when the caller decoded it already."""
        for name in ("event_id", "owner", "content"):
            if not isinstance(rec[name], str):
                raise TypeError(f"{name} must be a string, got {rec[name]!r}")
        if embedding is None:
            embedding = rec["embedding"]
            if isinstance(embedding, str):
                embedding = decode_embeddings([embedding])[0]
        if isinstance(embedding, ValueError):
            raise embedding
        if isinstance(embedding, list):
            embedding = np.array([finite_number("embedding", x) for x in embedding])
        elif not isinstance(embedding, np.ndarray):
            raise TypeError(f"embedding must be base64 text or a list, got {embedding!r}")
        return cls(
            event_id=rec["event_id"],
            owner=rec["owner"],
            content=rec["content"],
            embedding=embedding,
            initial_importance=finite_number("initial_importance", rec["initial_importance"]),
            decay_ratio=finite_number("decay_ratio", rec["decay_ratio"]),
            created_at=parse_date(rec["created_at"]),
            access_bonus=finite_number("access_bonus", rec["access_bonus"]),
        )


def encode_embedding(values) -> str:
    """A snapshot line's embedding: base64 of ``values`` as big-endian float64."""
    raw = np.asarray(values, dtype=EMBEDDING_DTYPE).tobytes()
    return binascii.b2a_base64(raw, newline=False).decode("ascii")


def decode_embeddings(texts: list) -> list:
    """What ``encode_embedding`` text each of ``texts`` holds, as a float64
    array, or the ValueError saying why it holds none.

    One strict ``b64decode`` per text, then one ``frombuffer`` and one
    finiteness check per byte length for all the texts of that length.
    """
    decoded: list = [None] * len(texts)
    by_size: dict[int, tuple[list[int], list[bytes]]] = {}
    for i, text in enumerate(texts):
        try:
            raw = base64.b64decode(text, validate=True)
        except ValueError as exc:  # binascii.Error, or text that is not ASCII
            decoded[i] = exc
            continue
        if len(raw) % EMBEDDING_DTYPE.itemsize:
            decoded[i] = ValueError(f"embedding holds {len(raw)} bytes, not whole "
                                    f"{EMBEDDING_DTYPE.itemsize}-byte floats")
            continue
        at, raws = by_size.setdefault(len(raw), ([], []))
        at.append(i)
        raws.append(raw)
    for size, (at, raws) in by_size.items():
        # each copy of the bytes is dropped once the next is made
        joined = b"".join(raws)
        raws.clear()
        values = np.frombuffer(joined, dtype=EMBEDDING_DTYPE).reshape(
            len(at), size // EMBEDDING_DTYPE.itemsize).astype(float)
        del joined
        finite = np.isfinite(values)
        rows = list(values)
        if not finite.all():
            for k in np.flatnonzero(~finite.all(axis=1)).tolist():
                bad = int(np.flatnonzero(~finite[k])[0])
                rows[k] = ValueError(f"embedding value {bad} must be finite, "
                                     f"got {float(values[k, bad])!r}")
        for i, row in zip(at, rows):
            decoded[i] = row
    return decoded


@dataclass(frozen=True)
class MemoryQuery:
    embedding: np.ndarray
    as_of: Date
    k: int
    owner: str
    # no layer filter; perfbench/spans.py reads this name
    layer: ClassVar[None] = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(slots=True)
class ScoredEvent:
    """A retrieval hit: scaled components and their sum (the ranking score)."""

    event: MemoryEvent
    relevancy: float
    importance: float
    gamma: float


def row_norms(emb: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``emb``."""
    return np.sqrt(np.einsum("ij,ij->i", emb, emb))


def cosine_matrix(query: np.ndarray, emb: np.ndarray, norms: np.ndarray | None = None,
                  rows=slice(None)) -> np.ndarray:
    """Cosine similarity between one query vector and the rows ``rows`` of
    ``emb`` (all of them by default). ``norms`` holds ``row_norms(emb)``
    when the caller keeps it.

    Every dot product is summed by numpy's own loops in one fixed order,
    never by BLAS, so a row's value depends neither on the BLAS kernel the
    host loads nor on the other rows of ``emb``. ZeroVector for a zero query.
    """
    qnorm = math.sqrt(np.einsum("j,j->", query, query))
    if qnorm == 0.0:
        raise ZeroVector("query embedding is zero")
    if norms is None:
        norms = row_norms(emb)
    return np.einsum("ij,j->i", emb, query)[rows] / (norms[rows] * qnorm)


# theta -> theta**dt for dt = 0, 1, ..., as far as ``decay_powers`` was asked:
# a memo of values that depend on theta alone, read-only, for the process
_DECAY_POWERS: dict[float, np.ndarray] = {}


def decay_powers(theta: float, width: int) -> np.ndarray:
    """theta**dt for dt = 0, 1, ..., width - 1 at least, kept per theta.

    Each value is the exact rational power num**dt / den**dt rounded once,
    num / den being theta's ratio of integers (den a power of two), so no
    value depends on the CPU or on numpy's ``power`` loop. Python's int
    division rounds once, subnormal results included.
    """
    values = _DECAY_POWERS.get(theta, np.empty(0))
    if len(values) < width:
        width = max(width, 2 * len(values))
        num, den = float(theta).as_integer_ratio()
        e = den.bit_length() - 1
        values = np.zeros(width)
        m = 1  # num**dt
        for dt in range(width):
            values[dt] = value = m / (1 << e * dt)
            if not value:  # every later power rounds to 0 too
                break
            m *= num
        values.flags.writeable = False
        _DECAY_POWERS[theta] = values
    return values


def decay_importance(v0: np.ndarray, decay: np.ndarray, bonus: np.ndarray) -> np.ndarray:
    """Elementwise v0 * theta**dt + bonus, ``decay`` holding theta**dt."""
    return v0 * decay + bonus


def trading_position(calendar: tuple[Date, ...] | None, day: Date) -> int:
    """Position of the last calendar day <= ``day``; -1 when there is none
    (``day`` precedes the calendar, or no calendar is given)."""
    if calendar is None:
        return -1
    return bisect.bisect_right(calendar, day) - 1


def elapsed_days(created_pos, as_of_pos, calendar_days):
    """dt for decay of a candidate created at or before its as-of day:
    trading days between the two positions, or the calendar days given when
    the creation day has no position. Elementwise on arrays."""
    # a candidate is created at or before its as-of day, so a creation day
    # with a position gives the as-of day one at least as large
    return np.where(created_pos >= 0, as_of_pos - created_pos, calendar_days)


def scale_unit(values: np.ndarray) -> np.ndarray:
    """Min-max scale to [0,1]; a degenerate (constant) set scales to 0.5."""
    lo = values.min()
    hi = values.max()
    if hi == lo:
        return np.full(values.shape, 0.5)
    return (values - lo) / (hi - lo)


def score_candidates(raw_relevancy: np.ndarray, raw_importance: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scaled relevancy, scaled importance, and their sum (the retrieval score)."""
    s_rel = scale_unit(raw_relevancy)
    s_imp = scale_unit(raw_importance)
    return s_rel, s_imp, s_rel + s_imp


def rank_top_k(gamma: np.ndarray, created: np.ndarray, event_id, k: int) -> list[int]:
    """Positions of the ``k`` best candidates, best first: higher gamma, then
    the newer event (larger ``created``), then the smaller ``event_id(i)``.
    A NaN gamma (a zero event embedding makes every gamma NaN) ranks last.

    Only candidates scoring at least the k-th largest gamma can be among the
    k best, so ids are looked up for those alone.
    """
    n = len(gamma)
    keep = range(n)
    if n > k:
        kth = np.partition(gamma, n - k)[n - k]
        if kth == kth:  # not NaN
            keep = (gamma >= kth).nonzero()[0]
            gamma, created = gamma.take(keep), created.take(keep)
            keep = keep.tolist()
    keys = {i: (-g if g == g else math.inf, -c, event_id(i)) for i, g, c in
            zip(keep, gamma.tolist(), created.tolist())}
    return sorted(keys, key=keys.__getitem__)[:k]


class _OwnerColumns:
    """One owner's events in insertion order, as append-only columns.

    The arrays grow by doubling; ``n`` rows are in use. A row never changes
    after ``append`` except its ``bonus``. All embeddings share one dim.
    ``norms`` fills in the norm of the rows appended since it last ran;
    ``earliest`` and ``latest`` are the oldest and newest creation ordinals.
    ``powers`` holds ``decay_powers`` of each of the owner's decay ratios
    for dt below ``width``, one block each in the order of ``thetas`` (ratio
    -> block number), and a row's ``decay`` is where its ratio's block
    starts.
    """

    _ARRAYS = ("emb", "norm", "v0", "decay", "bonus", "created", "pos")

    def __init__(self, dim: int):
        self.n = 0
        self.normed = 0
        self.earliest = math.inf
        self.latest = 0
        self.events: list[MemoryEvent] = []
        self.thetas: dict[float, int] = {}
        self.width = 16
        self.powers = np.empty(0)
        cap = 16
        self.emb = np.empty((cap, dim))
        self.norm = np.empty(cap)
        self.v0 = np.empty(cap)
        self.decay = np.empty(cap, dtype=np.intp)
        self.bonus = np.empty(cap)
        self.created = np.empty(cap, dtype=np.int64)
        self.pos = np.empty(cap, dtype=np.int64)

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
        block = self.thetas.get(event.decay_ratio)
        if block is None:
            block = self.thetas[event.decay_ratio] = len(self.thetas)
            self.powers = np.concatenate(
                (self.powers, decay_powers(event.decay_ratio, self.width)[:self.width]))
        created = event.created_at.toordinal()
        self.emb[i] = event.embedding
        self.v0[i] = event.initial_importance
        self.decay[i] = block * self.width
        self.bonus[i] = event.access_bonus
        self.created[i] = created
        self.pos[i] = pos
        if created < self.earliest:
            self.earliest = created
        if created > self.latest:
            self.latest = created
        self.events.append(event)
        self.n = i + 1
        return i

    def norms(self) -> np.ndarray:
        """``row_norms`` of the rows in use; each row's is computed once."""
        if self.normed < self.n:
            self.norm[self.normed:self.n] = row_norms(self.emb[self.normed:self.n])
            self.normed = self.n
        return self.norm[:self.n]

    def widen(self, width: int) -> None:
        """Make ``powers`` hold each ratio's powers for dt below ``width``."""
        new = max(width, 2 * self.width)
        self.decay[:self.n] = self.decay[:self.n] // self.width * new
        self.width = new
        self.powers = np.concatenate([decay_powers(theta, new)[:new] for theta in self.thetas])


class MemoryStore:
    """Event storage shared by all agents, indexed per owner.

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

    def __len__(self) -> int:
        return len(self._events)

    def add(self, event: MemoryEvent) -> None:
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

    def all_ids(self) -> KeysView[str]:
        """Live view of every stored event id (membership tests, no copy)."""
        return self._events.keys()

    def boost_access(self, event_id: str) -> None:
        """Add the fixed retrieval bonus to one event; cumulative across calls."""
        event = self.get(event_id)
        event.access_bonus += ACCESS_BOOST
        cols, row = self._rows[event_id]
        cols.bonus[row] = event.access_bonus

    def retrieve_top_k(self, query: MemoryQuery) -> list[ScoredEvent]:
        """Top-k events for the query's owner, ranked by combined score.

        Candidates are the owner's events created at or before ``as_of``.
        Ties break toward the newer event, then the lexicographically
        smaller event_id. Every row is scored in place, and the as-of cut
        picks the candidates' scores; when every row is a candidate, as in
        a first episode or a test stage, no column is copied.
        """
        as_of = query.as_of.toordinal()
        cols = self._owners.get(query.owner)
        if cols is None:
            return []
        n = cols.n
        if cols.latest <= as_of:
            rows = slice(0, n)
            row_of = range(n)
        else:
            rows = (cols.created[:n] <= as_of).nonzero()[0]
            if rows.size == 0:
                return []
            row_of = rows
        events = cols.events
        dim = len(query.embedding)
        if cols.emb.shape[1] != dim:
            raise DimensionMismatch(
                f"event {events[row_of[0]].event_id}: dim {cols.emb.shape[1]} vs query {dim}")
        q = np.asarray(query.embedding, dtype=float)
        raw_rel = cosine_matrix(q, cols.emb[:n], cols.norms(), rows)
        created = cols.created[rows]
        as_of_pos = trading_position(self.calendar, query.as_of)
        dts = elapsed_days(cols.pos[rows], as_of_pos, as_of - created)
        # a dt counts trading days up to as_of_pos or calendar days since the
        # earliest creation, so it stays below this width
        width = max(as_of - cols.earliest, as_of_pos) + 1
        if width > cols.width:
            cols.widen(width)
        raw_imp = decay_importance(cols.v0[rows], cols.powers[cols.decay[rows] + dts],
                                   cols.bonus[rows])
        s_rel, s_imp, gamma = score_candidates(raw_rel, raw_imp)
        order = rank_top_k(gamma, created, lambda i: events[row_of[i]].event_id, query.k)
        return [ScoredEvent(events[row_of[i]], rel, imp, g) for i, rel, imp, g in zip(
            order, s_rel.take(order).tolist(), s_imp.take(order).tolist(),
            gamma.take(order).tolist())]

    def save_jsonl(self, path) -> None:
        """Snapshot every event, one JSON object per line, sorted by id.

        An event ``load_jsonl`` read keeps the line it was read from (stripped,
        ending in a newline) until its access bonus changes, and an event
        encoded once keeps its line likewise. So a test stage that writes
        back its inherited snapshot encodes only its new and boosted events,
        and a snapshot this method wrote loads and saves back byte for byte.
        """
        with open(path, "w", encoding="utf-8") as fh:
            for event_id, event in sorted(self._events.items()):
                cached = self._encoded.get(event_id)
                if cached is None or cached[0] != event.access_bonus:
                    cached = self._encoded[event_id] = (event.access_bonus,
                                                        event.snapshot_line())
                fh.write(cached[1])

    @classmethod
    def load_jsonl(cls, path, calendar: tuple[Date, ...] | None = None) -> "MemoryStore":
        """The store a ``save_jsonl`` snapshot holds, each line kept as its
        event's encoding. SchemaError(row, None) names the file and row of
        the first line that is not JSON or not an event the store accepts.

        The file is read whole first, so that ``decode_embeddings`` decodes
        every base64 embedding in one pass. Then each line's event is
        checked and goes through ``add`` in file order, and a line that is
        not JSON is reported only when the lines before it hold no fault.

        Older snapshots name a layer on each line: "working" and "procedural"
        lines load, and an "episodic" line is left out, since no query could
        return it.
        """
        lines = []  # (row number, the line as the store keeps it, its record)
        try:
            for row_no, line, rec in read_jsonl_lines(path):
                lines.append((row_no, line + "\n", rec))
        except SchemaError as exc:
            unreadable = exc
        else:
            unreadable = None
        texts = {i: rec["embedding"] for i, (_, _, rec) in enumerate(lines)
                 if type(rec) is dict and type(rec.get("embedding")) is str}
        embeddings = dict(zip(texts, decode_embeddings(list(texts.values()))))
        store = cls(calendar=calendar)
        for i, (row_no, line, rec) in enumerate(lines):
            lines[i] = None  # frees each record once its event is stored
            try:
                event = MemoryEvent.from_record(rec, embeddings.get(i))
                layer = rec.get("layer", "procedural")
                if layer == "episodic":
                    continue
                if layer not in ("working", "procedural"):
                    raise ValueError(f"unknown memory layer {layer!r}")
                store.add(event)
            except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
                raise SchemaError.not_a(path, "memory event", exc, row_no) from None
            store._encoded[event.event_id] = (event.access_bonus, line)
        if unreadable is not None:
            raise unreadable
        return store
