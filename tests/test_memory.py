import base64
import json
import math
from dataclasses import replace
from datetime import date, timedelta
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fincon import memory
from fincon.data_ingest import jsonl_line
from fincon.errors import DimensionMismatch, SchemaError, UnknownEventId, ZeroVector
from fincon.memory import (
    ACCESS_BOOST,
    HashEmbedder,
    MemoryEvent,
    MemoryQuery,
    MemoryStore,
    cosine_matrix,
    decay_importance,
    decay_powers,
    elapsed_days,
    row_norms,
    scale_unit,
    score_candidates,
    trading_position,
)

from fixtures import oracle_embed, oracle_top_k

SQRT_HALF = 0.7071067811865476  # frozen: mpmath sqrt(1/2)


def make_event(event_id, owner="agent", content=None, v0=0.5, theta=0.9,
               created=date(2022, 1, 3), bonus=0.0, dim=16, embedding=None):
    emb = HashEmbedder(dim)
    content = content if content is not None else f"content {event_id}"
    return MemoryEvent(
        event_id=event_id, owner=owner, content=content,
        embedding=emb.embed(content) if embedding is None else np.asarray(embedding, float),
        initial_importance=v0, decay_ratio=theta, created_at=created,
        access_bonus=bonus,
    )


class TestRelevancy:
    def test_identical_vectors(self):
        v = np.array([0.3, -1.2, 4.0])
        assert abs(cosine_matrix(v, v[np.newaxis, :])[0] - 1.0) < 1e-12

    def test_orthogonal(self):
        assert cosine_matrix(np.array([1.0, 0.0]), np.array([[0.0, 1.0]]))[0] == 0.0

    def test_oblique_hand_computed(self):
        got = cosine_matrix(np.array([1.0, 1.0, 0.0]),
                            np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 2.0], [2.0, 2.0, 0.0]]))
        assert abs(got[0] - SQRT_HALF) < 1e-12
        assert got[1] == 0.0
        assert abs(got[2] - 1.0) < 1e-12

    def test_zero_vector(self):
        store = MemoryStore()
        store.add(make_event("e", embedding=[1.0, 2.0, 3.0]))
        with pytest.raises(ZeroVector):
            store.retrieve_top_k(MemoryQuery(np.zeros(3), date(2022, 2, 1), 1, "agent"))

    def test_dimension_mismatch(self):
        store = MemoryStore()
        store.add(make_event("e", embedding=[1.0, 2.0, 3.0]))
        with pytest.raises(DimensionMismatch):
            store.retrieve_top_k(MemoryQuery(np.ones(4), date(2022, 2, 1), 1, "agent"))


def decayed(v0, theta, created, as_of, calendar=None, bonus=0.0):
    """The importance retrieval ranks by, from the production dt and decay."""
    dt = elapsed_days(trading_position(calendar, created), trading_position(calendar, as_of),
                      (as_of - created).days)
    return float(decay_importance(v0, decay_powers(theta, dt + 1)[dt], bonus))


class TestImportance:
    def test_zero_age(self):
        assert decayed(1.0, 0.9, date(2022, 1, 3), date(2022, 1, 3)) == 1.0

    def test_two_day_decay(self):
        got = decayed(0.8, 0.9, date(2022, 1, 3), date(2022, 1, 5))
        assert abs(got - 0.648) < 1e-12

    def test_access_bonus_added(self):
        got = decayed(0.3, 0.9, date(2022, 1, 3), date(2022, 1, 3), bonus=5.0)
        assert abs(got - 5.3) < 1e-12

    def test_trading_day_delta(self):
        # Fri 2022-01-07 -> Mon 2022-01-10 is one trading day, not three
        calendar = (date(2022, 1, 6), date(2022, 1, 7), date(2022, 1, 10))
        got = decayed(1.0, 0.5, date(2022, 1, 7), date(2022, 1, 10), calendar)
        assert got == 0.5

    @given(v0=st.floats(0.01, 1.0), theta=st.floats(0.01, 0.99),
           dt=st.integers(0, 50))
    def test_strictly_decreasing_in_age(self, v0, theta, dt):
        created = date(2022, 1, 1)
        earlier = decayed(v0, theta, created, created + timedelta(days=dt))
        later = decayed(v0, theta, created, created + timedelta(days=dt + 1))
        assert later < earlier


class TestBoost:
    def test_single_boost(self):
        store = MemoryStore()
        store.add(make_event("e"))
        store.boost_access("e")
        assert store.get("e").access_bonus == ACCESS_BOOST == 5.0

    def test_cumulative(self):
        store = MemoryStore()
        store.add(make_event("e"))
        store.boost_access("e")
        store.boost_access("e")
        assert store.get("e").access_bonus == 10.0

    def test_unknown_id(self):
        store = MemoryStore()
        with pytest.raises(UnknownEventId):
            store.boost_access("missing")


def random_store(rng, n_events, dim=16, owners=("agent",)):
    events = []
    base = date(2022, 1, 1)
    for i in range(n_events):
        emb = rng.standard_normal(dim)
        events.append(make_event(
            f"ev{i:05d}",
            owner=owners[int(rng.integers(len(owners)))],
            v0=float(rng.uniform(0, 1)),
            theta=float(rng.uniform(0.5, 0.99)),
            created=base + timedelta(days=int(rng.integers(0, 90))),
            bonus=float(rng.choice([0.0, 5.0, 10.0])),
            dim=dim,
            embedding=emb,
        ))
    return events


class TestRetrieveTopK:
    def test_empty_store(self):
        store = MemoryStore()
        emb = HashEmbedder(16)
        query = MemoryQuery(emb.embed("q"), date(2022, 2, 1), 5, "agent")
        assert store.retrieve_top_k(query) == []

    def test_matches_brute_force_on_random_stores(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            n = int(rng.integers(1, 120))
            events = random_store(rng, n, owners=("agent", "other"))
            store = MemoryStore()
            for e in events:
                store.add(e)
            as_of = date(2022, 1, 1) + timedelta(days=int(rng.integers(0, 100)))
            k = int(rng.integers(1, 12))
            q = rng.standard_normal(16)
            query = MemoryQuery(q, as_of, k, "agent")
            got = [s.event.event_id for s in store.retrieve_top_k(query)]
            want = [hit[0] for hit in oracle_top_k(events, q, as_of, k, "agent")]
            assert got == want, f"trial {trial}"

    def test_no_retrieved_event_postdates_as_of(self):
        rng = np.random.default_rng(11)
        events = random_store(rng, 60)
        store = MemoryStore()
        for e in events:
            store.add(e)
        as_of = date(2022, 1, 20)
        query = MemoryQuery(rng.standard_normal(16), as_of, 10, "agent")
        for scored in store.retrieve_top_k(query):
            assert scored.event.created_at <= as_of

    def test_owner_filtering(self):
        store = MemoryStore()
        store.add(make_event("mine", owner="a"))
        store.add(make_event("theirs", owner="b"))
        emb = HashEmbedder(16)
        query = MemoryQuery(emb.embed("q"), date(2022, 2, 1), 10, "a")
        got = [s.event.event_id for s in store.retrieve_top_k(query)]
        assert got == ["mine"]

    def test_gamma_is_sum_of_scaled_components(self):
        store = MemoryStore()
        for i in range(6):
            store.add(make_event(f"e{i}", created=date(2022, 1, 3 + i)))
        emb = HashEmbedder(16)
        query = MemoryQuery(emb.embed("q"), date(2022, 2, 1), 6, "agent")
        for scored in store.retrieve_top_k(query):
            assert 0.0 <= scored.relevancy <= 1.0
            assert 0.0 <= scored.importance <= 1.0
            assert scored.gamma == scored.relevancy + scored.importance

    def test_ties_break_newer_then_lexicographic(self):
        # identical embeddings and importance: gamma degenerate for all
        emb = np.ones(4)
        store = MemoryStore()
        store.add(make_event("b", created=date(2022, 1, 5), embedding=emb, dim=4))
        store.add(make_event("a", created=date(2022, 1, 5), embedding=emb, dim=4))
        store.add(make_event("c", created=date(2022, 1, 7), embedding=emb, dim=4))
        query = MemoryQuery(emb, date(2022, 2, 1), 3, "agent")
        got = [s.event.event_id for s in store.retrieve_top_k(query)]
        assert got == ["c", "a", "b"]

    def test_dimension_mismatch(self):
        store = MemoryStore()
        store.add(make_event("e", dim=8))
        query = MemoryQuery(np.ones(16), date(2022, 2, 1), 3, "agent")
        with pytest.raises(DimensionMismatch):
            store.retrieve_top_k(query)

    def test_owner_embeddings_share_one_dim(self):
        store = MemoryStore()
        store.add(make_event("e", dim=8))
        with pytest.raises(DimensionMismatch):
            store.add(make_event("f", dim=16))
        store.add(make_event("g", owner="other", dim=16))
        assert "f" not in store.all_ids() and len(store) == 2


# --- retrieval against the per-event oracle in fixtures.py ------------------
#
# Embeddings have small integer components and importance inputs are dyadic
# with dt <= 31, so every dot product, norm and power is exact and the
# oracle's per-event arithmetic gives the store's scores bit for bit: equal
# scores are equal, and the tie-break is what orders them.

BASE = date(2022, 1, 3)
VECTORS = ((1, 0, 0), (0, 1, 0), (1, 1, 0), (2, -1, 1), (-1, 2, 2), (1, 1, 1))
OFFSETS = st.integers(-4, 27)  # days from BASE; the calendar covers 0..27 at most


def oracle_event(event_id, owner, vector, v0, theta, offset, bonus) -> MemoryEvent:
    return MemoryEvent(event_id=event_id, owner=owner, content=event_id,
                       embedding=np.array(vector, dtype=float), initial_importance=v0,
                       decay_ratio=theta, created_at=BASE + timedelta(days=offset),
                       access_bonus=bonus)


@st.composite
def retrieval_cases(draw):
    """(calendar, events, added, steps): the first ``added`` events go into
    the store up front and each "add" step adds the next, so queries also
    meet rows appended since the last query."""
    trading = draw(st.none() | st.lists(st.booleans(), min_size=28, max_size=28))
    calendar = None if trading is None else tuple(
        BASE + timedelta(days=i) for i, on in enumerate(trading) if on)
    ids = draw(st.lists(st.text("abc", min_size=1, max_size=3), min_size=1,
                        max_size=24, unique=True))
    events = [oracle_event(
        event_id, draw(st.sampled_from(("a", "b"))), draw(st.sampled_from(VECTORS)),
        draw(st.sampled_from((0.25, 0.5, 1.0))), draw(st.sampled_from((0.5, 0.75))),
        draw(OFFSETS), draw(st.sampled_from((0.0, 5.0)))) for event_id in ids]
    added = draw(st.integers(0, len(events)))
    query = st.tuples(st.just("query"), st.sampled_from(("a", "b")), OFFSETS,
                      st.integers(1, 6), st.sampled_from(VECTORS))
    boost = st.tuples(st.just("boost"), st.integers(0, len(ids) - 1))
    add = st.just(("add",))
    steps = draw(st.lists(query | boost | add, min_size=1, max_size=12))
    return calendar, events, added, steps


# candidates {1, 3} of owner "a" at offset 8: neither a prefix nor a suffix
# of insertion order, and row 3 is appended after the first query
NOT_A_PREFIX = (None, [
    oracle_event("w", "a", (1, 0, 0), 0.5, 0.5, 20, 0.0),
    oracle_event("x", "a", (1, 1, 0), 0.25, 0.75, 3, 0.0),
    oracle_event("y", "a", (2, -1, 1), 1.0, 0.5, 12, 5.0),
    oracle_event("z", "a", (-1, 2, 2), 0.5, 0.75, 8, 0.0),
], 3, [("query", "a", 8, 2, (1, 1, 1)), ("add",), ("query", "a", 8, 2, (1, 1, 1)),
       ("query", "a", 27, 3, (0, 1, 0))])


class TestRetrievalOracle:
    @given(retrieval_cases())
    @example(NOT_A_PREFIX)
    @settings(max_examples=150, deadline=None)
    def test_matches_per_event_oracle(self, case):
        calendar, events, added, steps = case
        store = MemoryStore(calendar=calendar)
        for e in events[:added]:
            store.add(e)
        for step in steps:
            if step[0] == "add":
                if added < len(events):
                    store.add(events[added])
                    added += 1
                continue
            if step[0] == "boost":
                if added:
                    store.boost_access(events[step[1] % added].event_id)
                continue
            _, owner, offset, k, vector = step
            as_of = BASE + timedelta(days=offset)
            emb = np.array(vector, dtype=float)
            got = [(s.event.event_id, s.relevancy, s.importance, s.gamma) for s in
                   store.retrieve_top_k(MemoryQuery(emb, as_of, k, owner))]
            assert got == oracle_top_k(events[:added], emb, as_of, k, owner, calendar)


def bits(hits) -> list[tuple]:
    return [(h.event.event_id, h.relevancy.hex(), h.importance.hex(), h.gamma.hex())
            for h in hits]


AS_OF = date(2022, 3, 1)
WEEKDAYS = tuple(AS_OF + timedelta(days=d) for d in range(-90, 90)
                 if (AS_OF + timedelta(days=d)).weekday() < 5)


class TestExactDecayPower:
    """theta**dt comes from integers, so its bits do not depend on the CPU's
    or numpy's ``pow``."""

    @given(theta=st.one_of(st.sampled_from([0.1, 0.5, 0.9, 0.95, 0.99, 0.999]),
                           st.floats(1e-3, 1.0, exclude_max=True)),
           dt=st.integers(0, 600))
    @example(theta=0.01, dt=160)  # a subnormal power, 1e-320
    @example(theta=0.01, dt=170)  # rounds to 0
    @settings(deadline=None)
    def test_power_is_the_exact_power_rounded_once(self, theta, dt):
        """theta**dt is computed from integers, so its bits do not depend on
        the CPU's or numpy's ``pow``: the exact rational power, rounded to
        nearest."""
        exact = Fraction(theta) ** dt
        got = decay_powers(theta, dt + 1)[dt]
        assert got == float(exact)
        assert abs(Fraction(float(got)) - exact) <= Fraction(math.ulp(got)) / 2

    @pytest.mark.parametrize("calendar", [None, WEEKDAYS], ids=["calendar_days",
                                                               "trading_days"])
    def test_long_history_of_two_decay_ratios_scores_as_the_oracle(self, calendar):
        """One owner's events at two decay ratios over more days than the
        first table width; the table widens as queries move later, and every
        query still matches the oracle."""
        # small integer vectors, so every dot product is exact in any order
        events = [make_event(f"e{i:02d}", v0=0.2 + 0.15 * (i % 5), theta=(0.9, 0.97)[i % 2],
                             created=WEEKDAYS[0] + timedelta(days=4 * i),
                             embedding=[i % 3 - 1, i % 4, 2])
                  for i in range(40)]
        store = MemoryStore(calendar=calendar)
        for event in events:
            store.add(event)
        query = np.array([1.0, 2.0, -1.0])
        for days in (3, 20, 70, 160, 240):
            as_of = WEEKDAYS[0] + timedelta(days=days)
            got = [(s.event.event_id, s.relevancy, s.importance, s.gamma) for s in
                   store.retrieve_top_k(MemoryQuery(query, as_of, 40, "agent"))]
            assert got == oracle_top_k(events, query, as_of, 40, "agent", calendar)


class TestInPlaceScoring:
    """Each row is scored by itself, in one fixed order: a candidate's
    scores do not depend on the rest of the store, and a row norm filled
    in later equals the norm of that row taken alone."""

    @given(seed=st.integers(0, 2**32 - 1), n_cand=st.integers(1, 40),
           n_other=st.integers(1, 80), dim=st.sampled_from([3, 16, 64, 67]),
           k=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_candidate_scores_do_not_depend_on_other_rows(self, seed, n_cand, n_other,
                                                          dim, k):
        """The same candidates score the same bits alone and among the
        owner's later-dated rows (such as another episode leaves) and other
        owners' rows, inserted in any order, with queries in between."""
        rng = np.random.default_rng(seed)

        def event(event_id, owner, days):
            return MemoryEvent(
                event_id=event_id, owner=owner, content=event_id,
                embedding=rng.standard_normal(dim),
                initial_importance=float(rng.uniform(0, 1)),
                decay_ratio=float(rng.uniform(0.5, 0.99)),
                created_at=AS_OF + timedelta(days=days),
                access_bonus=float(rng.choice([0.0, 5.0])))

        candidates = [event(f"a:1:{i:03d}", "a", -int(rng.integers(0, 60)))
                      for i in range(n_cand)]
        others = [event(f"a:2:{i:03d}", "a", int(rng.integers(1, 60))) if rng.random() < 0.7
                  else event(f"b:{i:03d}", "b", int(rng.integers(-60, 60)))
                  for i in range(n_other)]
        query = MemoryQuery(rng.standard_normal(dim), AS_OF, k, "a")

        alone = MemoryStore(calendar=WEEKDAYS)
        for e in candidates:
            alone.add(e)
        mixed = MemoryStore(calendar=WEEKDAYS)
        rows = candidates + others
        for i in rng.permutation(len(rows)):
            mixed.add(rows[i])
            if rng.random() < 0.1:
                mixed.retrieve_top_k(query)
        assert bits(mixed.retrieve_top_k(query)) == bits(alone.retrieve_top_k(query))

    @given(seed=st.integers(0, 2**32 - 1),
           batches=st.lists(st.integers(1, 40), min_size=1, max_size=6),
           dim=st.sampled_from([1, 3, 16, 64, 67]))
    @settings(max_examples=100, deadline=None)
    def test_lazily_filled_norms_equal_per_row_norms(self, seed, batches, dim):
        rng = np.random.default_rng(seed)
        store = MemoryStore()
        rows = []
        for size in batches:
            for _ in range(size):
                rows.append(rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4))
                store.add(make_event(f"e{len(rows):03d}", dim=dim, embedding=rows[-1]))
            store.retrieve_top_k(MemoryQuery(np.ones(dim), date(2022, 2, 1), 1, "agent"))
        one_by_one = [row_norms(row[np.newaxis, :]) for row in rows]
        assert store._owners["agent"].norms().tobytes() == np.concatenate(one_by_one).tobytes()


class TestScaling:
    def test_degenerate_scales_to_half(self):
        assert list(scale_unit(np.array([3.0, 3.0, 3.0]))) == [0.5, 0.5, 0.5]

    # power-of-two scale and dyadic shift keep a*x + b exact, so distinct raw
    # scores stay distinct (real-arithmetic affine maps preserve order)
    @given(st.lists(st.integers(-3200, 3200).map(lambda i: i / 32.0),
                    min_size=2, max_size=30),
           st.integers(-2, 4).map(lambda k: 2.0**k),
           st.integers(-640, 640).map(lambda j: j / 32.0))
    @settings(max_examples=60)
    def test_ranking_invariant_under_positive_affine_transform(self, xs, a, b):
        raw = np.asarray(xs, dtype=float)
        imp = np.linspace(0.0, 1.0, len(raw))
        base = score_candidates(raw, imp)[2]
        shifted = score_candidates(a * raw + b, imp)[2]
        assert list(np.argsort(-base, kind="stable")) == \
            list(np.argsort(-shifted, kind="stable"))


class TestEmbedderAndSnapshot:
    def test_embedder_deterministic_and_sized(self):
        emb = HashEmbedder(64)
        v1 = emb.embed("hello")
        v2 = emb.embed("hello")
        assert v1.shape == (64,)
        assert np.array_equal(v1, v2)
        assert not np.array_equal(v1, emb.embed("hello!"))
        assert np.all(np.abs(v1) <= 1.0)

    @given(text=st.one_of(st.text(max_size=8), st.text(min_size=65, max_size=300)),
           dim=st.sampled_from([1, 16, 64]))
    @example(text="", dim=64)
    @example(text="Überweisung 10-K — 利益 📈", dim=16)
    @example(text="x" * 55, dim=1)
    @settings(max_examples=120, deadline=None)
    def test_embedder_matches_per_component_oracle(self, text, dim):
        got = HashEmbedder(dim).embed(text)
        assert got.tobytes() == np.array(oracle_embed(text, dim)).tobytes()

    def test_snapshot_round_trip(self, tmp_path):
        store = MemoryStore()
        for i in range(10):
            store.add(make_event(f"e{i}", bonus=float(i % 3) * 5.0,
                                 created=date(2022, 1, 3 + i)))
        path = tmp_path / "snap.jsonl"
        store.save_jsonl(path)
        loaded = MemoryStore.load_jsonl(path)
        assert len(loaded) == 10
        for i in range(10):
            a, b = store.get(f"e{i}"), loaded.get(f"e{i}")
            assert a.to_record() == b.to_record()
        path2 = tmp_path / "snap2.jsonl"
        loaded.save_jsonl(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_duplicate_event_id_rejected(self):
        store = MemoryStore()
        store.add(make_event("e"))
        with pytest.raises(ValueError):
            store.add(make_event("e"))


class TestSnapshotLineCache:
    """A line ``load_jsonl`` read is written back as read until its event's
    access bonus changes; only new and boosted events are encoded."""

    @staticmethod
    def count_encodes(monkeypatch):
        calls = []
        snapshot_line = MemoryEvent.snapshot_line

        def counting(event):
            calls.append(event.event_id)
            return snapshot_line(event)

        monkeypatch.setattr(MemoryEvent, "snapshot_line", counting)
        return calls

    @staticmethod
    def saved_lines(store, path):
        store.save_jsonl(path)
        return path.read_text().splitlines(keepends=True)

    def saved_snapshot(self, tmp_path):
        store = MemoryStore()
        for i in range(6):
            store.add(make_event(f"e{i}", bonus=float(i % 2) * 5.0,
                                 created=date(2022, 1, 3 + i)))
        path = tmp_path / "snap.jsonl"
        store.save_jsonl(path)
        return path

    def test_reload_and_save_writes_identical_bytes_without_encoding(self, tmp_path,
                                                                     monkeypatch):
        path = self.saved_snapshot(tmp_path)
        calls = self.count_encodes(monkeypatch)
        again = tmp_path / "again.jsonl"
        MemoryStore.load_jsonl(path).save_jsonl(again)
        assert again.read_bytes() == path.read_bytes()
        assert calls == []

    def test_boost_reencodes_only_that_line(self, tmp_path, monkeypatch):
        path = self.saved_snapshot(tmp_path)
        before = path.read_text().splitlines(keepends=True)
        loaded = MemoryStore.load_jsonl(path)
        loaded.boost_access("e3")
        calls = self.count_encodes(monkeypatch)
        after = self.saved_lines(loaded, tmp_path / "after.jsonl")
        assert calls == ["e3"]
        changed = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
        assert changed == [3] and len(after) == len(before)
        fresh = MemoryStore()
        fresh.add(loaded.get("e3"))
        assert self.saved_lines(fresh, tmp_path / "fresh.jsonl") == [after[3]]

    def test_new_event_is_encoded(self, tmp_path, monkeypatch):
        loaded = MemoryStore.load_jsonl(self.saved_snapshot(tmp_path))
        loaded.add(make_event("e9", created=date(2022, 2, 1)))
        calls = self.count_encodes(monkeypatch)
        lines = self.saved_lines(loaded, tmp_path / "grown.jsonl")
        assert calls == ["e9"]
        assert json.loads(lines[-1]) == loaded.get("e9").to_record()

    def test_last_line_without_newline_comes_back_terminated(self, tmp_path):
        path = self.saved_snapshot(tmp_path)
        cut = tmp_path / "cut.jsonl"
        cut.write_bytes(path.read_bytes().rstrip(b"\n"))
        again = tmp_path / "again.jsonl"
        MemoryStore.load_jsonl(cut).save_jsonl(again)
        assert again.read_bytes() == path.read_bytes()

    def test_hand_written_line_kept_until_boosted(self, tmp_path):
        event = make_event("e0")
        spaced = json.dumps(event.to_record())  # default ", " and ": " separators
        path = tmp_path / "hand.jsonl"
        path.write_text("  " + spaced + "  \n")
        loaded = MemoryStore.load_jsonl(path)
        assert self.saved_lines(loaded, tmp_path / "kept.jsonl") == [spaced + "\n"]
        loaded.boost_access("e0")
        canonical = json.dumps(loaded.get("e0").to_record(), sort_keys=True,
                               separators=(",", ":")) + "\n"
        assert self.saved_lines(loaded, tmp_path / "boosted.jsonl") == [canonical]

    def test_lines_naming_a_layer(self, tmp_path):
        """Snapshots written when events had layers name one on each line:
        "working" and "procedural" lines load and are written back as read,
        and an "episodic" line is left out."""
        lines = [jsonl_line({**make_event(f"e{i}").to_record(), "layer": layer})
                 for i, layer in enumerate(("working", "procedural", "episodic"))]
        path = tmp_path / "old.jsonl"
        path.write_text("".join(lines))
        loaded = MemoryStore.load_jsonl(path)
        assert sorted(loaded.all_ids()) == ["e0", "e1"]
        assert self.saved_lines(loaded, tmp_path / "again.jsonl") == lines[:2]

    def test_to_record_embedding_is_float64_for_any_float_array(self):
        for dtype in (np.float16, np.float32, np.float64, ">f8"):
            tiny = np.finfo(dtype).smallest_subnormal
            emb = np.array([0.1, -0.7, 1.0 / 3.0, -0.0, tiny, 6e4], dtype=dtype)
            record = replace(make_event("e"), embedding=emb).to_record()
            want = emb.astype(">f8").tobytes()
            assert base64.b64decode(record["embedding"], validate=True) == want, dtype
            back = MemoryEvent.from_record(record).embedding
            assert back.dtype == np.float64 and back.astype(">f8").tobytes() == want, dtype

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_base64_embedding_is_rejected(self, value):
        """A NaN or infinite component would make every score of its owner
        NaN, so a snapshot holding one does not load."""
        emb = np.array([0.1, -0.7, value, 0.5])
        record = replace(make_event("e"), embedding=emb).to_record()
        assert base64.b64decode(record["embedding"]) == emb.astype(">f8").tobytes()
        with pytest.raises(ValueError, match="embedding value 2 must be finite"):
            MemoryEvent.from_record(record)


# text a JSON line must escape: quotes, backslashes, control and non-ASCII
# characters, among any others
ESCAPED_TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7fé€😀\u2028'),
                                 st.characters()), max_size=12)
ODD_FLOATS = st.sampled_from([5e-324, 0.1, 1e16])


def number_forms(floats):
    """Numbers drawn from ``floats`` as Python floats and as numpy float64."""
    return st.one_of(floats, floats.map(np.float64))


class TestSnapshotLineEncoder:
    """``MemoryEvent.snapshot_line`` writes each field itself; its line must
    be the canonical JSON line of the event's record, byte for byte."""

    @given(event_id=ESCAPED_TEXT, owner=ESCAPED_TEXT, content=ESCAPED_TEXT,
           importance=st.one_of(st.sampled_from([0, 1]), number_forms(st.one_of(
               ODD_FLOATS.filter(lambda x: x <= 1.0), st.floats(0.0, 1.0)))),
           decay=number_forms(st.one_of(ODD_FLOATS.filter(lambda x: x < 1.0),
                                        st.floats(0.0, 1.0, exclude_min=True,
                                                  exclude_max=True))),
           bonus=st.one_of(st.integers(0, 10**20), number_forms(st.one_of(
               ODD_FLOATS, st.floats(0.0, allow_infinity=True)))),
           created=st.dates(),
           embedding=st.sampled_from([1, 8, 64]).flatmap(lambda dim: st.lists(
               st.floats(allow_nan=False, allow_infinity=False), min_size=dim,
               max_size=dim)))
    @example(event_id='a"b\\c', owner="\x00\n", content="Überweisung 利益 📈",
             importance=5e-324, decay=0.1, bonus=1e16, created=date(2022, 1, 3),
             embedding=[0.1, -0.0, 5e-324, 1e16, -1.7976931348623157e308, 1.0, 3.0, 0.5])
    @example(event_id="e", owner="a", content="", importance=1, decay=5e-324, bonus=10**20,
             created=date(1, 1, 1), embedding=[0.0])
    @settings(max_examples=150, deadline=None)
    def test_line_is_the_canonical_line_of_the_record(self, event_id, owner, content,
                                                      importance, decay, bonus, created,
                                                      embedding):
        event = MemoryEvent(event_id=event_id, owner=owner, content=content,
                            embedding=np.array(embedding), initial_importance=importance,
                            decay_ratio=decay, created_at=created, access_bonus=bonus)
        assert event.snapshot_line() == jsonl_line(event.to_record())


class TestOnePassDecode:
    """``load_jsonl`` decodes every base64 embedding in one pass, then adds
    the events in file order; owners may hold different dims."""

    CALENDAR = WEEKDAYS

    def mixed_store(self) -> MemoryStore:
        """Owner "wide" at dim 64 and owner "narrow" at dim 8, their lines
        interleaved in the snapshot's id order."""
        store = MemoryStore(calendar=self.CALENDAR)
        for i in range(12):
            owner, dim = ("wide", 64) if i % 2 else ("narrow", 8)
            store.add(make_event(f"e{i:02d}", owner=owner, dim=dim, v0=0.1 + 0.07 * i,
                                 theta=0.8 + 0.01 * i, created=WEEKDAYS[40 + 3 * i],
                                 bonus=5.0 * (i % 3)))
        return store

    def test_owners_of_different_dims_load_and_answer_as_added(self, tmp_path):
        store = self.mixed_store()
        path = tmp_path / "snap.jsonl"
        store.save_jsonl(path)
        loaded = MemoryStore.load_jsonl(path, calendar=self.CALENDAR)
        assert len(loaded) == 12
        for owner, dim in (("wide", 64), ("narrow", 8)):
            for as_of in (WEEKDAYS[50], WEEKDAYS[80]):
                query = MemoryQuery(HashEmbedder(dim).embed(f"q {owner}"), as_of, 3, owner)
                want = bits(store.retrieve_top_k(query))
                assert want and bits(loaded.retrieve_top_k(query)) == want

    def test_line_of_another_dim_than_its_owner_names_its_row(self, tmp_path):
        events = [make_event("e0", owner="a", dim=8), make_event("e1", owner="b", dim=64),
                  make_event("e2", owner="a", dim=64), make_event("e3", owner="b", dim=64)]
        path = tmp_path / "snap.jsonl"
        path.write_text("".join(jsonl_line(e.to_record()) for e in events))
        with pytest.raises(SchemaError, match="row 3 is not a memory event "
                                              r"\(DimensionMismatch: event e2") as exc:
            MemoryStore.load_jsonl(path)
        assert exc.value.row == 3

    @pytest.mark.parametrize("text, message", [
        (base64.b64encode(np.array([0.5, math.inf]).astype(">f8").tobytes()).decode(),
         "embedding value 1 must be finite"),
        (base64.b64encode(bytes(12)).decode(), "embedding holds 12 bytes"),
        ("not base64!", "Only base64 data is allowed"),
    ], ids=["non_finite", "wrong_byte_count", "not_base64"])
    def test_faulty_embedding_is_named_after_the_faults_before_it(self, tmp_path, text,
                                                                  message):
        """A faulty embedding on row 4 is reported; so is a fault on row 2
        when row 4 holds the same embedding."""
        lines = [jsonl_line(make_event(f"e{i}").to_record()) for i in range(5)]
        record = json.loads(lines[3])
        record["embedding"] = text
        lines[3] = json.dumps(record) + "\n"
        path = tmp_path / "snap.jsonl"
        path.write_text("".join(lines))
        with pytest.raises(SchemaError, match=f"row 4 is not a memory event .*{message}"):
            MemoryStore.load_jsonl(path)
        lines[1] = lines[1].replace('"content":', '"contents":')
        path.write_text("".join(lines))
        with pytest.raises(SchemaError, match="row 2 is not a memory event .*KeyError"):
            MemoryStore.load_jsonl(path)

    def test_line_that_is_not_json_is_named_after_the_faults_before_it(self, tmp_path):
        lines = [jsonl_line(make_event(f"e{i}").to_record()) for i in range(4)]
        path = tmp_path / "snap.jsonl"
        path.write_text("".join(lines[:3]) + "{not json\n")
        with pytest.raises(SchemaError, match="invalid JSON") as exc:
            MemoryStore.load_jsonl(path)
        assert exc.value.row == 4
        path.write_text(lines[0] + lines[0] + lines[2] + "{not json\n")
        with pytest.raises(SchemaError, match="row 2 is not a memory event") as exc:
            MemoryStore.load_jsonl(path)
        assert exc.value.row == 2


class TestListFormSnapshot:
    """``list_form_snapshot.jsonl`` holds each embedding as a JSON list of
    numbers and each event's layer, as snapshots were written before base64,
    and ``list_form_snapshot_top_k.json`` the retrievals the code that wrote
    it returned from it, with and without a layer filter. The engine asked
    only for "procedural" events; the one "episodic" line does not load."""

    SNAPSHOT = Path(__file__).with_name("list_form_snapshot.jsonl")
    TOP_K = Path(__file__).with_name("list_form_snapshot_top_k.json")

    def load(self, path=SNAPSHOT):
        want = json.loads(self.TOP_K.read_text())
        calendar = tuple(date.fromisoformat(d) for d in want["calendar"])
        queries = [q for q in want["queries"] if q["layer"] == "procedural"]
        return MemoryStore.load_jsonl(path, calendar=calendar), queries

    def procedural_lines(self) -> list[str]:
        return [line for line in self.SNAPSHOT.read_text().splitlines(keepends=True)
                if json.loads(line)["layer"] != "episodic"]

    @staticmethod
    def retrieve(store, query):
        hits = store.retrieve_top_k(MemoryQuery(
            HashEmbedder().embed(query["text"]),
            date.fromisoformat(query["as_of"]), 3, query["owner"]))
        return [[h.event.event_id, h.relevancy, h.importance, h.gamma] for h in hits]

    def test_loads_to_the_same_top_k(self):
        store, queries = self.load()
        assert len(store) == len(self.procedural_lines()) == 9
        assert len(queries) == 4
        for query in queries:
            assert self.retrieve(store, query) == query["hits"], query

    def test_one_file_holds_both_forms(self, tmp_path):
        store, queries = self.load()
        store.save_jsonl(tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_text() == "".join(self.procedural_lines())
        boosted = sorted(store.all_ids())[0]
        store.boost_access(boosted)
        store.save_jsonl(tmp_path / "mixed.jsonl")
        forms = {json.loads(line)["event_id"]: type(json.loads(line)["embedding"])
                 for line in (tmp_path / "mixed.jsonl").read_text().splitlines()}
        assert forms == {eid: str if eid == boosted else list for eid in store.all_ids()}
        mixed, _ = self.load(tmp_path / "mixed.jsonl")
        for event_id in store.all_ids():
            assert mixed.get(event_id).to_record() == store.get(event_id).to_record()
