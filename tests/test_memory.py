import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fincon.errors import DimensionMismatch, FutureEvent, UnknownEventId, ZeroVector
from fincon.memory import (
    ACCESS_BOOST,
    LAYERS,
    HashEmbedder,
    MemoryEvent,
    MemoryQuery,
    MemoryStore,
    cosine_matrix,
    importance_score,
    scale_unit,
    score_candidates,
)

from fixtures import oracle_embed, oracle_importance, oracle_top_k

SQRT_HALF = 0.7071067811865476  # frozen: mpmath sqrt(1/2)


def make_event(event_id, owner="agent", content=None, v0=0.5, theta=0.9,
               created=date(2022, 1, 3), bonus=0.0, dim=16, layer="procedural",
               embedding=None):
    emb = HashEmbedder(dim)
    content = content if content is not None else f"content {event_id}"
    return MemoryEvent(
        event_id=event_id, owner=owner, layer=layer, content=content,
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
            store.retrieve_top_k(MemoryQuery("q", np.zeros(3), date(2022, 2, 1), 1, "agent"))

    def test_dimension_mismatch(self):
        store = MemoryStore()
        store.add(make_event("e", embedding=[1.0, 2.0, 3.0]))
        with pytest.raises(DimensionMismatch):
            store.retrieve_top_k(MemoryQuery("q", np.ones(4), date(2022, 2, 1), 1, "agent"))


class TestImportance:
    def test_zero_age(self):
        event = make_event("e", v0=1.0, theta=0.9)
        assert importance_score(event, event.created_at) == 1.0

    def test_two_day_decay(self):
        event = make_event("e", v0=0.8, theta=0.9, created=date(2022, 1, 3))
        got = importance_score(event, date(2022, 1, 5))
        assert abs(got - 0.648) < 1e-12

    def test_access_bonus_added(self):
        event = make_event("e", v0=0.3, theta=0.9, bonus=5.0)
        assert abs(importance_score(event, event.created_at) - 5.3) < 1e-12

    def test_future_event(self):
        event = make_event("e", created=date(2022, 1, 10))
        with pytest.raises(FutureEvent):
            importance_score(event, date(2022, 1, 9))

    def test_trading_day_delta(self):
        # Fri 2022-01-07 -> Mon 2022-01-10 is one trading day, not three
        calendar = (date(2022, 1, 6), date(2022, 1, 7), date(2022, 1, 10))
        event = make_event("e", v0=1.0, theta=0.5, created=date(2022, 1, 7))
        got = importance_score(event, date(2022, 1, 10), calendar)
        assert got == 0.5

    @given(v0=st.floats(0.01, 1.0), theta=st.floats(0.01, 0.99),
           dt=st.integers(0, 50))
    def test_strictly_decreasing_in_age(self, v0, theta, dt):
        event = make_event("e", v0=v0, theta=theta, created=date(2022, 1, 1))
        earlier = importance_score(event, date(2022, 1, 1) + timedelta(days=dt))
        later = importance_score(event, date(2022, 1, 1) + timedelta(days=dt + 1))
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
        query = MemoryQuery("q", emb.embed("q"), date(2022, 2, 1), 5, "agent")
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
            query = MemoryQuery("q", q, as_of, k, "agent")
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
        query = MemoryQuery("q", rng.standard_normal(16), as_of, 10, "agent")
        for scored in store.retrieve_top_k(query):
            assert scored.event.created_at <= as_of

    def test_owner_filtering(self):
        store = MemoryStore()
        store.add(make_event("mine", owner="a"))
        store.add(make_event("theirs", owner="b"))
        emb = HashEmbedder(16)
        query = MemoryQuery("q", emb.embed("q"), date(2022, 2, 1), 10, "a")
        got = [s.event.event_id for s in store.retrieve_top_k(query)]
        assert got == ["mine"]

    def test_gamma_is_sum_of_scaled_components(self):
        store = MemoryStore()
        for i in range(6):
            store.add(make_event(f"e{i}", created=date(2022, 1, 3 + i)))
        emb = HashEmbedder(16)
        query = MemoryQuery("q", emb.embed("q"), date(2022, 2, 1), 6, "agent")
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
        query = MemoryQuery("q", emb, date(2022, 2, 1), 3, "agent")
        got = [s.event.event_id for s in store.retrieve_top_k(query)]
        assert got == ["c", "a", "b"]

    def test_dimension_mismatch(self):
        store = MemoryStore()
        store.add(make_event("e", dim=8))
        query = MemoryQuery("q", np.ones(16), date(2022, 2, 1), 3, "agent")
        with pytest.raises(DimensionMismatch):
            store.retrieve_top_k(query)

    def test_owner_embeddings_share_one_dim(self):
        store = MemoryStore()
        store.add(make_event("e", dim=8))
        with pytest.raises(DimensionMismatch):
            store.add(make_event("f", dim=16))
        store.add(make_event("g", owner="other", dim=16))
        assert not store.has("f") and len(store) == 2


    def test_concurrent_writers_keep_owner_columns_consistent(self):
        # more threads than cores on one owner, switching often: a lost or
        # misplaced row or bonus update makes a retrieval disagree with the oracle
        n_threads, per_thread, rounds = 8, 300, 5
        query = HashEmbedder(8).embed("q")
        as_of = date(2022, 2, 1)

        def work(store, t):
            for i in range(per_thread):
                event_id = f"t{t}-{i:03d}"
                store.add(make_event(event_id, dim=8,
                                     created=date(2022, 1, 3) + timedelta(days=i % 20)))
                if i % 3 == 0:
                    store.boost_access(event_id)
                if i % 10 == 0:
                    store.retrieve_top_k(MemoryQuery("q", query, as_of, 5, "agent"))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(rounds):
                store = MemoryStore()
                with ThreadPoolExecutor(n_threads) as pool:
                    list(pool.map(lambda t: work(store, t), range(n_threads), timeout=120))
                events = [store.get(event_id) for event_id in store.all_ids()]
                assert len(events) == len(store) == n_threads * per_thread
                got = [s.event.event_id for s in store.retrieve_top_k(
                    MemoryQuery("q", query, as_of, len(events), "agent"))]
                assert got == [hit[0] for hit in
                               oracle_top_k(events, query, as_of, len(events), "agent")]
        finally:
            sys.setswitchinterval(old)


# --- retrieval against the per-event oracle in fixtures.py ------------------
#
# Embeddings have small integer components and importance inputs are dyadic
# with dt <= 31, so every dot product, norm and power is exact and the
# oracle's per-event arithmetic gives the store's scores bit for bit: equal
# scores are equal, and the tie-break is what orders them.

BASE = date(2022, 1, 3)
VECTORS = ((1, 0, 0), (0, 1, 0), (1, 1, 0), (2, -1, 1), (-1, 2, 2), (1, 1, 1))
OFFSETS = st.integers(-4, 27)  # days from BASE; the calendar covers 0..27 at most


@st.composite
def retrieval_cases(draw):
    trading = draw(st.none() | st.lists(st.booleans(), min_size=28, max_size=28))
    calendar = None if trading is None else tuple(
        BASE + timedelta(days=i) for i, on in enumerate(trading) if on)
    ids = draw(st.lists(st.text("abc", min_size=1, max_size=3), min_size=1,
                        max_size=24, unique=True))
    events = [MemoryEvent(
        event_id=event_id,
        owner=draw(st.sampled_from(("a", "b"))),
        layer=draw(st.sampled_from(LAYERS)),
        content=event_id,
        embedding=np.array(draw(st.sampled_from(VECTORS)), dtype=float),
        initial_importance=draw(st.sampled_from((0.25, 0.5, 1.0))),
        decay_ratio=draw(st.sampled_from((0.5, 0.75))),
        created_at=BASE + timedelta(days=draw(OFFSETS)),
        access_bonus=draw(st.sampled_from((0.0, 5.0))),
    ) for event_id in ids]
    query = st.tuples(st.just("query"), st.sampled_from(("a", "b")),
                      st.sampled_from((None,) + LAYERS), OFFSETS, st.integers(1, 6),
                      st.sampled_from(VECTORS))
    boost = st.tuples(st.just("boost"), st.sampled_from(ids))
    steps = draw(st.lists(query | boost, min_size=1, max_size=8))
    return calendar, events, steps


class TestRetrievalOracle:
    @given(retrieval_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_event_oracle(self, case):
        calendar, events, steps = case
        store = MemoryStore(calendar=calendar)
        for e in events:
            store.add(e)
        for step in steps:
            if step[0] == "boost":
                store.boost_access(step[1])
                continue
            _, owner, layer, offset, k, vector = step
            as_of = BASE + timedelta(days=offset)
            emb = np.array(vector, dtype=float)
            got = [(s.event.event_id, s.relevancy, s.importance, s.gamma) for s in
                   store.retrieve_top_k(MemoryQuery("q", emb, as_of, k, owner, layer))]
            assert got == oracle_top_k(events, emb, as_of, k, owner, layer, calendar)
            for e in events:
                if e.created_at <= as_of:
                    assert importance_score(e, as_of, calendar) == \
                        oracle_importance(e, as_of, calendar)


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
        to_record = MemoryEvent.to_record

        def counting(event):
            calls.append(event.event_id)
            return to_record(event)

        monkeypatch.setattr(MemoryEvent, "to_record", counting)
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

    def test_to_record_embedding_is_python_floats_for_any_float_array(self):
        emb32 = np.array([0.1, -0.7, 1.0 / 3.0], dtype=np.float32)
        record = replace(make_event("e"), embedding=emb32).to_record()
        assert record["embedding"] == [float(x) for x in emb32]
        assert all(type(x) is float for x in record["embedding"])
