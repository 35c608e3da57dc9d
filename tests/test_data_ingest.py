import math
from datetime import date, timedelta
from pathlib import Path

import pytest

from fincon.data_ingest import (
    MarketData,
    PriceBar,
    PriceSeries,
    assemble_observation,
    load_documents,
    load_price_series,
    log_return,
    momentum,
    parse_date,
    read_jsonl,
)
from fincon.errors import (
    DateOutOfRange,
    InsufficientHistory,
    NonMonotoneDates,
    NonPositivePrice,
    SchemaError,
)

from fixtures import trading_days, write_documents, write_price_csv

# frozen against a 25-digit mpmath natural-log oracle
LN_11_10 = 0.09531017980432486


def _csv(path: Path, rows: list[str]) -> Path:
    path.write_text("date,open,high,low,close,adj_close,volume\n" + "\n".join(rows) + "\n")
    return path


class TestLoadPriceSeries:
    def test_three_row_valid_csv(self, tmp_path):
        path = _csv(tmp_path / "p.csv", [
            "2022-01-03,100,101,99,100.5,100.5,1000",
            "2022-01-04,100.5,102,100,101,101,1100",
            "2022-01-05,101,103,100.5,102,102,900",
        ])
        series = load_price_series(path, "SYN")
        assert len(series.bars) == 3
        assert series.dates == (date(2022, 1, 3), date(2022, 1, 4), date(2022, 1, 5))

    def test_close_above_high_row_2(self, tmp_path):
        path = _csv(tmp_path / "p.csv", [
            "2022-01-03,100,101,99,100.5,100.5,1000",
            "2022-01-04,100.5,102,100,103,103,1100",
        ])
        with pytest.raises(SchemaError) as err:
            load_price_series(path, "SYN")
        assert err.value.row == 2
        assert err.value.column == "close"

    def test_duplicate_date_rejected(self, tmp_path):
        path = _csv(tmp_path / "p.csv", [
            "2022-01-03,100,101,99,100.5,100.5,1000",
            "2022-01-03,100.5,102,100,101,101,1100",
        ])
        with pytest.raises(NonMonotoneDates):
            load_price_series(path, "SYN")

    def test_out_of_order_dates_rejected(self, tmp_path):
        path = _csv(tmp_path / "p.csv", [
            "2022-01-04,100,101,99,100.5,100.5,1000",
            "2022-01-03,100.5,102,100,101,101,1100",
        ])
        with pytest.raises(NonMonotoneDates):
            load_price_series(path, "SYN")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_price_series(tmp_path / "absent.csv", "SYN")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,open,close\n2022-01-03,1,2\n")
        with pytest.raises(SchemaError):
            load_price_series(path, "SYN")

    def test_negative_price_rejected(self, tmp_path):
        path = _csv(tmp_path / "p.csv", ["2022-01-03,-1,101,99,100.5,100.5,1000"])
        with pytest.raises(SchemaError) as err:
            load_price_series(path, "SYN")
        assert err.value.column == "open"

    def test_negative_volume_rejected(self, tmp_path):
        path = _csv(tmp_path / "p.csv", ["2022-01-03,100,101,99,100.5,100.5,-5"])
        with pytest.raises(SchemaError) as err:
            load_price_series(path, "SYN")
        assert err.value.column == "volume"


class TestLogReturn:
    def test_identity(self):
        assert log_return(100.0, 100.0) == 0.0

    def test_against_high_precision_oracle(self):
        assert abs(log_return(100.0, 110.0) - LN_11_10) < 1e-12

    def test_non_positive_price(self):
        with pytest.raises(NonPositivePrice):
            log_return(100.0, 0.0)
        with pytest.raises(NonPositivePrice):
            log_return(-1.0, 100.0)

    def test_telescoping_sum(self):
        closes = [100.0, 104.0, 97.0, 103.5, 111.2, 108.0]
        total = sum(log_return(a, b) for a, b in zip(closes, closes[1:]))
        assert abs(total - math.log(closes[-1] / closes[0])) < 1e-12


def _series(closes, start=date(2022, 1, 3)):
    days = trading_days(start, len(closes))
    bars = tuple(
        PriceBar(date=d, open=c, high=c * 1.01, low=c * 0.99, close=c, adj_close=c,
                 volume=1000)
        for d, c in zip(days, closes))
    return PriceSeries(ticker="SYN", bars=bars), days


class TestMomentum:
    def test_flat_series(self):
        series, days = _series([100.0, 100.0, 100.0])
        assert momentum(series, days[-1], 2) == 0.0

    def test_ten_percent_move(self):
        series, days = _series([100.0, 104.0, 107.0, 110.0])
        assert abs(momentum(series, days[-1], 3) - 0.10) < 1e-12

    def test_insufficient_history(self):
        series, days = _series([100.0, 101.0, 102.0])
        with pytest.raises(InsufficientHistory):
            momentum(series, days[-1], 5)

    def test_uses_adj_close(self):
        days = trading_days(date(2022, 1, 3), 3)
        bars = tuple(
            PriceBar(date=d, open=c, high=c * 1.2, low=c * 0.9, close=c,
                     adj_close=a, volume=10)
            for d, c, a in zip(days, [100.0, 100.0, 100.0], [50.0, 52.0, 55.0]))
        series = PriceSeries(ticker="SYN", bars=bars)
        assert abs(momentum(series, days[-1], 2) - 0.10) < 1e-12


def _market(tmp_path, n_days=30, docs=None, tickers=("SYN",)):
    days = trading_days(date(2022, 1, 3), n_days)
    prices = {}
    for j, t in enumerate(tickers):
        closes = [100.0 + 3 * math.sin(0.7 * i + j) + 0.2 * i for i in range(n_days)]
        write_price_csv(tmp_path / f"{t}.csv", days, closes)
        prices[t] = str(tmp_path / f"{t}.csv")
    doc_paths = []
    if docs is not None:
        write_documents(tmp_path / "docs.jsonl", docs)
        doc_paths = [str(tmp_path / "docs.jsonl")]
    market = MarketData.load(prices, doc_paths, range_start=days[0], range_end=days[-1],
                             momentum_window=5)
    return market, days


class TestDocuments:
    def test_load_valid(self, tmp_path):
        docs = [
            {"doc_id": "a", "ticker": "SYN", "kind": "news",
             "published": "2022-01-04", "body": "x"},
            {"doc_id": "b", "ticker": "SYN", "kind": "form10q",
             "published": "2022-01-04", "body": "y"},
        ]
        write_documents(tmp_path / "d.jsonl", docs)
        loaded = load_documents(tmp_path / "d.jsonl")
        assert [d.doc_id for d in loaded] == ["a", "b"]

    def test_unknown_kind(self, tmp_path):
        write_documents(tmp_path / "d.jsonl", [
            {"doc_id": "a", "ticker": "SYN", "kind": "tweet",
             "published": "2022-01-04", "body": "x"}])
        with pytest.raises(SchemaError) as err:
            load_documents(tmp_path / "d.jsonl")
        assert err.value.column == "kind"

    def test_empty_body(self, tmp_path):
        write_documents(tmp_path / "d.jsonl", [
            {"doc_id": "a", "ticker": "SYN", "kind": "news",
             "published": "2022-01-04", "body": "  "}])
        with pytest.raises(SchemaError):
            load_documents(tmp_path / "d.jsonl")

    def test_bad_published_date(self, tmp_path):
        write_documents(tmp_path / "d.jsonl", [
            {"doc_id": "a", "ticker": "SYN", "kind": "news",
             "published": "2022-01", "body": "x"}])
        with pytest.raises(SchemaError) as err:
            load_documents(tmp_path / "d.jsonl")
        assert (err.value.row, err.value.column) == (1, "published")

    def test_duplicate_doc_id(self, tmp_path):
        write_documents(tmp_path / "d.jsonl", [
            {"doc_id": "a", "ticker": "SYN", "kind": "news",
             "published": "2022-01-04", "body": "x"},
            {"doc_id": "a", "ticker": "SYN", "kind": "news",
             "published": "2022-01-05", "body": "y"}])
        with pytest.raises(SchemaError):
            load_documents(tmp_path / "d.jsonl")


class TestAssembleObservation:
    def test_no_documents(self, tmp_path):
        market, days = _market(tmp_path, docs=[])
        obs = assemble_observation(days[10], ["SYN"], market)
        assert obs.tickers["SYN"].documents == ()
        assert obs.tickers["SYN"].bar.date == days[10]
        assert "momentum" in obs.tickers["SYN"].indicators

    def test_documents_routed_by_kind(self, tmp_path):
        day = trading_days(date(2022, 1, 3), 30)[10]
        docs = [
            {"doc_id": "n1", "ticker": "SYN", "kind": "news",
             "published": day.isoformat(), "body": "a"},
            {"doc_id": "n2", "ticker": "SYN", "kind": "news",
             "published": day.isoformat(), "body": "b"},
            {"doc_id": "q1", "ticker": "SYN", "kind": "form10q",
             "published": day.isoformat(), "body": "c"},
        ]
        market, days = _market(tmp_path, docs=docs)
        obs = assemble_observation(day, ["SYN"], market)
        kinds = [d.kind for d in obs.tickers["SYN"].documents]
        assert sorted(kinds) == ["form10q", "news", "news"]

    def test_same_day_ordered_by_doc_id(self, tmp_path):
        day = trading_days(date(2022, 1, 3), 30)[10]
        docs = [
            {"doc_id": "z-late", "ticker": "SYN", "kind": "news",
             "published": day.isoformat(), "body": "a"},
            {"doc_id": "a-early", "ticker": "SYN", "kind": "news",
             "published": day.isoformat(), "body": "b"},
        ]
        market, _ = _market(tmp_path, docs=docs)
        obs = assemble_observation(day, ["SYN"], market)
        assert [d.doc_id for d in obs.tickers["SYN"].documents] == ["a-early", "z-late"]

    def test_weekend_document_attaches_to_next_trading_day(self, tmp_path):
        saturday = date(2022, 1, 8)
        assert saturday.weekday() == 5
        docs = [{"doc_id": "w", "ticker": "SYN", "kind": "news",
                 "published": saturday.isoformat(), "body": "weekend"}]
        market, days = _market(tmp_path, docs=docs)
        monday = saturday + timedelta(days=2)
        obs = assemble_observation(monday, ["SYN"], market)
        assert [d.doc_id for d in obs.tickers["SYN"].documents] == ["w"]

    def test_date_out_of_range(self, tmp_path):
        market, days = _market(tmp_path, docs=[])
        with pytest.raises(DateOutOfRange):
            assemble_observation(days[-1] + timedelta(days=30), ["SYN"], market)
        with pytest.raises(DateOutOfRange):
            assemble_observation(days[0] + timedelta(days=1)
                                 if days[0].weekday() == 4 else days[0] - timedelta(days=1),
                                 ["SYN"], market)

    def test_pure_function_byte_identical(self, tmp_path):
        day = trading_days(date(2022, 1, 3), 30)[12]
        docs = [{"doc_id": "d", "ticker": "SYN", "kind": "ecc_transcript",
                 "published": day.isoformat(), "body": "call"}]
        market, _ = _market(tmp_path, docs=docs)
        first = assemble_observation(day, ["SYN"], market)
        second = assemble_observation(day, ["SYN"], market)
        assert first == second

    def test_every_document_in_exactly_one_observation(self, tmp_path):
        days = trading_days(date(2022, 1, 3), 30)
        docs = []
        cursor = days[0]
        for i in range(12):  # includes weekends
            docs.append({"doc_id": f"doc{i:02d}", "ticker": "SYN", "kind": "news",
                         "published": cursor.isoformat(), "body": f"b{i}"})
            cursor += timedelta(days=2)
        market, _ = _market(tmp_path, docs=docs)
        seen: dict[str, int] = {}
        for day in days:
            obs = assemble_observation(day, ["SYN"], market)
            for d in obs.tickers["SYN"].documents:
                seen[d.doc_id] = seen.get(d.doc_id, 0) + 1
        assert seen == {f"doc{i:02d}": 1 for i in range(12)}

    def test_all_universe_tickers_present(self, tmp_path):
        market, days = _market(tmp_path, docs=[], tickers=("AAA", "BBB"))
        obs = assemble_observation(days[3], ["AAA", "BBB"], market)
        assert set(obs.tickers) == {"AAA", "BBB"}

    def test_indicators_absent_without_history(self, tmp_path):
        market, days = _market(tmp_path, docs=[])
        obs = assemble_observation(days[0], ["SYN"], market)
        assert obs.tickers["SYN"].indicators == {}
        obs1 = assemble_observation(days[1], ["SYN"], market)
        assert "log_return" in obs1.tickers["SYN"].indicators
        assert "momentum" not in obs1.tickers["SYN"].indicators


class TestFormats:
    @pytest.mark.parametrize("text, want", [
        ("2022-01-04", date(2022, 1, 4)),
        ("2022-1-4", date(2022, 1, 4)),
    ])
    def test_parse_date(self, text, want):
        assert parse_date(text) == want

    @pytest.mark.parametrize("text", ["2022-01", "2022-01-04-05", "2022/01/04",
                                      "2022-02-30", "", None])
    def test_parse_date_rejects(self, text):
        with pytest.raises(ValueError):
            parse_date(text)

    def test_read_jsonl_numbers_lines_and_skips_blanks(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"a": 2}\n')
        assert list(read_jsonl(path)) == [(1, {"a": 1}), (4, {"a": 2})]

    def test_read_jsonl_invalid_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"a": 1}\n{"a": \n')
        with pytest.raises(SchemaError) as err:
            list(read_jsonl(path))
        assert (err.value.row, err.value.column) == (2, None)

    def test_read_jsonl_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(read_jsonl(tmp_path / "absent.jsonl"))
