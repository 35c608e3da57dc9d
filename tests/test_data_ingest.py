import csv
import json
import math
import os
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fincon
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
    read_jsonl_lines,
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
PRICES = ("open", "high", "low", "close", "adj_close")


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
        assert len(series.close) == 3
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

    @pytest.mark.parametrize("blank", ["", "   "], ids=["empty", "spaces"])
    def test_blank_rows_skipped_and_counted(self, tmp_path, blank):
        """A blank line between rows or after the last one is skipped, and
        an error on a later row still names the row as it stands in the file."""
        rows = ["2022-01-03,100,101,99,100.5,100.5,1000", blank,
                "2022-01-04,100.5,102,100,101,101,1100"]
        series = load_price_series(_csv(tmp_path / "p.csv", rows + [blank]), "SYN")
        assert series.dates == (date(2022, 1, 3), date(2022, 1, 4))
        path = _csv(tmp_path / "q.csv", rows + ["2022-01-05,101,103,100.5,104,104,900"])
        with pytest.raises(SchemaError) as err:
            load_price_series(path, "SYN")
        assert (err.value.row, err.value.column) == (4, "close")

    def test_row_the_csv_reader_rejects_is_named(self, tmp_path):
        """A field over ``csv.field_size_limit()`` is a SchemaError naming the
        file and the row the reader failed on, blank rows counted, or row 0
        on the header."""
        huge = "9" * (csv.field_size_limit() + 1)
        path = _csv(tmp_path / "p.csv", ["2022-01-03,100,101,99,100.5,100.5,1000", "",
                                         f"2022-01-04,100.5,102,100,101,101,{huge}"])
        with pytest.raises(SchemaError) as err:
            load_price_series(path, "SYN")
        assert (err.value.row, err.value.column) == (3, None)
        assert f"{path}: row 3 is not a CSV row" in str(err.value)
        path.write_text(f"date,open,{huge}\n")
        with pytest.raises(SchemaError) as err:
            load_price_series(path, "SYN")
        assert (err.value.row, err.value.column) == (0, None)
        assert f"{path}: not a CSV header" in str(err.value)


class TestColumnTypes:
    ROWS = [["2022-01-03", "100", "101.5", "99.25", "100.5", "0.1", "1000"],
            ["2022-01-04", "1e2", "102.00000000000001", "99.999999999999999", "101.1",
             "3.3000000000000003", " 42 "],
            ["2022-01-05", "101", "103.7", "100.5", "102.2", "102.2", "9007199254740993"]]

    def _market(self, tmp_path):
        path = _csv(tmp_path / "p.csv", [",".join(row) for row in self.ROWS])
        days = [date.fromisoformat(row[0]) for row in self.ROWS]
        return MarketData.load({"SYN": str(path)}, [], range_start=days[0],
                               range_end=days[-1]), days

    def test_values_are_the_python_numbers_of_their_texts(self, tmp_path):
        """Prices are Python floats and volumes Python ints, bit for bit what
        float() and int() make of the file's text (a price line formats them
        with repr, so a numpy scalar would change prompts)."""
        market, days = self._market(tmp_path)
        series = market.series["SYN"]
        for col in PRICES:
            got = getattr(series, col)
            assert all(type(v) is float for v in got), col
            assert [v.hex() for v in got] == [float(row[1 + PRICES.index(col)]).hex()
                                              for row in self.ROWS], col
        assert all(type(v) is int for v in series.volume)
        assert series.volume == tuple(int(row[6]) for row in self.ROWS)
        for day, row in zip(days, self.ROWS):
            close = market.close("SYN", day)
            assert type(close) is float and close.hex() == float(row[4]).hex()

    def test_observation_bar_is_the_row(self, tmp_path):
        market, days = self._market(tmp_path)
        for day, row in zip(days, self.ROWS):
            bar = assemble_observation(day, ["SYN"], market)["SYN"].bar
            assert bar == PriceBar(day, *map(float, row[1:6]), int(row[6]))
            assert [type(v) for v in vars(bar).values()] == [date] + [float] * 5 + [int]

# A data row's checks in the order they apply: a file's error is the first
# row with a fault, at that row's first failing check. "low above high" is
# not a check of its own: such a bar always has open outside [low, high].
CHECK_ORDER = (["fields", "date"]
               + [f"{kind}:{col}" for col in PRICES for kind in ("number", "nonfinite")]
               + ["volume"] + [f"nonpositive:{col}" for col in PRICES]
               + ["open_range", "close_range", "negative_volume", "date_order"])
BAD_TEXTS = {"date": ["x", "", "2022-13-01", "2022/01/04", "2022-01"],
             "number": ["abc", "", "1.2.3", "0x10"],
             "nonfinite": ["inf", "-inf", "nan", "1e999"],
             "volume": ["1.5", "", "x"],
             "nonpositive": ["0", "-1.5", "-0.0"],
             "negative_volume": ["-1", "-5000"]}
FAULT_KINDS = [k for k in CHECK_ORDER if k != "date_order"] + ["repeat_date", "earlier_date"]


def _valid_rows(draw) -> list[list[str]]:
    """Rows of a valid price CSV: strictly increasing dates, positive prices,
    open and close within [low, high]."""
    n = draw(st.integers(1, 8))
    price = st.floats(1.0, 1000.0)
    rows = []
    for d in trading_days(date(2022, 1, 3), n):
        o, c = draw(price), draw(price)
        hi, lo = max(o, c) * 1.01, min(o, c) * 0.99
        rows.append([d.isoformat(), repr(o), repr(hi), repr(lo), repr(c), repr(c),
                     str(draw(st.integers(0, 10**6)))])
    return rows


def _plant(kind: str, rows: list[list[str]], generated: list[list[str]], r: int,
           draw) -> tuple[str, int | None]:
    """Plant fault ``kind`` in data row ``r`` (1-based) of ``rows``, reading
    neighbouring values from the valid rows it was ``generated`` as; return
    the check that catches it and the index of the field it changed (None
    when it changed the field count)."""
    row = rows[r - 1]
    head = kind.split(":")[0]
    if kind == "fields":
        if draw(st.booleans()):
            row.append("1")
        else:
            row.pop()
        return "fields", None
    if kind in ("repeat_date", "earlier_date"):
        before = date.fromisoformat(generated[r - 2][0])
        row[0] = (before if kind == "repeat_date" else before - timedelta(days=3)).isoformat()
        return "date_order", 0
    if kind in ("open_range", "close_range"):
        at = 1 if kind == "open_range" else 4
        hi, lo = float(generated[r - 1][2]), float(generated[r - 1][3])
        row[at] = repr(hi * 2 if draw(st.booleans()) else lo / 2)
        return kind, at
    at = {"date": 0, "volume": 6, "negative_volume": 6}.get(head)
    if at is None:
        at = 1 + PRICES.index(kind.split(":")[1])
    row[at] = draw(st.sampled_from(BAD_TEXTS[head]))
    return kind, at


class TestLoaderErrorContract:
    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_first_planted_fault_is_raised(self, tmp_path_factory, data):
        """One or two faults planted at random rows and columns of a valid
        file; the loader names the first in row order, then check order."""
        rows = _valid_rows(data.draw)
        generated = [list(r) for r in rows]
        planted, touched = [], set()
        kind = r = None
        for _ in range(data.draw(st.integers(1, 2))):
            if r is not None and data.draw(st.booleans()):
                # the second fault beside the first, in row and in check order
                k = FAULT_KINDS.index(kind)
                kind = data.draw(st.sampled_from(FAULT_KINDS[max(k - 1, 0):k + 2]))
            else:
                kind = data.draw(st.sampled_from(FAULT_KINDS))
                r = data.draw(st.integers(1, len(rows)))
            assume(r > 1 or kind not in ("repeat_date", "earlier_date"))
            # one fault per field, and a changed field count goes in last: a
            # row that lost its volume has no field 6 to plant in
            assume((r, None) not in touched)
            check, at = _plant(kind, rows, generated, r, data.draw)
            assume((r, at) not in touched)
            touched.add((r, at))
            planted.append((r, CHECK_ORDER.index(check), check))
        row, _, check = min(planted)
        path = tmp_path_factory.getbasetemp() / "contract.csv"
        path.write_text("date,open,high,low,close,adj_close,volume\n"
                        + "".join(",".join(r) + "\n" for r in rows))
        if check == "date_order":
            with pytest.raises(NonMonotoneDates, match=f"row {row} date"):
                load_price_series(path, "SYN")
            return
        with pytest.raises(SchemaError) as err:
            load_price_series(path, "SYN")
        column = {"fields": None, "open_range": "open", "close_range": "close",
                  "negative_volume": "volume"}.get(check, check.split(":")[-1])
        assert (err.value.row, err.value.column) == (row, column), (check, rows)


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


def _series(closes, adj_closes=None, start=date(2022, 1, 3)):
    """A series in column form whose closes (and adjusted closes) are given."""
    days = trading_days(start, len(closes))
    adj_closes = closes if adj_closes is None else adj_closes
    series = PriceSeries(ticker="SYN", dates=tuple(days), open=tuple(closes),
                         high=tuple(c * 1.2 for c in closes), low=tuple(c * 0.9 for c in closes),
                         close=tuple(closes), adj_close=tuple(adj_closes),
                         volume=(1000,) * len(closes))
    return series, days


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
        series, days = _series([100.0, 100.0, 100.0], adj_closes=[50.0, 52.0, 55.0])
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


class TestLogReturnsTo:
    def test_returns_through_the_date_and_within_the_window(self, tmp_path):
        market, days = _market(tmp_path, n_days=10)
        closes = market.series["SYN"].close
        returns = [log_return(a, b) for a, b in zip(closes, closes[1:])]
        for pos, day in enumerate(days):
            assert market.log_returns_to("SYN", day).tolist() == returns[:pos]
            for window in (0, 1, 3, 20):
                got = market.log_returns_to("SYN", day, max_window=window).tolist()
                assert got == returns[max(0, pos - window):pos]
        assert market.log_returns_to("SYN", days[0] - timedelta(days=1)).size == 0

    def test_a_returned_view_cannot_change_the_series(self, tmp_path):
        market, days = _market(tmp_path, n_days=10)
        series = market.series["SYN"]
        before = series.log_returns.tolist()
        view = market.log_returns_to("SYN", days[-1])
        assert view.base is series.log_returns  # a view, not a copy
        with pytest.raises(ValueError):
            view[0] = 1.0
        with pytest.raises(ValueError):
            view += 1.0
        assert series.log_returns.tolist() == before
        assert market.log_returns_to("SYN", days[-1]).tolist() == before


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

    @pytest.mark.parametrize("key", ["doc_id", "ticker", "kind", "published", "body"])
    @pytest.mark.parametrize("value", [None, 7, 1.5, True, {"a": 1}, [1]],
                             ids=["null", "int", "float", "bool", "object", "array"])
    def test_field_that_is_not_a_string(self, tmp_path, key, value):
        """Each field is a JSON string: anything else names its row and key,
        rather than loading as the value's Python text."""
        docs = [{"doc_id": "a", "ticker": "SYN", "kind": "news",
                 "published": "2022-01-04", "body": "x"}]
        docs.append({**docs[0], "doc_id": "b", key: value})
        write_documents(tmp_path / "d.jsonl", docs)
        with pytest.raises(SchemaError) as err:
            load_documents(tmp_path / "d.jsonl")
        assert (err.value.row, err.value.column) == (2, key)
        assert f"row 2: {key} must be a JSON string, got {type(value).__name__}" \
            in str(err.value)

    def test_duplicate_doc_id(self, tmp_path):
        write_documents(tmp_path / "d.jsonl", [
            {"doc_id": "a", "ticker": "SYN", "kind": "news",
             "published": "2022-01-04", "body": "x"},
            {"doc_id": "a", "ticker": "SYN", "kind": "news",
             "published": "2022-01-05", "body": "y"}])
        with pytest.raises(SchemaError):
            load_documents(tmp_path / "d.jsonl")


    def test_utf8_body_read_under_a_posix_locale(self, tmp_path):
        """Inputs are UTF-8 whatever the locale, so an ASCII locale neither
        fails on nor misreads a non-ASCII body."""
        path = tmp_path / "d.jsonl"
        doc = {"doc_id": "a", "ticker": "SYN", "kind": "news",
               "published": "2022-01-04", "body": "caf\u00e9"}
        path.write_bytes((json.dumps(doc, ensure_ascii=False) + "\n").encode("utf-8"))
        script = ("import sys; from fincon.data_ingest import load_documents; "
                  "assert load_documents(sys.argv[1])[0].body == 'caf\\u00e9'")
        env = {**os.environ, "LC_ALL": "POSIX", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": str(Path(fincon.__file__).parents[1])}
        env.pop("PYTHONUTF8", None)
        result = subprocess.run([sys.executable, "-X", "utf8=0", "-c", script, str(path)],
                                env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


class TestAssembleObservation:
    def test_no_documents(self, tmp_path):
        market, days = _market(tmp_path, docs=[])
        obs = assemble_observation(days[10], ["SYN"], market)
        assert obs["SYN"].documents == ()
        assert obs["SYN"].bar.date == days[10]
        assert "momentum" in obs["SYN"].indicators

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
        kinds = [d.kind for d in obs["SYN"].documents]
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
        assert [d.doc_id for d in obs["SYN"].documents] == ["a-early", "z-late"]

    def test_weekend_document_attaches_to_next_trading_day(self, tmp_path):
        saturday = date(2022, 1, 8)
        assert saturday.weekday() == 5
        docs = [{"doc_id": "w", "ticker": "SYN", "kind": "news",
                 "published": saturday.isoformat(), "body": "weekend"}]
        market, days = _market(tmp_path, docs=docs)
        monday = saturday + timedelta(days=2)
        obs = assemble_observation(monday, ["SYN"], market)
        assert [d.doc_id for d in obs["SYN"].documents] == ["w"]

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
            for d in obs["SYN"].documents:
                seen[d.doc_id] = seen.get(d.doc_id, 0) + 1
        assert seen == {f"doc{i:02d}": 1 for i in range(12)}

    def test_all_universe_tickers_present(self, tmp_path):
        market, days = _market(tmp_path, docs=[], tickers=("AAA", "BBB"))
        obs = assemble_observation(days[3], ["AAA", "BBB"], market)
        assert set(obs) == {"AAA", "BBB"}

    def test_indicators_absent_without_history(self, tmp_path):
        market, days = _market(tmp_path, docs=[])
        obs = assemble_observation(days[0], ["SYN"], market)
        assert obs["SYN"].indicators == {}
        obs1 = assemble_observation(days[1], ["SYN"], market)
        assert "log_return" in obs1["SYN"].indicators
        assert "momentum" not in obs1["SYN"].indicators


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
        assert list(read_jsonl_lines(path)) == [(1, '{"a": 1}', {"a": 1}),
                                                (4, '{"a": 2}', {"a": 2})]

    def test_read_jsonl_invalid_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"a": 1}\n{"a": \n')
        with pytest.raises(SchemaError) as err:
            list(read_jsonl_lines(path))
        assert (err.value.row, err.value.column) == (2, None)

    def test_read_jsonl_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(read_jsonl_lines(tmp_path / "absent.jsonl"))
