"""File-based market data: price bars, text documents, daily observations.

Prices arrive as CSVs (``date,open,high,low,close,adj_close,volume``),
documents as JSONL with one object per line. Loading validates every row;
after that everything here is read-only.

Trading days are defined by the price file of the first configured ticker.
Documents published on non-trading days attach to the next trading day;
documents published after the last trading day attach nowhere and are
reported via ``MarketData.unattached``.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import operator
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date as Date
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    DateOutOfRange,
    InsufficientHistory,
    NonMonotoneDates,
    NonPositivePrice,
    SchemaError,
)

PRICE_COLUMNS = ("date", "open", "high", "low", "close", "adj_close", "volume")
PRICES = PRICE_COLUMNS[1:6]
DOCUMENT_KINDS = ("news", "form10k", "form10q", "ecc_transcript", "analyst_report")


@dataclass(frozen=True)
class PriceBar:
    """One day of a ``PriceSeries``, as a daily observation hands it out."""

    date: Date
    open: float
    high: float
    low: float
    close: float
    adj_close: float
    volume: int


@dataclass(frozen=True)
class PriceSeries:
    """One ticker's daily bars as columns, in date order (dates strictly
    increasing, as ``load_price_series`` checks).

    Prices are Python floats and volumes Python ints, each equal to what
    ``float`` or ``int`` makes of its text in the file, so a price line that
    formats them with ``!r`` reads the same digits.
    """

    ticker: str
    dates: tuple[Date, ...]
    open: tuple[float, ...]
    high: tuple[float, ...]
    low: tuple[float, ...]
    close: tuple[float, ...]
    adj_close: tuple[float, ...]
    volume: tuple[int, ...]

    @cached_property
    def log_returns(self) -> np.ndarray:
        """Close-to-close log returns; entry i - 1 ends at bar i.

        One float64 block rather than a tuple of floats: many small float
        objects kept for a whole run raised the process's peak memory run
        after run. ``log_return`` takes each pair, as the indicator does, so
        both read the same bits. The block is read-only, because
        ``MarketData.log_returns_to`` hands out views of it: a write through
        one raises ValueError instead of changing the series.
        """
        closes = self.close
        returns = np.fromiter(map(log_return, closes, closes[1:]), dtype=float,
                              count=max(len(closes) - 1, 0))
        returns.flags.writeable = False
        return returns

    def index_at_or_before(self, date: Date) -> int:
        """Position of the last bar dated <= date; -1 when none exists."""
        return bisect.bisect_right(self.dates, date) - 1

    def bar_at_or_before(self, date: Date) -> PriceBar | None:
        pos = self.index_at_or_before(date)
        if pos < 0:
            return None
        return PriceBar(self.dates[pos], self.open[pos], self.high[pos], self.low[pos],
                        self.close[pos], self.adj_close[pos], self.volume[pos])


@dataclass(frozen=True)
class TextDocument:
    doc_id: str
    ticker: str
    kind: str
    published: Date
    body: str


@dataclass(frozen=True)
class TickerSlice:
    """One ticker's share of a daily observation."""

    bar: PriceBar
    indicators: dict[str, float]
    documents: tuple[TextDocument, ...]


def parse_date(text: str) -> Date:
    """A ``Y-M-D`` date (each part an ``int`` text, so ``2022-1-4`` is one);
    ValueError when the text is not one."""
    y, m, d = str(text).split("-")
    return Date(int(y), int(m), int(d))


def finite_number(name: str, value) -> float:
    """A run file field's value as a float: TypeError unless it is a JSON
    number (not a bool), ValueError unless it is finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not -sys.float_info.max <= value <= sys.float_info.max:  # NaN fails too
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


@contextmanager
def open_input(path: Path, newline: str | None = None):
    """``path`` opened as UTF-8 text whatever the locale, so a run reads the
    same text on every machine. FileNotFoundError for a missing file;
    SchemaError(0, None) naming the file for one that cannot be opened (a
    directory) or is not UTF-8 where it is read."""
    if not path.exists():
        raise FileNotFoundError(str(path))
    try:
        with path.open(encoding="utf-8", newline=newline) as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(0, None, f"{path}: not a readable UTF-8 text file ({exc})") from None


def read_jsonl_objects(path: str | Path, keys: tuple[str, ...]):
    """Yield ``(row_no, record)`` for each row of a JSONL input file whose
    every row is a JSON object holding a JSON string at each of ``keys``.

    SchemaError(row, None) for a row that is not an object, and
    SchemaError(row, key) naming the first key a row lacks or holds
    something other than a string at.
    """
    for row_no, _, rec in read_jsonl_lines(path):
        if not isinstance(rec, dict):
            raise SchemaError(row_no, None, f"{path}: row {row_no} is not a JSON object")
        for key in keys:
            if key not in rec:
                raise SchemaError(row_no, key, f"{path}: missing {key} in row {row_no}")
            if not isinstance(rec[key], str):
                raise SchemaError(row_no, key, f"{path}: row {row_no}: {key} must be a "
                                  f"JSON string, got {type(rec[key]).__name__}")
        yield row_no, rec


def read_jsonl_lines(path: str | Path):
    """Yield ``(row_no, line, record)`` for each non-blank line of a JSONL
    file, ``line`` being the text the record was parsed from, stripped.

    The one JSONL reader. Line numbers double as row numbers. Raises as
    ``open_input`` does, and SchemaError(row, None) for a line that is not
    JSON.
    """
    path = Path(path)
    with open_input(path) as fh:
        for row_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise SchemaError(row_no, None, f"{path}: invalid JSON ({exc})") from None
            yield row_no, line, record


_JSONL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# a JSON string as ``jsonl_line`` writes it, quotes included
json_string = json.encoder.encode_basestring_ascii


def jsonl_line(record) -> str:
    """``record`` as one canonical JSON-lines line: sorted keys, no spaces,
    ending in a newline. Every JSONL file a run writes is made of these."""
    return _JSONL_ENCODER.encode(record) + "\n"


def json_number(value) -> str:
    """A number (bool, int or float) as ``jsonl_line`` writes it."""
    if type(value) is float and math.isfinite(value):
        return repr(value)
    return _JSONL_ENCODER.encode(value)


def read_json(path: str | Path):
    """The single JSON document a run file holds.

    Raises as ``open_input`` does, and SchemaError(0, None) for a file that
    is not JSON, such as one cut short by a crash, or that ``json.load``
    rejects otherwise (any ValueError).
    """
    path = Path(path)
    try:
        with open_input(path) as fh:
            return json.load(fh)
    except ValueError as exc:
        raise SchemaError(0, None, f"{path}: invalid JSON ({exc})") from None


def load_price_series(path: str | Path, ticker: str,
                      dates_by_text: dict[str, Date] | None = None) -> PriceSeries:
    """Load and validate one price CSV into date-ordered columns.

    One pass over ``csv.reader``'s rows: they are counted, transposed and
    converted a column at a time (``map(float, ...)``, ``map(int, ...)``),
    and the checks run over whole columns. Blank rows (empty or
    whitespace-only lines) are skipped. Rows are numbered as they stand in
    the file, 1-based, header excluded, blank rows counted.
    ``dates_by_text`` maps the date texts parsed so far to their dates;
    ``MarketData.load`` passes one map to every file of a load, since the
    files of a portfolio share a calendar.

    Raises as ``open_input`` does; SchemaError(0, None) for an empty file, a
    wrong header or a header the CSV reader rejects; SchemaError(row, None)
    for the first row the CSV reader rejects, such as one with a field over
    ``csv.field_size_limit()``. Otherwise a bad file raises for its first
    faulty row, at that row's first failing check, in this order:
    SchemaError(row, None) for a wrong field count; SchemaError(row, column)
    for a date that is not one, each price in column order that is not a
    number or not finite, a volume that is not an integer, a price that is
    not positive, an open or close outside [low, high] and a negative
    volume; then NonMonotoneDates for a date not after the row before.
    """
    path = Path(path)
    with open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise SchemaError.not_a(path, "CSV header", exc) from None
        if header is None:
            raise SchemaError(0, None, f"{path}: empty file")
        if tuple(h.strip() for h in header) != PRICE_COLUMNS:
            raise SchemaError(0, None, f"{path}: header must be {','.join(PRICE_COLUMNS)}")
        rows = []
        try:
            rows.extend(reader)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise SchemaError.not_a(path, "CSV row", exc, len(rows) + 1) from None
    row_nos = range(1, len(rows) + 1)
    if rows and min(map(len, rows)) < 2:  # blank lines may be among them
        row_nos = [n for n, row in zip(row_nos, rows) if len(row) > 1 or "".join(row).strip()]
        rows = [rows[n - 1] for n in row_nos]

    # A wrong field count or a bad date is a row's first check: nothing from
    # that row on can come before it, so the other checks stop there.
    n = next((i for i, row in enumerate(rows) if len(row) != len(PRICE_COLUMNS)), len(rows))
    stop = None if n == len(rows) else SchemaError(
        row_nos[n], None, f"{path}: expected {len(PRICE_COLUMNS)} fields")
    date_texts, *price_texts, volume_texts = list(zip(*rows[:n])) or [()] * len(PRICE_COLUMNS)
    dates = _parse_dates(date_texts, {} if dates_by_text is None else dates_by_text)
    if len(dates) < n:
        n = len(dates)
        stop = SchemaError(row_nos[n], "date", f"{path}: bad date {date_texts[n]!r}")

    prices, unparsed = zip(*(_convert(float, texts[:n], math.nan) for texts in price_texts))
    volumes, volume_unparsed = _convert(int, volume_texts[:n], 0)
    block = np.array(prices, dtype=float).reshape(len(prices), n)
    opens, highs, lows, closes, _ = block
    checks = []  # (column, message, fault mask), in the order a row is checked
    for col, bad, values in zip(PRICES, unparsed, block):
        checks += [(col, "bad number {text!r}", bad), (col, f"non-finite {col}", ~np.isfinite(values))]
    checks.append(("volume", "bad volume {text!r}", volume_unparsed))
    invariants = [*zip(PRICES, block <= 0),
                  ("open", (opens < lows) | (opens > highs)),
                  ("close", (closes < lows) | (closes > highs)),
                  ("volume", np.array([v < 0 for v in volumes], dtype=bool))]
    checks += [(col, f"row {{row}} violates {col} invariant", mask) for col, mask in invariants]
    faults = np.array([mask for _, _, mask in checks], dtype=bool).reshape(len(checks), n)
    faulty = np.flatnonzero(faults.any(axis=0))
    first = int(faulty[0]) if faulty.size else n
    # the date order is a row's last check, so it counts only before ``first``
    ordered = list(map(operator.lt, dates, dates[1:first]))
    if False in ordered:
        later = ordered.index(False) + 1
        raise NonMonotoneDates(f"{path}: row {row_nos[later]} date {dates[later]} not increasing")
    if first < n:
        col, message, _ = checks[int(faults[:, first].argmax())]
        text = rows[first][PRICE_COLUMNS.index(col)]
        raise SchemaError(row_nos[first], col,
                          f"{path}: " + message.format(row=row_nos[first], text=text))
    if stop is not None:
        raise stop
    return PriceSeries(ticker, tuple(dates), *map(tuple, prices), tuple(volumes))


def _parse_dates(texts: tuple[str, ...], dates_by_text: dict[str, Date]) -> list[Date]:
    """The dates of ``texts``, stopping before the first that is not one;
    ``dates_by_text`` holds the texts parsed so far and gains the new ones."""
    dates = []
    for text in texts:
        date = dates_by_text.get(text)
        if date is None:
            try:
                date = dates_by_text[text] = parse_date(text.strip())
            except ValueError:
                break
        dates.append(date)
    return dates


def _convert(convert, texts: tuple[str, ...], substitute) -> tuple[list, np.ndarray]:
    """``texts`` converted a column at a time, and the mask of those that do
    not convert, each of which becomes ``substitute``."""
    try:
        return list(map(convert, texts)), np.zeros(len(texts), dtype=bool)
    except ValueError:
        pass

    def attempt(text):
        try:
            return convert(text)
        except ValueError:
            return None

    values = list(map(attempt, texts))
    unparsed = np.array([v is None for v in values], dtype=bool)
    return [substitute if v is None else v for v in values], unparsed


def load_documents(path: str | Path) -> list[TextDocument]:
    """Load a document JSONL file; line numbers double as row numbers."""
    docs: list[TextDocument] = []
    seen_ids: set[str] = set()
    for row_no, rec in read_jsonl_objects(path, ("doc_id", "ticker", "kind", "published",
                                                 "body")):
        if rec["kind"] not in DOCUMENT_KINDS:
            raise SchemaError(row_no, "kind", f"{path}: unknown kind {rec['kind']!r}")
        if not rec["body"].strip():
            raise SchemaError(row_no, "body", f"{path}: empty body")
        doc_id = rec["doc_id"]
        if doc_id in seen_ids:
            raise SchemaError(row_no, "doc_id", f"{path}: duplicate doc_id {doc_id!r}")
        seen_ids.add(doc_id)
        try:
            published = parse_date(rec["published"])
        except ValueError:
            raise SchemaError(row_no, "published",
                              f"{path}: bad date {rec['published']!r}") from None
        docs.append(TextDocument(
            doc_id=doc_id,
            ticker=rec["ticker"],
            kind=rec["kind"],
            published=published,
            body=rec["body"],
        ))
    return docs


def log_return(p_prev: float, p_next: float) -> float:
    """Natural log of the price ratio p_next / p_prev."""
    if p_prev <= 0 or p_next <= 0:
        raise NonPositivePrice(f"prices must be positive, got {p_prev}, {p_next}")
    return math.log(p_next / p_prev)


def momentum(series: PriceSeries, date: Date, window: int) -> float:
    """Trailing ``window``-trading-day simple return on adj_close.

    Requires at least window+1 bars at or before ``date``.
    """
    if window < 1:
        raise ValueError("window must be positive")
    pos = series.index_at_or_before(date)
    if pos < window:
        raise InsufficientHistory(
            f"{series.ticker}: need {window + 1} bars at or before {date}, have {pos + 1}")
    now = series.adj_close[pos]
    then = series.adj_close[pos - window]
    if then <= 0 or now <= 0:
        raise NonPositivePrice(f"{series.ticker}: non-positive adj_close")
    return now / then - 1.0


@dataclass
class MarketData:
    """Loaded corpora plus the trading calendar and simulation range."""

    series: dict[str, PriceSeries]
    calendar: tuple[Date, ...]
    range_start: Date
    range_end: Date
    momentum_window: int = 20
    docs_by_attach: dict[tuple[Date, str], list[TextDocument]] = field(default_factory=dict)
    unattached: list[TextDocument] = field(default_factory=list)

    @classmethod
    def load(cls, price_paths: dict[str, str], document_paths: list[str],
             range_start: Date, range_end: Date, momentum_window: int = 20) -> "MarketData":
        if not price_paths:
            raise SchemaError(0, None, "no price files configured")
        dates_by_text: dict[str, Date] = {}
        series = {t: load_price_series(p, t, dates_by_text) for t, p in price_paths.items()}
        first = next(iter(series.values()))
        calendar = first.dates
        if not calendar:
            raise SchemaError(0, None, f"{first.ticker}: price file has no rows")
        md = cls(series=series, calendar=calendar, range_start=range_start,
                 range_end=range_end, momentum_window=momentum_window)
        in_range = md.trading_days_in_range()
        if in_range:
            for ticker, s in series.items():
                if s.index_at_or_before(in_range[0]) < 0:
                    raise SchemaError(0, None, f"{ticker}: no bar at or before simulation start")
        for doc_path in document_paths:
            for doc in load_documents(doc_path):
                attach = md.next_trading_day(doc.published)
                if attach is None:
                    md.unattached.append(doc)
                else:
                    md.docs_by_attach.setdefault((attach, doc.ticker), []).append(doc)
        for docs in md.docs_by_attach.values():
            docs.sort(key=lambda d: (d.published, d.doc_id))
        return md

    def next_trading_day(self, date: Date) -> Date | None:
        """First calendar day >= date, or None when past the calendar end."""
        i = bisect.bisect_left(self.calendar, date)
        return self.calendar[i] if i < len(self.calendar) else None

    def trading_day_after(self, date: Date) -> Date | None:
        """First calendar day strictly after ``date``."""
        i = bisect.bisect_right(self.calendar, date)
        return self.calendar[i] if i < len(self.calendar) else None

    def is_trading_day(self, date: Date) -> bool:
        """Whether ``date`` is on the calendar."""
        i = bisect.bisect_left(self.calendar, date)
        return i < len(self.calendar) and self.calendar[i] == date

    def trading_days_in_range(self) -> list[Date]:
        return [d for d in self.calendar if self.range_start <= d <= self.range_end]

    def close(self, ticker: str, date: Date) -> float:
        series = self.series[ticker]
        pos = series.index_at_or_before(date)
        if pos < 0:
            raise InsufficientHistory(f"{ticker}: no bar at or before {date}")
        return series.close[pos]

    def log_returns_to(self, ticker: str, date: Date,
                       max_window: int | None = None) -> np.ndarray:
        """Daily close-to-close log returns ending at ``date`` (inclusive), the
        last ``max_window`` of them when it is given: a read-only view of
        ``PriceSeries.log_returns``, so a call copies nothing."""
        s = self.series[ticker]
        pos = max(s.index_at_or_before(date), 0)
        start = 0 if max_window is None else max(0, pos - max_window)
        return s.log_returns[start:pos]


def assemble_observation(date: Date, universe: list[str],
                         sources: MarketData) -> dict[str, TickerSlice]:
    """Bundle one trading day's bars, indicators and documents, keyed by ticker.

    Pure function of its inputs: repeated calls serialize byte-identically.
    Indicators appear only when enough history exists (log_return needs one
    prior bar, momentum needs ``momentum_window`` prior bars).
    """
    if not (sources.range_start <= date <= sources.range_end) or not sources.is_trading_day(date):
        raise DateOutOfRange(f"{date} is not a trading day inside the simulation range")
    tickers: dict[str, TickerSlice] = {}
    for ticker in universe:
        series = sources.series[ticker]
        bar = series.bar_at_or_before(date)
        if bar is None:
            raise InsufficientHistory(f"{ticker}: no bar at or before {date}")
        indicators: dict[str, float] = {}
        pos = series.index_at_or_before(date)
        if pos >= 1:
            indicators["log_return"] = log_return(series.close[pos - 1], series.close[pos])
        if pos >= sources.momentum_window:
            indicators["momentum"] = momentum(series, date, sources.momentum_window)
        docs = tuple(sources.docs_by_attach.get((date, ticker), ()))
        tickers[ticker] = TickerSlice(bar=bar, indicators=indicators, documents=docs)
    return tickers
