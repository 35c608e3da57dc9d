"""File-based market data: price bars, text documents, daily observations.

Prices arrive as CSVs (``date,open,high,low,close,adj_close,volume``),
documents as JSONL with one object per line. Loading validates every row;
after that everything here is read-only and safe to share across workers.

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
DOCUMENT_KINDS = ("news", "form10k", "form10q", "ecc_transcript", "analyst_report")


@dataclass(frozen=True)
class PriceBar:
    date: Date
    open: float
    high: float
    low: float
    close: float
    adj_close: float
    volume: int

    def violated_column(self) -> str | None:
        """Name of the first field violating the bar invariants, or None."""
        for col in ("open", "high", "low", "close", "adj_close"):
            if getattr(self, col) <= 0:
                return col
        if self.open < self.low or self.open > self.high:
            return "open"
        if self.close < self.low or self.close > self.high:
            return "close"
        if self.low > self.high:
            return "low"
        if self.volume < 0:
            return "volume"
        return None


@dataclass(frozen=True)
class PriceSeries:
    """Date-ordered daily bars for one ticker (dates strictly increasing, as
    ``load_price_series`` checks)."""

    ticker: str
    bars: tuple[PriceBar, ...]

    @cached_property
    def dates(self) -> tuple[Date, ...]:
        return tuple(b.date for b in self.bars)

    @cached_property
    def log_returns(self) -> np.ndarray:
        """Close-to-close log returns; entry i - 1 ends at bar i.

        One float64 block rather than a tuple of floats: many small float
        objects kept for a whole run raised the process's peak memory run
        after run.
        """
        return np.fromiter((log_return(prev.close, cur.close)
                            for prev, cur in zip(self.bars, self.bars[1:])),
                           dtype=float, count=max(len(self.bars) - 1, 0))

    def index_at_or_before(self, date: Date) -> int:
        """Position of the last bar dated <= date; -1 when none exists."""
        return bisect.bisect_right(self.dates, date) - 1

    def bar_at_or_before(self, date: Date) -> PriceBar | None:
        pos = self.index_at_or_before(date)
        return None if pos < 0 else self.bars[pos]


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
    """A ``Y-M-D`` date; ValueError when the text is not one."""
    y, m, d = (int(p) for p in str(text).split("-"))
    return Date(y, m, d)


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
    every row is a JSON object holding each of ``keys``.

    SchemaError(row, None) for a row that is not an object, and
    SchemaError(row, key) naming the first key a row lacks.
    """
    for row_no, _, rec in read_jsonl_lines(path):
        if not isinstance(rec, dict):
            raise SchemaError(row_no, None, f"{path}: row {row_no} is not a JSON object")
        for key in keys:
            if key not in rec:
                raise SchemaError(row_no, key, f"{path}: missing {key}")
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
            except json.JSONDecodeError as exc:
                raise SchemaError(row_no, None, f"{path}: invalid JSON ({exc})") from None
            yield row_no, line, record


def jsonl_line(record) -> str:
    """``record`` as one canonical JSON-lines line: sorted keys, no spaces,
    ending in a newline. Every JSONL file a run writes is made of these."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def read_json(path: str | Path):
    """The single JSON document a run file holds.

    Raises as ``open_input`` does, and SchemaError(0, None) for a file that
    is not JSON, such as one cut short by a crash.
    """
    path = Path(path)
    try:
        with open_input(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(0, None, f"{path}: invalid JSON ({exc})") from None


def load_price_series(path: str | Path, ticker: str) -> PriceSeries:
    """Load and validate one price CSV into a date-sorted series.

    Raises as ``open_input`` does, SchemaError(row, column) for a malformed
    or invariant-violating row (rows are 1-based, header excluded), and
    NonMonotoneDates when dates are out of order or repeated.
    """
    path = Path(path)
    bars: list[PriceBar] = []
    with open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(0, None, f"{path}: empty file") from None
        if tuple(h.strip() for h in header) != PRICE_COLUMNS:
            raise SchemaError(0, None, f"{path}: header must be {','.join(PRICE_COLUMNS)}")
        for row_no, row in enumerate(reader, start=1):
            if len(row) != len(PRICE_COLUMNS):
                raise SchemaError(row_no, None, f"{path}: expected {len(PRICE_COLUMNS)} fields")
            rec = dict(zip(PRICE_COLUMNS, row))
            try:
                bar_date = parse_date(rec["date"].strip())
            except ValueError:
                raise SchemaError(row_no, "date", f"{path}: bad date {rec['date']!r}") from None
            values = {}
            for col in ("open", "high", "low", "close", "adj_close"):
                try:
                    values[col] = float(rec[col])
                except ValueError:
                    raise SchemaError(row_no, col, f"{path}: bad number {rec[col]!r}") from None
                if not math.isfinite(values[col]):
                    raise SchemaError(row_no, col, f"{path}: non-finite {col}")
            try:
                volume = int(rec["volume"])
            except ValueError:
                raise SchemaError(row_no, "volume", f"{path}: bad volume {rec['volume']!r}") from None
            bar = PriceBar(date=bar_date, volume=volume, **values)
            bad = bar.violated_column()
            if bad is not None:
                raise SchemaError(row_no, bad, f"{path}: row {row_no} violates {bad} invariant")
            if bars and bar.date <= bars[-1].date:
                raise NonMonotoneDates(f"{path}: row {row_no} date {bar.date} not increasing")
            bars.append(bar)
    return PriceSeries(ticker=ticker, bars=tuple(bars))


def load_documents(path: str | Path) -> list[TextDocument]:
    """Load a document JSONL file; line numbers double as row numbers."""
    docs: list[TextDocument] = []
    seen_ids: set[str] = set()
    for row_no, rec in read_jsonl_objects(path, ("doc_id", "ticker", "kind", "published",
                                                 "body")):
        if rec["kind"] not in DOCUMENT_KINDS:
            raise SchemaError(row_no, "kind", f"{path}: unknown kind {rec['kind']!r}")
        if not str(rec["body"]).strip():
            raise SchemaError(row_no, "body", f"{path}: empty body")
        doc_id = str(rec["doc_id"])
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
            ticker=str(rec["ticker"]),
            kind=str(rec["kind"]),
            published=published,
            body=str(rec["body"]),
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
    now = series.bars[pos].adj_close
    then = series.bars[pos - window].adj_close
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
        series = {t: load_price_series(p, t) for t, p in price_paths.items()}
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
        bar = self.series[ticker].bar_at_or_before(date)
        if bar is None:
            raise InsufficientHistory(f"{ticker}: no bar at or before {date}")
        return bar.close

    def log_returns_to(self, ticker: str, date: Date, max_window: int | None = None) -> list[float]:
        """Daily close-to-close log returns ending at ``date`` (inclusive)."""
        s = self.series[ticker]
        pos = s.index_at_or_before(date)
        if pos < 1:
            return []
        start = 1 if max_window is None else max(1, pos - max_window + 1)
        return s.log_returns[start - 1:pos].tolist()


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
            indicators["log_return"] = log_return(series.bars[pos - 1].close, series.bars[pos].close)
        if pos >= sources.momentum_window:
            indicators["momentum"] = momentum(series, date, sources.momentum_window)
        docs = tuple(sources.docs_by_attach.get((date, ticker), ()))
        tickers[ticker] = TickerSlice(bar=bar, indicators=indicators, documents=docs)
    return tickers
