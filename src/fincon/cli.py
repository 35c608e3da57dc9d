"""Operator entry point.

Subcommands: validate-data, train, test, report, select-stocks. All
diagnostics go to standard error; machine-readable output goes to files in
the run directory only. Exit codes: 0 success, 1 config/data error,
2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import backtest, portfolio
from .errors import (
    ConfigError,
    FinconError,
    LengthMismatch,
    MissingTrainingArtifacts,
    MissingTrajectory,
    NonMonotoneDates,
    SchemaError,
)
from .llm_gateway import ENV_ENDPOINT, HttpBackend, LlmGateway, load_mock_script

CONFIG_ERRORS = (ConfigError, SchemaError, NonMonotoneDates, FileNotFoundError,
                 MissingTrainingArtifacts, MissingTrajectory)


def _parse_override(text: str) -> tuple[list[str], object]:
    if "=" not in text:
        raise ConfigError(f"override must look like section.key=value, got {text!r}")
    key, _, raw = text.partition("=")
    path = key.strip().split(".")
    if not all(path):
        raise ConfigError(f"bad override key {key!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return path, value


def _apply_overrides(payload: dict, overrides: list[str]) -> dict:
    for text in overrides:
        path, value = _parse_override(text)
        node = payload
        for part in path[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {'.'.join(path)} crosses a non-object")
        node[path[-1]] = value
    return payload


def _load_config(args) -> backtest.RunConfig:
    path = Path(args.config)
    payload = backtest.read_config_payload(path)
    if args.override:
        payload = _apply_overrides(payload, args.override)
    if args.seed is not None:
        payload["seed"] = args.seed
    return backtest.RunConfig.from_dict(payload, base_dir=path.parent)


def _build_gateway(args, config: backtest.RunConfig) -> LlmGateway:
    """The gateway to exactly one backend: the mock script or the HTTP
    endpoint; ConfigError when both or neither are configured."""
    endpoint = os.environ.get(ENV_ENDPOINT)
    if args.mock_script and endpoint:
        raise ConfigError(
            f"--mock-script and {ENV_ENDPOINT} cannot be configured simultaneously")
    if not args.mock_script and not endpoint:
        raise ConfigError(f"no backend: pass --mock-script or set {ENV_ENDPOINT}")
    if args.mock_script:
        backend = load_mock_script(args.mock_script)
    else:
        backend = HttpBackend(seed=config.seed)
    return LlmGateway(backend, min_interval=config.llm["min_interval"])


def _require_run_dir(args) -> Path:
    if not args.run_dir:
        raise ConfigError("--run-dir is required for this command")
    return Path(args.run_dir)


def _cmd_validate_data(args) -> int:
    config = _load_config(args)
    market = backtest.load_market(config)
    for ticker in config.tickers:
        bars = len(market.series[ticker].dates)
        print(f"{ticker}: {bars} bars", file=sys.stderr)
    attached = sum(len(v) for v in market.docs_by_attach.values())
    print(f"documents: {attached} attached, {len(market.unattached)} beyond calendar",
          file=sys.stderr)
    print(f"trading days in range: {len(market.trading_days_in_range())}", file=sys.stderr)
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args)
    run_dir = _require_run_dir(args)
    gateway = _build_gateway(args, config)
    trajectories, updates = backtest.train(config, gateway, run_dir)
    print(f"train: {len(trajectories)} episodes, {len(updates)} belief updates "
          f"-> {run_dir}", file=sys.stderr)
    return 0


def _cmd_test(args) -> int:
    config = _load_config(args)
    run_dir = _require_run_dir(args)
    gateway = _build_gateway(args, config)
    trajectory, report = backtest.test(config, gateway, run_dir)
    print(f"test: {len(trajectory.days)} days, CR {report.cr_pct:.3f}% -> {run_dir}",
          file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    config = _load_config(args)
    run_dir = _require_run_dir(args)
    report = backtest.recompute_report(run_dir, config)
    print(f"report: CR {report.cr_pct:.3f}% MDD {report.mdd_pct:.3f}% -> {run_dir}",
          file=sys.stderr)
    return 0


def _cmd_select_stocks(args) -> int:
    config = _load_config(args)
    run_dir = _require_run_dir(args)
    market = backtest.load_market(config)
    # no look-ahead: only news published and bars dated through train_end
    news_counts = {t: 0 for t in config.price_paths}
    for docs in market.docs_by_attach.values():
        for doc in docs:
            if doc.kind == "news" and doc.ticker in news_counts \
                    and doc.published <= config.train_end:
                news_counts[doc.ticker] += 1
    candidates = [(t, news_counts[t], market.log_returns_to(t, config.train_end))
                  for t in sorted(config.price_paths)]
    try:
        selected = portfolio.select_stocks(candidates, config.portfolio["pool_size"],
                                           config.portfolio["min_news"])
    except LengthMismatch as exc:
        raise ConfigError(f"select-stocks through {config.train_end}: {exc}") from None
    writer = backtest.RunWriter(run_dir)
    writer.write_summary("selected_stocks.json", {
        "selected": selected,
        "news_counts": news_counts,
        "pool_size": config.portfolio["pool_size"],
        "min_news": config.portfolio["min_news"],
    })
    print(f"select-stocks: {', '.join(selected)} -> {run_dir}", file=sys.stderr)
    return 0


COMMANDS = {
    "validate-data": _cmd_validate_data,
    "train": _cmd_train,
    "test": _cmd_test,
    "report": _cmd_report,
    "select-stocks": _cmd_select_stocks,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fincon")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="run configuration JSON")
    parser.add_argument("--mock-script", default=None,
                        help="JSONL script for the deterministic gateway mock")
    parser.add_argument("--run-dir", default=None, help="output directory")
    parser.add_argument("--override", action="append", default=[],
                        metavar="K=V", help="config override, repeatable (dotted keys)")
    parser.add_argument("--seed", type=int, default=None,
                        help="gateway seed for replication runs")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FinconError as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
