"""End-to-end backtest benchmark for fincon.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One run generates the workload's inputs from
the seed under ``.perfbench_work/<workload>/``, makes one untimed reference
iteration with the plain scripted backend (no latency, no faults), then
repeats iterations until ``S`` seconds have passed (at least three). An
iteration is what a CLI ``train`` plus ``test`` invocation does, through the
same entry points: set-up (config, market data and mock-script load, timed
as ``setup_s``), then ``backtest.train`` and ``backtest.test``. Every
iteration goes through the correctness gate, and its run directories must
hash to the reference digest.

``--trace 0`` reports the end-to-end metrics (medians over iterations).
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones, plus the tracing overhead.

Times are measured with ``time.perf_counter`` (wall) and
``time.process_time`` (process CPU). The process keeps the CPU affinity it
was started with, so the engine's analyst pool (``workers=2``) runs on every
CPU it would run on from the CLI, and the cost of handing work between
threads on different CPUs shows in wall time.

On a host whose CPUs are shared with other machines, the same iteration's
wall time moves by up to 4x from one minute to the next (stolen CPU time,
busy sibling hyperthreads), its CPU time by up to 1.5x, and no run length
averages that out. So every untraced iteration also times ``calibrate``, a
fixed piece of the benchmark's own work shaped like decision days, before
the train stage, between the stages and after the test stage, and reports
figures for a host that runs the calibration in ``REFERENCE_S`` of wall and
of CPU time:

- ``engine_cpu_ms_per_call`` is the measured CPU time per call times
  ``REFERENCE_S / calibration CPU time`` (mean of the three calibrations);
- on workloads whose wall time is CPU work (no model latency),
  ``train_days_per_s`` and ``test_days_per_s`` are the measured rates times
  ``calibration wall time / REFERENCE_S``, with the mean of the two
  calibrations on either side of the stage. ``latency_fanout`` waits on
  seeded model latency, which the host's speed does not change, so its
  rates are reported as measured.

A factor does not depend on how the program spends its time, so a change
to the program moves a scaled figure by the same share as the measured one.
The measured figures and the calibration times are printed on the iteration
lines. Traced iterations run no calibration; ``trace_overhead_pct`` compares
the measured rates of alternating traced and untraced iterations.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Exit code 2 without a result when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench_work"
MIN_ITERATIONS = 3
MIN_TRACED = 3
ITERATION_FIELDS = ("setup_s", "train_days_per_s", "test_days_per_s",
                    "engine_cpu_ms_per_call")
# calibrate() rounds, and its median wall and CPU time on a quiet 2-vCPU
# x86-64 VM (Python 3.11, numpy 2.4): the host speed scaled figures refer to
CALIBRATION_ROUNDS = 16
REFERENCE_S = 0.08

_CAL_DOC = {f"k{i}": [i * 0.5, f"v{i}", {"x": i}] for i in range(200)}
_CAL_MATRIX = np.arange(64.0).reshape(8, 8)


def stamp() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


def _calibration_task(_) -> float:
    text = json.dumps(_CAL_DOC, sort_keys=True)
    return len(hashlib.sha256(text.encode()).hexdigest()) + float(
        (_CAL_MATRIX @ _CAL_MATRIX).sum())


def calibrate() -> tuple[float, float]:
    """Wall and process CPU seconds for a fixed piece of work shaped like
    decision days.

    Each round fans small Python and numpy tasks out on a fresh two-thread
    pool, as the engine runs its analysts, then runs as many again on the
    calling thread, as the manager, risk and persistence steps run. None of
    it is program code, so a change to the program leaves it unchanged."""
    wall, cpu = stamp()
    for _ in range(CALIBRATION_ROUNDS):
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(_calibration_task, range(4)))
        for i in range(4):
            _calibration_task(i)
    return time.perf_counter() - wall, time.process_time() - cpu


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@dataclass
class Stage:
    config: object
    test_config: object
    market: object
    scripted: object
    gateway: object


class Tally:
    """Attempted/failed operations; failures are reported, never swallowed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            for e in errors[:5]:
                print(f"perfbench: FAILED {name}: {e}", file=sys.stderr)


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import gate
        import spans
        import workloads
        from fincon import backtest
        from fincon.data_ingest import MarketData
        from fincon.llm_gateway import LlmGateway, load_mock_script
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    root = WORK / wl.name
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    os.chdir(root)
    inputs = workloads.generate(wl, args.seed, root)
    tracer = spans.Tracer() if args.trace else None

    def setup() -> Stage:
        config = backtest.RunConfig.load(workloads.TRAIN_CONFIG)
        test_config = backtest.RunConfig.load(workloads.TEST_CONFIG)
        market = MarketData.load(config.price_paths, config.document_paths,
                                 range_start=config.train_start, range_end=config.test_end,
                                 momentum_window=config.data_ingest["momentum_window"])
        scripted = load_mock_script(workloads.SCRIPT)
        backend = scripted
        if wl.latency_ms or wl.fault_rate:
            backend = workloads.LatencyFaultBackend(scripted, args.seed, wl.latency_ms,
                                                    wl.fault_rate)
        gateway = LlmGateway(backend, min_interval=config.llm["min_interval"])
        return Stage(config, test_config, market, scripted, gateway)

    tally = Tally()
    days_per_iteration = wl.episodes * len(inputs.train_days)
    cpu_bound = not wl.latency_ms

    def iterate(traced: bool, run_id: int, plain: bool = False) -> dict | None:
        """Set up, then train + test, as one CLI train and test invocation would.

        ``plain`` swaps in the bare scripted backend: no latency, no faults."""
        shutil.rmtree("runs", ignore_errors=True)
        gc.collect()
        if traced:
            tracer.begin(run_id)
            tracer.install()
        # calibrations bracket each stage; a traced iteration has none, so
        # nothing but the program falls in its accounted interval
        calibrated = not traced
        try:
            k = [calibrate()] if calibrated else []
            s0 = stamp()
            stage = setup()
            s1 = stamp()
            gateway = LlmGateway(stage.scripted) if plain else stage.gateway
            if traced:
                tracer.patch_backend(gateway.backend)
            c0 = stamp()
            backtest.train(stage.config, gateway, workloads.TRAIN_DIR, market=stage.market)
            c1 = stamp()
            if calibrated:
                k.append(calibrate())
            c2 = stamp()
            backtest.test(stage.test_config, gateway, workloads.TEST_DIR, market=stage.market)
            c3 = stamp()
            if calibrated:
                k.append(calibrate())
        except Exception:  # a failing program is counted and reported, not fatal
            tally.attempted += 1
            tally.failed += 1
            print(f"perfbench: FAILED iteration {run_id}:", file=sys.stderr)
            traceback.print_exc()
            return None
        finally:
            if traced:
                tracer.uninstall()
        completions = stage.scripted.calls
        tally.attempted += completions + wl.episodes + 1
        for name, errors in gate.check_run(inputs, root).items():
            tally.check(f"iteration {run_id} {name}", errors)
        train_rate = days_per_iteration / (c1[0] - c0[0])
        test_rate = len(inputs.test_days) / (c3[0] - c2[0])
        cpu_ms = 1000.0 * ((c1[1] - c0[1]) + (c3[1] - c2[1])) / max(completions, 1)
        train_scale = test_scale = cpu_scale = 1.0
        if k:
            if cpu_bound:
                train_scale = (k[0][0] + k[1][0]) / 2 / REFERENCE_S
                test_scale = (k[1][0] + k[2][0]) / 2 / REFERENCE_S
            cpu_scale = REFERENCE_S / statistics.mean(c for _, c in k)
        return {
            "setup_s": s1[0] - s0[0],
            "train_days_per_s": train_rate * train_scale,
            "test_days_per_s": test_rate * test_scale,
            "engine_cpu_ms_per_call": cpu_ms * cpu_scale,
            "raw_train_days_per_s": train_rate,
            "raw_test_days_per_s": test_rate,
            "raw_engine_cpu_ms_per_call": cpu_ms,
            "calibration_s": statistics.mean(w for w, _ in k) if k else 0.0,
            "calibration_cpu_s": statistics.mean(c for _, c in k) if k else 0.0,
            "t0": c0[0], "t2": c3[0],
            "digest": gate.run_digest(root / workloads.TRAIN_DIR, root / workloads.TEST_DIR),
        }

    # untimed reference: plain scripted backend, no latency, no faults; also
    # lets lazy imports and caches settle before timing
    reference = iterate(False, 0, plain=True)
    ref_digest = reference["digest"] if reference else None

    untraced, traced_metrics, traced_days_per_s, day_ms = [], [], [], []
    # a traced run alternates untraced and traced iterations
    min_runs = MIN_ITERATIONS if tracer is None else 2 * MIN_TRACED
    deadline = time.perf_counter() + args.seconds
    run_id = 0
    while run_id < min_runs or time.perf_counter() < deadline:
        run_id += 1
        traced = tracer is not None and run_id % 2 == 0
        result = iterate(traced, run_id)
        if result is None:
            continue
        tally.check(f"iteration {run_id} digest",
                    [] if result["digest"] == ref_digest else
                    [f"run directory digest {result['digest'][:16]} differs from the "
                     f"fault-free reference {str(ref_digest)[:16]}"])
        if not traced:
            untraced.append(result)
            print(f"iteration {run_id}: " + ", ".join(
                f"{k} {result[k]!r}" for k in ITERATION_FIELDS + (
                    "raw_train_days_per_s", "raw_test_days_per_s",
                    "raw_engine_cpu_ms_per_call", "calibration_s", "calibration_cpu_s")))
            continue
        metrics, accounting = spans.layer_metrics(tracer, result["t0"], result["t2"])
        metrics["memory.events_final"] = len(
            (root / workloads.TEST_DIR / "memory" / "snapshot.jsonl").read_text().splitlines())
        metrics["backtest.bytes_written"] = gate.dir_bytes(
            root / workloads.TRAIN_DIR, root / workloads.TEST_DIR)
        traced_metrics.append(metrics)
        traced_days_per_s.append(result["raw_train_days_per_s"])
        if len(traced_metrics) <= MIN_TRACED:  # a sample count that repeats
            day_ms += accounting["day_ms"]
        tally.check(f"iteration {run_id} span structure",
                    spans.check_spans(tracer.spans, result["t0"], result["t2"]))

    if not untraced or (tracer is not None and not traced_metrics):
        print(f"perfbench: no iteration of {wl.name} completed; nothing to report",
              file=sys.stderr)
        return 1
    if tracer is None:
        metrics = {
            **{k: statistics.median(r[k] for r in untraced) for k in ITERATION_FIELDS},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = metric_units("end_to_end")
        print(f"workload {wl.name} seed {args.seed}: {len(untraced)} iterations, "
              f"{days_per_iteration} train days + {len(inputs.test_days)} test days each")
    else:
        metrics, unstable = spans.summarize(
            traced_metrics, day_ms, traced_days_per_s,
            [r["raw_train_days_per_s"] for r in untraced])
        for name in metrics:
            if isinstance(metrics[name], int):
                tally.check(f"count {name} repeats across traced iterations",
                            [f"values {unstable[name]}"] if name in unstable else [])
        units = metric_units("per_layer")
        print(f"workload {wl.name} seed {args.seed}: {len(untraced)} untraced + "
              f"{len(traced_metrics)} traced iterations; day spans: {len(day_ms)}")
        print(f"  last traced wall {accounting['wall_s']:.4f} s accounted as:")
        for part, value in accounting["parts"].items():
            print(f"    {part:34s} {value:10.4f} s")
        print(f"    {'sum':34s} {sum(accounting['parts'].values()):10.4f} s")

    for name, unit in units.items():
        print(f"  {name} = {metrics[name]!r} {unit}")
    fail_rate = tally.failed / max(tally.attempted, 1)
    print(f"  fail_rate = {fail_rate!r} ({tally.failed}/{tally.attempted} operations)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
