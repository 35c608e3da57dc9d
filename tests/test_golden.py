"""Golden run-directory digests: a refactor must leave every artifact byte-identical.

``golden_digests.json`` holds the SHA-256 of every file in the train and test
run directories of a single-stock and a two-ticker portfolio fixture run.
The scripted backend runs every model call on the engine thread, so the
same runs through a pass-through backend, which the engine fans out on its
pool, with one and with four analyst workers and with the default pool, must
give the same files, config.used.json included: it does not record the
worker count. So must runs through a backend whose calls take seeded, random
times, which reorders when the pool's calls finish, and runs under other
BLAS kernels than the host's own.
Regenerate the digests only for an intended change of the outputs:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import random
import shutil
import struct
import subprocess
import sys
import tempfile
import threading
import time
from collections.abc import Callable
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fincon
from fincon import backtest
from fincon.backtest import RunConfig
from fincon.errors import BackendUnavailable
from fincon.llm_gateway import LlmGateway, load_mock_script
from fincon.memory import MemoryEvent

from fixtures import build_portfolio_fixture, build_single_stock_fixture

GOLDEN = Path(__file__).with_name("golden_digests.json")
CASES = ("single", "portfolio")
# the training snapshots as written with each embedding a JSON list of
# numbers and each event's layer, before embeddings were written as base64
LIST_FORM_TRAIN_SNAPSHOTS = {
    "single": "eb3118174c85811ea92ea786efc1c2696e7b346904d9b149ead2b5192e21b5f9",
    "portfolio": "4b558d881be33c8250bb3aed0a622465f1681978259a1fb4146ad4f9af95b6c2",
}


class PassThrough:
    """The scripted backend behind a wrapper, which is not a
    ``ScriptedBackend``, so the engine fans a day's batch of calls out on
    its pool; adds the thread of every call to ``threads``, and of every
    reflection to ``reflect_threads``."""

    def __init__(self, inner, threads: set, reflect_threads: set):
        self.inner = inner
        self.threads = threads
        self.reflect_threads = reflect_threads

    def generate(self, request):
        self.threads.add(threading.current_thread())
        if request.step_key.endswith(":reflect"):
            self.reflect_threads.add(threading.current_thread())
        return self.inner.generate(request)


class Jitter:
    """The scripted backend behind a wrapper that sleeps 0-2 ms before each
    answer, the time drawn from ``seed`` and the request's key, so the
    pool's calls finish in an order no thread schedule fixes."""

    def __init__(self, inner, seed: int):
        self.inner = inner
        self.seed = seed

    def generate(self, request):
        key = f"{self.seed}:{request.role_tag}:{request.step_key}"
        time.sleep(random.Random(key).uniform(0.0, 0.002))
        return self.inner.generate(request)


class FailStale:
    """The scripted backend behind a wrapper, raising BackendUnavailable for
    every request whose user prompt is not among ``logged``'s prompts: the
    stale prompts of analyst calls sent before feedback changed them. Adds
    the key of each failed request to ``failed``."""

    def __init__(self, inner, logged: set, failed: set):
        self.inner = inner
        self.logged = logged
        self.failed = failed

    def generate(self, request):
        if (request.role_tag, request.step_key, request.user_prompt) not in self.logged:
            self.failed.add((request.role_tag, request.step_key))
            raise BackendUnavailable("stale prompt")
        return self.inner.generate(request)


def _run_stage(fixture: Path, stage: str, workers: int | None,
               wrap: Callable | None) -> None:
    """Run ``stage`` (train, or test from ``./train``) of the fixture's
    config and script into ``./<stage>``, through ``wrap(backend)`` when
    ``wrap`` is given.

    Run from the fixture directory, so the run directories sit next to the
    config. ``train_run_dir`` resolves against that directory and lands in
    config.used.json verbatim, so it stays the relative ``train``.
    """
    payload = json.loads((fixture / "config.json").read_text())
    if workers is not None:
        payload["agents"]["workers"] = workers
    if stage == "test":
        payload["mode"] = "test"
        payload["backtest"]["train_run_dir"] = "train"
    config = RunConfig.from_dict(payload, base_dir=fixture)
    backend = load_mock_script(fixture / "script.jsonl")
    if wrap is not None:
        backend = wrap(backend)
    run = backtest.train if stage == "train" else backtest.test
    run(config, LlmGateway(backend), stage)


def _in_fixture(fixture: Path, stages, workers: int | None = None,
                wrap: Callable | None = None) -> None:
    cwd = os.getcwd()
    try:
        os.chdir(fixture)
        for stage in stages:
            _run_stage(fixture, stage, workers, wrap)
    finally:
        os.chdir(cwd)


def run_digests(root: Path, workers: int | None = None,
                wrap: Callable | None = None) -> dict[str, str]:
    """SHA-256 of every run-directory file, keyed ``case/stage/relative path``;
    ``workers`` overrides the configs' ``agents.workers``, and the stages run
    through ``wrap(backend)`` when it is given."""
    root = root.resolve()
    build_single_stock_fixture(root / "single" / "fixture", n_train=12, n_test=6,
                               episodes=3, news_every=2)
    build_portfolio_fixture(root / "portfolio" / "fixture", n_days=8, n_test=4)
    for case in CASES:
        _in_fixture(root / case / "fixture", ("train", "test"), workers, wrap)
    return stage_digests(root, ("train", "test"))


def stage_digests(root: Path, stages) -> dict[str, str]:
    digests = {}
    for case in CASES:
        for stage in stages:
            stage_dir = root / case / "fixture" / stage
            for path in sorted(p for p in stage_dir.rglob("*") if p.is_file()):
                key = f"{case}/{stage}/{path.relative_to(stage_dir).as_posix()}"
                digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_run_directories_match_golden_digests(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = run_digests(tmp_path)
    differing = [name for name in sorted(set(want) | set(got)) if got.get(name) != want.get(name)]
    assert not differing, f"run-directory files differ from {GOLDEN.name}: {differing}"


def test_run_directories_do_not_depend_on_worker_count(tmp_path):
    """The pool with one and four analyst workers, and the default pool,
    reproduces every golden file, which the scripted backend wrote with
    every call on the engine thread."""
    want = json.loads(GOLDEN.read_text())
    for workers in (1, 4, None):
        threads, reflect_threads = set(), set()
        got = run_digests(tmp_path / f"workers_{workers}", workers,
                          lambda inner: PassThrough(inner, threads, reflect_threads))
        assert threads - {threading.current_thread()}, f"workers={workers}: no pool thread"
        assert reflect_threads - {threading.current_thread()}, \
            f"workers={workers}: no reflection on the pool"
        assert set(got) == set(want), f"workers={workers}"
        differing = [name for name in sorted(want) if got[name] != want[name]]
        assert not differing, f"workers={workers} changes {differing}"


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), workers=st.sampled_from([1, 2, None]))
def test_run_directories_do_not_depend_on_call_timing(seed, workers):
    """Calls that take random times, fanned out on any pool, reproduce every
    golden file, with threads switched far more often than by default."""
    want = json.loads(GOLDEN.read_text())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            got = run_digests(Path(tmp), workers, lambda inner: Jitter(inner, seed))
    finally:
        sys.setswitchinterval(interval)
    differing = [name for name in sorted(set(want) | set(got)) if got.get(name) != want.get(name)]
    assert not differing, f"seed={seed} workers={workers} changes {differing}"


def test_calls_made_stale_by_feedback_change_no_file(tmp_path):
    """A backend that fails every stale prompt, and answers the rest, still
    gives every golden file: a stale call's failure, like its reply, is
    dropped unread."""
    want = json.loads(GOLDEN.read_text())
    run_digests(tmp_path / "ref")
    logged = {(r["agent_id"], r["step_key"], r["user"])
              for log in (tmp_path / "ref").rglob("assembled_*.jsonl")
              for r in map(json.loads, log.read_text().splitlines())}
    failed = set()
    got = run_digests(tmp_path / "stale", wrap=lambda inner: FailStale(inner, logged, failed))
    assert failed and all(key.endswith(":analyze") for _, key in failed)
    differing = [name for name in sorted(set(want) | set(got)) if got.get(name) != want.get(name)]
    assert not differing, f"failing the stale calls changes {differing}"


@pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge"])
def test_run_directories_do_not_depend_on_the_blas_kernel(coretype):
    """numpy's OpenBLAS, built for several CPUs, picks its kernels when it
    loads, and ``OPENBLAS_CORETYPE`` forces a choice: an AVX2 host's
    (Haswell) or an AVX host's (Sandybridge). A child process under each
    writes every golden file, because no pinned number passes through BLAS.
    Where numpy does not link such an OpenBLAS, the variable changes
    nothing and the child repeats the golden check."""
    src = Path(fincon.__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                           text=True, timeout=600)
    assert child.returncode == 0, child.stderr
    want = json.loads(GOLDEN.read_text())
    got = json.loads(child.stdout)
    differing = [name for name in sorted(set(want) | set(got)) if got.get(name) != want.get(name)]
    assert not differing, f"OPENBLAS_CORETYPE={coretype} changes {differing}"


def to_list_form(path: Path) -> None:
    """Rewrite a snapshot with each embedding as a JSON list of numbers and
    each event in the "procedural" layer, as the writers of that form did."""
    lines = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        raw = base64.b64decode(record["embedding"], validate=True)
        record["embedding"] = [x for (x,) in struct.iter_unpack(">d", raw)]
        record["layer"] = "procedural"
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    path.write_text("".join(lines))


def test_test_stage_from_a_list_form_training_directory(tmp_path):
    """A training directory whose snapshot holds list embeddings, as written
    before base64, gives the golden test stage. Its inherited lines are
    written back as read, so only the test snapshot differs, and it holds
    the same events."""
    want = json.loads(GOLDEN.read_text())
    root = tmp_path.resolve()
    run_digests(root)
    for case in CASES:
        fixture = root / case / "fixture"
        snapshot = fixture / "train" / "memory" / "snapshot.jsonl"
        to_list_form(snapshot)
        assert hashlib.sha256(snapshot.read_bytes()).hexdigest() == \
            LIST_FORM_TRAIN_SNAPSHOTS[case]
        golden_test = fixture / "golden_test"
        (fixture / "test").rename(golden_test)
        _in_fixture(fixture, ("test",))
        events = [[MemoryEvent.from_record(json.loads(line)).to_record()
                   for line in (run / "memory" / "snapshot.jsonl").read_text().splitlines()]
                  for run in (fixture / "test", golden_test)]
        assert events[0] == events[1]
    got = stage_digests(root, ("test",))
    differing = [name for name in sorted(got) if got[name] != want[name]]
    assert differing == sorted(f"{case}/test/memory/snapshot.jsonl" for case in CASES)


def test_test_stage_from_a_training_directory_without_logged_replies(tmp_path):
    """A training directory as written before prompt logs held the replies
    (records with ``date`` and ``phase``, no between-episode requests) and
    beside a ``state/`` directory gives the golden test stage: the test
    stage reads neither."""
    want = json.loads(GOLDEN.read_text())
    root = tmp_path.resolve()
    run_digests(root)
    for case in CASES:
        fixture = root / case / "fixture"
        train = fixture / "train"
        for log in train.glob("prompts/assembled_*.jsonl"):
            records = []
            for line in log.read_text().splitlines():
                record = json.loads(line)
                del record["response"]
                _, day, phase = record.pop("step_key").split(":")
                if phase not in ("conceptualize", "belief_update"):
                    records.append({**record, "date": day, "phase": phase})
            log.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        (train / "state").mkdir()
        shutil.copy(train / "memory" / "snapshot.jsonl", train / "state" / "memory_1.jsonl")
        (train / "state" / "checkpoint_1.json").write_text(
            '{"episode": 1, "message_counts": {"insight": 1}}\n')
        shutil.rmtree(fixture / "test")
        _in_fixture(fixture, ("test",))
    assert stage_digests(root, ("test",)) == {
        name: digest for name, digest in want.items() if name.split("/")[1] == "test"}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(run_digests(Path(tmp)), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
