import ast
import json
import urllib.error
import urllib.request
from datetime import date
from pathlib import Path

import pytest

import fincon
from fincon.errors import (
    BackendUnavailable,
    MissingScriptEntry,
    SchemaError,
    SchemaViolationAfterRetries,
    Timeout,
)
from fincon import llm_gateway
from fincon.llm_gateway import (
    CompletionRequest,
    HttpBackend,
    LlmGateway,
    ScriptedBackend,
    ValidationFailure,
    load_mock_script,
    parse_json_response,
    step_key,
)


def write_script(path: Path, entries) -> Path:
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    return path


def decision_entry(step_key, action="long", role="manager", ticker="SYN"):
    return {"role_tag": role, "step_key": step_key,
            "response": json.dumps({"actions": {ticker: action}, "reasoning": "r",
                                    "cited_memory_ids": [], "contributions": {}})}


class TestMockScript:
    def test_scripted_lookup(self, tmp_path):
        script = write_script(tmp_path / "s.jsonl", [
            decision_entry(f"1:2022-01-0{i}:decide") for i in range(3, 7)])
        backend = load_mock_script(script)
        assert len(backend.entries) == 4
        req = CompletionRequest(role_tag="manager", system_prompt="s", user_prompt="u",
                                output_schema="manager_decision",
                                step_key="1:2022-01-03:decide",
                                context={"tickers": ["SYN"]})
        parsed, _ = LlmGateway(backend).complete(req)
        assert parsed["actions"] == {"SYN": "long"}

    def test_duplicate_key_rejected(self, tmp_path):
        script = write_script(tmp_path / "s.jsonl", [
            decision_entry("1:2022-01-03:decide"),
            decision_entry("1:2022-01-03:decide", action="short"),
        ])
        with pytest.raises(SchemaError):
            load_mock_script(script)

    def test_missing_entry_is_an_error_not_an_answer(self, tmp_path):
        backend = load_mock_script(write_script(tmp_path / "s.jsonl", [
            decision_entry("1:2022-01-03:decide")]))
        req = CompletionRequest(role_tag="manager", system_prompt="s", user_prompt="u",
                                output_schema="manager_decision",
                                step_key="1:2022-01-04:decide",
                                context={"tickers": ["SYN"]})
        with pytest.raises(MissingScriptEntry):
            LlmGateway(backend).complete(req)

    def test_missing_field_in_script(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(json.dumps({"role_tag": "m", "response": "x"}) + "\n")
        with pytest.raises(SchemaError):
            load_mock_script(path)

    @pytest.mark.parametrize("key", ["role_tag", "step_key", "response"])
    @pytest.mark.parametrize("value", [None, 1, {"a": 1}, ["x"]],
                             ids=["null", "int", "object", "array"])
    def test_field_that_is_not_a_string(self, tmp_path, key, value):
        """A line ``{"role_tag": null, "step_key": 1, ...}`` names its row and
        key rather than loading under the key ('None', '1')."""
        entries = [decision_entry("1:2022-01-03:decide"),
                   dict(decision_entry("1:2022-01-04:decide"), **{key: value})]
        with pytest.raises(SchemaError) as err:
            load_mock_script(write_script(tmp_path / "s.jsonl", entries))
        assert (err.value.row, err.value.column) == (2, key)
        assert f"row 2: {key} must be a JSON string" in str(err.value)

    def test_deterministic_repeat_lookups(self, tmp_path):
        backend = load_mock_script(write_script(tmp_path / "s.jsonl", [
            decision_entry("1:2022-01-03:decide")]))
        req = CompletionRequest(role_tag="manager", system_prompt="s", user_prompt="u",
                                output_schema="manager_decision",
                                step_key="1:2022-01-03:decide",
                                context={"tickers": ["SYN"]})
        first = LlmGateway(backend).complete(req)
        second = LlmGateway(backend).complete(req)
        assert first == second

    @pytest.mark.parametrize("episode, phase, expected", [
        (1, "decide", "1:2022-02-07:decide"),
        ("test", "analyze", "test:2022-02-07:analyze"),
    ])
    def test_step_key_format(self, episode, phase, expected):
        # the first case is the mock-script example in the README
        assert step_key(episode, date(2022, 2, 7), phase) == expected


class RecordingBackend:
    """Replays canned responses while recording every prompt it sees."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def generate(self, request):
        self.requests.append(request)
        return self.responses[min(len(self.requests) - 1, len(self.responses) - 1)]


class TestValidationAndRetry:
    def test_buy_instead_of_long_retries_then_fails(self):
        bad = json.dumps({"actions": {"SYN": "buy"}, "reasoning": "r",
                          "cited_memory_ids": [], "contributions": {}})
        backend = RecordingBackend([bad])
        req = CompletionRequest(role_tag="manager", system_prompt="s", user_prompt="u",
                                output_schema="manager_decision", max_retries=2,
                                step_key="k", context={"tickers": ["SYN"]})
        with pytest.raises(SchemaViolationAfterRetries):
            LlmGateway(backend).complete(req)
        assert len(backend.requests) == 3  # initial + 2 retries

    def test_corrective_suffix_quotes_the_error(self):
        bad = json.dumps({"actions": {"SYN": "buy"}, "reasoning": "r",
                          "cited_memory_ids": [], "contributions": {}})
        good = json.dumps({"actions": {"SYN": "long"}, "reasoning": "r",
                           "cited_memory_ids": [], "contributions": {}})
        backend = RecordingBackend([bad, good])
        req = CompletionRequest(role_tag="manager", system_prompt="s", user_prompt="u",
                                output_schema="manager_decision", max_retries=2,
                                step_key="k", context={"tickers": ["SYN"]})
        parsed, _ = LlmGateway(backend).complete(req)
        assert parsed["actions"]["SYN"] == "long"
        assert "failed validation" in backend.requests[1].user_prompt
        assert "buy" in backend.requests[1].user_prompt

    def test_missing_ticker_rejected(self):
        response = json.dumps({"actions": {"A": "long"}, "reasoning": "r",
                               "cited_memory_ids": [], "contributions": {}})
        backend = RecordingBackend([response])
        req = CompletionRequest(role_tag="manager", system_prompt="s", user_prompt="u",
                                output_schema="manager_decision", max_retries=0,
                                step_key="k", context={"tickers": ["A", "B"]})
        with pytest.raises(SchemaViolationAfterRetries):
            LlmGateway(backend).complete(req)

    def test_hallucinated_memory_id_rejected(self):
        response = json.dumps({"actions": {"A": "long"}, "reasoning": "r",
                               "cited_memory_ids": ["ghost"], "contributions": {}})
        backend = RecordingBackend([response])
        req = CompletionRequest(role_tag="manager", system_prompt="s", user_prompt="u",
                                output_schema="manager_decision", max_retries=0,
                                step_key="k",
                                context={"tickers": ["A"],
                                         "known_memory_ids": frozenset({"real"})})
        with pytest.raises(SchemaViolationAfterRetries):
            LlmGateway(backend).complete(req)

    @pytest.mark.parametrize("contributions, error", [
        ({"data_analyst:A": None}, "contributions must map analyst ids to note strings"),
        ({"data_analyst:A": [1]}, "contributions must map analyst ids to note strings"),
        ({"x": "note"}, "contributions name unknown analysts ['x']"),
    ], ids=["null note", "list note", "unknown analyst"])
    def test_bad_contributions_retried(self, contributions, error):
        good = {"actions": {"A": "long"}, "reasoning": "r", "cited_memory_ids": [],
                "contributions": {"data_analyst:A": "useful"}}
        backend = RecordingBackend([json.dumps({**good, "contributions": contributions}),
                                    json.dumps(good)])
        req = CompletionRequest(role_tag="manager", system_prompt="s", user_prompt="u",
                                output_schema="manager_decision", step_key="k",
                                context={"tickers": ["A"], "analysts": ["data_analyst:A"]})
        parsed, _ = LlmGateway(backend).complete(req)
        assert parsed["contributions"] == {"data_analyst:A": "useful"}
        assert error in backend.requests[1].user_prompt

    def test_insight_schema(self):
        backend = RecordingBackend([json.dumps(
            {"insight": "x", "sentiment": "positive", "importance": 0.7})])
        req = CompletionRequest(role_tag="a", system_prompt="s", user_prompt="u",
                                output_schema="analyst_insight", step_key="k")
        parsed, _ = LlmGateway(backend).complete(req)
        assert parsed == {"insight": "x", "sentiment": "positive", "importance": 0.7}

    @pytest.mark.parametrize("flag", [True, False])
    def test_insight_boolean_importance_retried(self, flag):
        good = {"insight": "x", "sentiment": "positive", "importance": 0.7}
        backend = RecordingBackend([json.dumps({**good, "importance": flag}), json.dumps(good)])
        req = CompletionRequest(role_tag="a", system_prompt="s", user_prompt="u",
                                output_schema="analyst_insight", step_key="k")
        parsed, _ = LlmGateway(backend).complete(req)
        assert parsed["importance"] == 0.7
        assert "importance must be a number" in backend.requests[1].user_prompt

    def test_insight_bad_sentiment(self):
        backend = RecordingBackend([json.dumps({"insight": "x", "sentiment": "bullish"})])
        req = CompletionRequest(role_tag="a", system_prompt="s", user_prompt="u",
                                output_schema="analyst_insight", max_retries=0,
                                step_key="k")
        with pytest.raises(SchemaViolationAfterRetries):
            LlmGateway(backend).complete(req)

    def test_conceptual_insights_vocabulary_enforced(self):
        backend = RecordingBackend([json.dumps({"insights": {"vibes": "good"}})])
        req = CompletionRequest(role_tag="rc", system_prompt="s", user_prompt="u",
                                output_schema="conceptual_insights", max_retries=0,
                                step_key="k",
                                context={"aspect_vocabulary": ("news insights",)})
        with pytest.raises(SchemaViolationAfterRetries):
            LlmGateway(backend).complete(req)

    def test_belief_update_accepts_list_valued_aspects(self):
        backend = RecordingBackend([json.dumps({
            "meta_prompt": "m",
            "beliefs": {"other aspects": ["sector trends", "macro"]}})])
        req = CompletionRequest(role_tag="rc", system_prompt="s", user_prompt="u",
                                output_schema="belief_update", step_key="k",
                                context={"aspect_vocabulary": ("other aspects",)})
        parsed, _ = LlmGateway(backend).complete(req)
        assert parsed["beliefs"]["other aspects"] == "sector trends; macro"

    @pytest.mark.parametrize("direction", ["buy", ["long"], {"long": 1}])
    def test_bad_direction_error_names_the_labels(self, direction):
        bad = json.dumps({"actions": {"SYN": direction}, "reasoning": "r",
                          "cited_memory_ids": [], "contributions": {}})
        backend = RecordingBackend([bad])
        req = CompletionRequest(role_tag="manager", system_prompt="s", user_prompt="u",
                                output_schema="manager_decision", max_retries=1,
                                step_key="k", context={"tickers": ["SYN"]})
        with pytest.raises(SchemaViolationAfterRetries):
            LlmGateway(backend).complete(req)
        assert ("direction for SYN must be one of ('long', 'short', 'neutral'), "
                f"got {direction!r}") in backend.requests[1].user_prompt

    def test_unregistered_schema(self):
        backend = RecordingBackend(["{}"])
        req = CompletionRequest(role_tag="a", system_prompt="s", user_prompt="u",
                                output_schema="nope", step_key="k")
        with pytest.raises(ValueError):
            LlmGateway(backend).complete(req)


class TestCompleteRecord:
    INSIGHT = json.dumps({"insight": "x", "sentiment": "positive"})
    REQUEST = CompletionRequest(role_tag="news_analyst:SYN", system_prompt="s",
                                user_prompt="u", output_schema="analyst_insight",
                                step_key="1:2022-01-03:analyze")

    def test_record_holds_the_prompts_and_the_raw_reply(self):
        raw = "```json\n" + self.INSIGHT + "\n```"
        parsed, record = LlmGateway(RecordingBackend([raw])).complete(self.REQUEST)
        assert parsed == {"insight": "x", "sentiment": "positive"}
        assert record == {"agent_id": "news_analyst:SYN", "step_key": "1:2022-01-03:analyze",
                          "system": "s", "user": "u", "response": raw}

    def test_retried_record_holds_the_first_prompts_and_the_reply_that_validated(self):
        backend = RecordingBackend(["not json", self.INSIGHT])
        _, record = LlmGateway(backend).complete(self.REQUEST)
        assert backend.requests[1].user_prompt != "u"
        assert (record["system"], record["user"], record["response"]) == \
            ("s", "u", self.INSIGHT)


class Wrapper:
    """A backend that is not a ``ScriptedBackend``, answering through one."""

    def __init__(self, inner):
        self.inner = inner

    def generate(self, request):
        return self.inner.generate(request)


class ScriptedSubclass(ScriptedBackend):
    pass


WAIT_KEY = ("manager", "1:2022-01-03:decide")


@pytest.mark.parametrize("backend, answers, waits", [
    (ScriptedBackend({}), {}, False),
    (ScriptedSubclass({}), {}, False),
    (Wrapper(ScriptedBackend({})), {}, True),
    (Wrapper(ScriptedBackend({})), {("manager", "1:2022-01-04:decide"): ("s", "u", "{}")},
     True),
    (Wrapper(ScriptedBackend({})), {WAIT_KEY: ("s", "u", "{}")}, False),
    (Wrapper(ScriptedBackend({})), {WAIT_KEY: ("s", "changed", "{}")}, False),
], ids=["scripted", "scripted subclass", "wrapper", "wrapper, other key logged",
        "logged key, equal prompts", "logged key, changed prompts"])
def test_waits_only_for_a_model_and_an_unlogged_key(backend, answers, waits):
    """A call waits on a model unless a ``ScriptedBackend`` answers it from
    memory or the prompt logs hold its key, whatever their prompts."""
    request = CompletionRequest(role_tag=WAIT_KEY[0], system_prompt="s", user_prompt="u",
                                output_schema="manager_decision", step_key=WAIT_KEY[1])
    assert LlmGateway(backend, answers=answers).waits(request) is waits


class FakeClock:
    """Stands in for the gateway's ``time`` module: ``sleep`` records the
    wait and advances the clock by it."""

    def __init__(self, now=100.0):
        self.now = now
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class SlowBackend:
    """Answers a fixed insight after ``latency`` seconds of the fake clock."""

    def __init__(self, clock, latency):
        self.clock = clock
        self.latency = latency

    def generate(self, request):
        self.clock.now += self.latency
        return json.dumps({"insight": "x", "sentiment": "neutral"})


class TestRateLimit:
    REQUEST = CompletionRequest(role_tag="a", system_prompt="s", user_prompt="u",
                                output_schema="analyst_insight", step_key="k")

    def test_second_call_sleeps_out_the_rest_of_the_interval(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(llm_gateway, "time", clock)
        gateway = LlmGateway(SlowBackend(clock, latency=0.25), min_interval=1.0)
        gateway.complete(self.REQUEST)
        assert clock.sleeps == []
        gateway.complete(self.REQUEST)
        assert clock.sleeps == [pytest.approx(0.75)]
        # a call that comes after the interval has passed does not wait
        clock.now += 5.0
        gateway.complete(self.REQUEST)
        assert len(clock.sleeps) == 1

    def test_zero_interval_never_sleeps(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(llm_gateway, "time", clock)
        gateway = LlmGateway(SlowBackend(clock, latency=0.0), min_interval=0.0)
        for _ in range(3):
            gateway.complete(self.REQUEST)
        assert clock.sleeps == []


class TestParsing:
    def test_plain_json(self):
        assert parse_json_response('{"a": 1}') == {"a": 1}

    def test_fenced_json(self):
        assert parse_json_response('```json\n{"a": 1}\n```') == {"a": 1}

    def test_non_object_rejected(self):
        with pytest.raises(ValidationFailure):
            parse_json_response("[1, 2]")

    def test_garbage_rejected(self):
        with pytest.raises(ValidationFailure):
            parse_json_response("not json")


class TestDefaults:
    def test_trading_temperature_default(self):
        req = CompletionRequest(role_tag="m", system_prompt="s", user_prompt="u",
                                output_schema="manager_decision")
        assert req.temperature == 0.3

    def test_retry_default(self):
        req = CompletionRequest(role_tag="m", system_prompt="s", user_prompt="u",
                                output_schema="manager_decision")
        assert req.max_retries == 2


class TestHttpBackend:
    def test_unreachable_endpoint(self):
        backend = HttpBackend(endpoint="http://127.0.0.1:9", api_key="k", model="m",
                              timeout=0.5)
        req = CompletionRequest(role_tag="m", system_prompt="s", user_prompt="u",
                                output_schema="manager_decision", step_key="k")
        with pytest.raises(BackendUnavailable):
            backend.generate(req)

    def test_unconfigured_endpoint(self, monkeypatch):
        monkeypatch.delenv("FINCON_LLM_ENDPOINT", raising=False)
        with pytest.raises(BackendUnavailable):
            HttpBackend()


class FakeResponse:
    def __init__(self, body: bytes, status: int = 200):
        self.body = body
        self.status = status

    def read(self) -> bytes:
        return self.body

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


class TestHttpBackendOffline:
    """``urlopen`` is replaced, so no socket is opened."""

    REQUEST = CompletionRequest(role_tag="m", system_prompt="sys", user_prompt="usr",
                                output_schema="manager_decision", temperature=0.0,
                                step_key="k")

    @staticmethod
    def backend(monkeypatch, outcome, **backend_kwargs):
        """A backend whose ``urlopen`` returns or raises ``outcome``, and the
        list of (urllib request, timeout) that ``urlopen`` is called with."""
        calls = []

        def urlopen(request, timeout=None):
            calls.append((request, timeout))
            if isinstance(outcome, BaseException):
                raise outcome
            return outcome

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        backend = HttpBackend(endpoint="http://llm.invalid/v1/", api_key="secret",
                              model="m1", timeout=7.5, **backend_kwargs)
        return backend, calls

    def generate(self, monkeypatch, outcome, **backend_kwargs):
        """Run one ``generate`` of ``backend``; returns (result, calls)."""
        backend, calls = self.backend(monkeypatch, outcome, **backend_kwargs)
        return backend.generate(self.REQUEST), calls

    def test_success_posts_payload_with_seed_and_auth(self, monkeypatch):
        body = json.dumps({"choices": [{"message": {"content": "{\"ok\": 1}"}}]})
        got, calls = self.generate(monkeypatch, FakeResponse(body.encode()), seed=11)
        assert got == '{"ok": 1}'
        [(request, timeout)] = calls
        assert request.full_url == "http://llm.invalid/v1/chat/completions"
        assert request.get_method() == "POST"
        assert timeout == 7.5
        assert request.get_header("Authorization") == "Bearer secret"
        assert request.get_header("Content-type") == "application/json"
        payload = json.loads(request.data)
        assert payload == {
            "model": "m1", "temperature": 0.0, "seed": 11,
            "messages": [{"role": "system", "content": "sys"},
                         {"role": "user", "content": "usr"}]}

    def test_http_500_is_unavailable(self, monkeypatch):
        error = urllib.error.HTTPError("http://llm.invalid/v1/chat/completions", 500,
                                       "Internal Server Error", None, None)
        with pytest.raises(BackendUnavailable, match="HTTP 500"):
            self.generate(monkeypatch, error)

    def test_non_200_success_status_is_unavailable(self, monkeypatch):
        with pytest.raises(BackendUnavailable, match="HTTP 202"):
            self.generate(monkeypatch, FakeResponse(b"{}", status=202))

    @pytest.mark.parametrize("error", [
        TimeoutError("timed out"),
        urllib.error.URLError(TimeoutError("timed out")),
    ], ids=["read", "connect"])
    def test_timeout(self, monkeypatch, error):
        with pytest.raises(Timeout):
            self.generate(monkeypatch, error)

    def test_connection_error_is_unavailable(self, monkeypatch):
        with pytest.raises(BackendUnavailable):
            self.generate(monkeypatch, urllib.error.URLError(ConnectionRefusedError()))

    @pytest.mark.parametrize("body", [b"not json", b"{}", b'{"choices": []}',
                                      b'{"choices": null}'])
    def test_malformed_body_is_unavailable(self, monkeypatch, body):
        with pytest.raises(BackendUnavailable, match="malformed"):
            self.generate(monkeypatch, FakeResponse(body))

    @pytest.mark.parametrize("content", [None, ["part"], 5], ids=["null", "list", "number"])
    def test_content_not_a_string_is_unavailable(self, monkeypatch, content):
        body = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
        backend, _ = self.backend(monkeypatch, FakeResponse(body))
        with pytest.raises(BackendUnavailable, match="malformed backend response"):
            LlmGateway(backend).complete(self.REQUEST)


def test_no_network_imports_outside_gateway():
    """Only llm_gateway may touch network libraries, by construction."""
    pkg_dir = Path(fincon.__file__).parent
    network_modules = {"requests", "socket", "urllib", "http", "httpx", "aiohttp"}
    for source in pkg_dir.glob("*.py"):
        if source.name == "llm_gateway.py":
            continue
        tree = ast.parse(source.read_text())
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module.split(".")[0]]
            bad = set(names) & network_modules
            assert not bad, f"{source.name} imports {bad}"
