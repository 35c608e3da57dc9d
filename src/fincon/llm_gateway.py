"""Single boundary for language-model calls.

Every agent response is requested as JSON matching a registered output
schema; free prose travels in a designated ``reasoning``/``insight`` field.
Validation failures trigger a bounded retry with a corrective suffix quoting
the error. Two backends exist: an OpenAI-compatible HTTP backend configured
from ``FINCON_LLM_ENDPOINT`` / ``FINCON_LLM_API_KEY`` / ``FINCON_LLM_MODEL``,
and a scripted mock that answers by exact (role_tag, step_key) lookup and
never improvises. All tests run against the mock; nothing else in the
package performs network activity.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from datetime import date as Date
from pathlib import Path

from .data_ingest import read_jsonl_objects
from .errors import (
    BackendUnavailable,
    MissingScriptEntry,
    SchemaError,
    SchemaViolationAfterRetries,
    Timeout,
)
from .portfolio import DIRECTION_BOXES

SENTIMENTS = ("positive", "negative", "neutral")

ENV_ENDPOINT = "FINCON_LLM_ENDPOINT"
ENV_API_KEY = "FINCON_LLM_API_KEY"
ENV_MODEL = "FINCON_LLM_MODEL"


def step_key(episode: object, date: Date, phase: str) -> str:
    """The key a request is scripted and reported under: ``<episode>:<date>:<phase>``.

    ``episode`` is the training episode index or the literal ``test``;
    ``phase`` is one of analyze, decide, reflect, conceptualize,
    belief_update.
    """
    return f"{episode}:{date.isoformat()}:{phase}"


class ValidationFailure(Exception):
    """Internal: a single response failed schema validation."""


@dataclass(frozen=True)
class CompletionRequest:
    role_tag: str
    system_prompt: str
    user_prompt: str
    output_schema: str
    temperature: float = 0.3
    max_retries: int = 2
    step_key: str = ""
    context: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# output schemas
# ---------------------------------------------------------------------------

def _require(parsed: dict, key: str, types) -> object:
    if key not in parsed:
        raise ValidationFailure(f"missing required field {key!r}")
    value = parsed[key]
    if not isinstance(value, types):
        raise ValidationFailure(f"field {key!r} has wrong type {type(value).__name__}")
    return value


def _validate_insight(parsed: dict, context: dict) -> dict:
    insight = _require(parsed, "insight", str)
    if not insight.strip():
        raise ValidationFailure("insight must be non-empty")
    sentiment = _require(parsed, "sentiment", str)
    if sentiment not in SENTIMENTS:
        raise ValidationFailure(f"sentiment must be one of {SENTIMENTS}, got {sentiment!r}")
    out = {"insight": insight, "sentiment": sentiment}
    if "importance" in parsed:
        imp = parsed["importance"]
        if (isinstance(imp, bool) or not isinstance(imp, (int, float))
                or not 0.0 <= float(imp) <= 1.0):
            raise ValidationFailure("importance must be a number in [0,1]")
        out["importance"] = float(imp)
    return out


def _validate_decision(parsed: dict, context: dict) -> dict:
    actions = _require(parsed, "actions", dict)
    tickers = context.get("tickers")
    if tickers is not None:
        missing = [t for t in tickers if t not in actions]
        if missing:
            raise ValidationFailure(f"actions missing tickers {missing}")
        extra = [t for t in actions if t not in tickers]
        if extra:
            raise ValidationFailure(f"actions name unknown tickers {extra}")
    labels = tuple(DIRECTION_BOXES)
    for ticker, direction in actions.items():
        if direction not in labels:
            raise ValidationFailure(
                f"direction for {ticker} must be one of {labels}, got {direction!r}")
    reasoning = _require(parsed, "reasoning", str)
    cited = parsed.get("cited_memory_ids", [])
    if not isinstance(cited, list) or not all(isinstance(c, str) for c in cited):
        raise ValidationFailure("cited_memory_ids must be a list of strings")
    known = context.get("known_memory_ids")
    if known is not None:
        dangling = [c for c in cited if c not in known]
        if dangling:
            raise ValidationFailure(f"cited_memory_ids not found in memory: {dangling}")
    contributions = parsed.get("contributions", {})
    if not isinstance(contributions, dict) or not all(
            isinstance(note, str) for note in contributions.values()):
        raise ValidationFailure("contributions must map analyst ids to note strings")
    analysts = context.get("analysts")
    if analysts is not None:
        unknown = [k for k in contributions if k not in analysts]
        if unknown:
            raise ValidationFailure(f"contributions name unknown analysts {unknown}")
    return {
        "actions": dict(actions),
        "reasoning": reasoning,
        "cited_memory_ids": list(cited),
        "contributions": dict(contributions),
    }


def _validate_reflection(parsed: dict, context: dict) -> dict:
    text = _require(parsed, "reflection", str)
    if not text.strip():
        raise ValidationFailure("reflection must be non-empty")
    return {"reflection": text}


def _normalize_aspect_text(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return "; ".join(value)
    raise ValidationFailure("aspect value must be a string or list of strings")


def _validate_aspects(mapping: dict, vocabulary) -> dict:
    out = {}
    for aspect, text in mapping.items():
        if aspect not in vocabulary:
            raise ValidationFailure(f"unknown aspect key {aspect!r}")
        out[aspect] = _normalize_aspect_text(text)
    return out


def _validate_conceptual(parsed: dict, context: dict) -> dict:
    insights = _require(parsed, "insights", dict)
    vocabulary = context["aspect_vocabulary"]
    return {"insights": _validate_aspects(insights, vocabulary)}


def _validate_belief_update(parsed: dict, context: dict) -> dict:
    meta = _require(parsed, "meta_prompt", str)
    if not meta.strip():
        raise ValidationFailure("meta_prompt must be non-empty")
    beliefs = _require(parsed, "beliefs", dict)
    vocabulary = context["aspect_vocabulary"]
    return {"meta_prompt": meta, "beliefs": _validate_aspects(beliefs, vocabulary)}


SCHEMAS = {
    "analyst_insight": _validate_insight,
    "manager_decision": _validate_decision,
    "reflection": _validate_reflection,
    "conceptual_insights": _validate_conceptual,
    "belief_update": _validate_belief_update,
}


def parse_json_response(raw: str) -> dict:
    """Parse a model response as a JSON object, tolerating code fences."""
    text = raw.strip()
    if text.startswith("```"):
        first_newline = text.find("\n")
        if first_newline >= 0:
            text = text[first_newline + 1:]
        if text.rstrip().endswith("```"):
            text = text.rstrip()[:-3]
    try:
        parsed = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationFailure(f"response is not valid JSON: {exc}") from None
    if not isinstance(parsed, dict):
        raise ValidationFailure("response JSON must be an object")
    return parsed


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------

class ScriptedBackend:
    """Deterministic mock: answers by exact (role_tag, step_key) lookup."""

    def __init__(self, entries: dict[tuple[str, str], str]):
        self.entries = dict(entries)
        self.calls = 0
        self._lock = threading.Lock()

    def generate(self, request: CompletionRequest) -> str:
        key = (request.role_tag, request.step_key)
        with self._lock:
            self.calls += 1
        try:
            return self.entries[key]
        except KeyError:
            raise MissingScriptEntry(
                f"no script entry for role_tag={key[0]!r} step_key={key[1]!r}") from None


def load_mock_script(path: str | Path) -> ScriptedBackend:
    """Load a JSONL mock script; a duplicate (role_tag, step_key) is an error,
    as is a field that is not a string (``read_jsonl_objects``)."""
    entries: dict[tuple[str, str], str] = {}
    for row_no, rec in read_jsonl_objects(path, ("role_tag", "step_key", "response")):
        lookup = (rec["role_tag"], rec["step_key"])
        if lookup in entries:
            raise SchemaError(row_no, "step_key", f"{path}: duplicate entry for {lookup}")
        entries[lookup] = rec["response"]
    return ScriptedBackend(entries)


class HttpBackend:
    """OpenAI-compatible chat-completions backend configured from env vars."""

    def __init__(self, endpoint: str | None = None, api_key: str | None = None,
                 model: str | None = None, timeout: float = 30.0, seed: int | None = None):
        self.endpoint = (endpoint or os.environ.get(ENV_ENDPOINT, "")).rstrip("/")
        self.api_key = api_key or os.environ.get(ENV_API_KEY, "")
        self.model = model or os.environ.get(ENV_MODEL, "")
        self.timeout = timeout
        self.seed = seed
        if not self.endpoint:
            raise BackendUnavailable(f"{ENV_ENDPOINT} is not configured")

    def generate(self, request: CompletionRequest) -> str:
        # imported here so runs on the scripted mock never load the HTTP stack
        import http.client
        import urllib.error
        import urllib.request

        payload = {
            "model": self.model,
            "temperature": request.temperature,
            "messages": [
                {"role": "system", "content": request.system_prompt},
                {"role": "user", "content": request.user_prompt},
            ],
        }
        if self.seed is not None:
            payload["seed"] = self.seed
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        http_request = urllib.request.Request(
            f"{self.endpoint}/chat/completions", data=json.dumps(payload).encode("utf-8"),
            headers=headers, method="POST")
        try:
            with urllib.request.urlopen(http_request, timeout=self.timeout) as resp:
                status, body = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            raise BackendUnavailable(f"backend returned HTTP {exc.code}") from None
        except urllib.error.URLError as exc:
            if isinstance(exc.reason, TimeoutError):
                raise Timeout(str(exc.reason)) from None
            raise BackendUnavailable(str(exc.reason)) from None
        except TimeoutError as exc:
            raise Timeout(str(exc)) from None
        except (OSError, http.client.HTTPException) as exc:
            raise BackendUnavailable(str(exc)) from None
        if status != 200:
            raise BackendUnavailable(f"backend returned HTTP {status}")
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise BackendUnavailable(f"malformed backend response: {exc}") from None
        if not isinstance(content, str):
            raise BackendUnavailable(
                f"malformed backend response: content is {type(content).__name__}, not a string")
        return content


# ---------------------------------------------------------------------------
# gateway
# ---------------------------------------------------------------------------

_CORRECTIVE_SUFFIX = (
    "\n\nYour previous response failed validation: {error}. "
    "Answer again with a single JSON object matching the required schema."
)


class LlmGateway:
    """Wraps one backend with schema validation, retries and rate limiting;
    the one owner of a model call's rules (``complete`` and ``waits``).

    ``answers`` maps ``(role_tag, step_key)`` to a prompt-log record's
    ``(system, user, response)``: a request with the logged prompts
    gets the logged response, skipping the rate limit and the backend.
    """

    def __init__(self, backend, min_interval: float = 0.0, answers: dict | None = None):
        self.backend = backend
        self.min_interval = min_interval
        self.answers = answers or {}
        self._lock = threading.Lock()
        self._last_call = 0.0

    def _throttle(self) -> None:
        if self.min_interval <= 0:
            return
        with self._lock:
            wait = self._last_call + self.min_interval - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            self._last_call = time.monotonic()

    def waits(self, request: CompletionRequest) -> bool:
        """Whether the reply may wait on a model, so a caller can ask for it on
        another thread: not from a ``ScriptedBackend``, nor when the prompt
        logs hold the request's key, whatever its prompts, as a resume asks
        for a logged key once its prompts are final, sending no stale one."""
        return not (isinstance(self.backend, ScriptedBackend)
                    or (request.role_tag, request.step_key) in self.answers)

    def complete(self, request: CompletionRequest) -> tuple[dict, dict]:
        """Run one completion, retrying on schema failure up to
        ``max_retries``; returns the validated output and the request's
        prompt-log record: its prompts and the raw reply that validated."""
        try:
            validator = SCHEMAS[request.output_schema]
        except KeyError:
            raise ValueError(f"unregistered output schema {request.output_schema!r}") from None
        logged = self.answers.get((request.role_tag, request.step_key))
        attempt_request = request
        last_error = ""
        for _ in range(request.max_retries + 1):
            if logged is not None and logged[:2] == (attempt_request.system_prompt,
                                                     attempt_request.user_prompt):
                raw = logged[2]
            else:
                self._throttle()
                raw = self.backend.generate(attempt_request)
            try:
                validated = validator(parse_json_response(raw), request.context)
                return validated, {"agent_id": request.role_tag, "step_key": request.step_key,
                                   "system": request.system_prompt,
                                   "user": request.user_prompt, "response": raw}
            except ValidationFailure as exc:
                last_error = str(exc)
                attempt_request = replace(
                    request,
                    user_prompt=request.user_prompt + _CORRECTIVE_SUFFIX.format(error=last_error),
                )
        raise SchemaViolationAfterRetries(
            f"{request.role_tag}/{request.step_key}: {last_error}")
