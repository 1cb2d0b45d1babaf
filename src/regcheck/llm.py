"""Chat-completion backends with caching, retries, and cost accounting.

Responsibilities:
- Wire client for OpenAI-compatible chat-completion endpoints (messages in,
  first choice text + usage out), with capped exponential backoff on
  transport errors and rate limits only.
- Deterministic scripted stub backend for tests and offline runs.
- Content-addressed response cache persisted across runs; enabling it never
  changes pipeline output, only cost/latency totals.
- Append-only per-call cost ledger priced from a per-1K-token table.
"""

from __future__ import annotations

import json
import os
import select
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Iterable, Protocol, Sequence
from urllib.parse import urlsplit

from .corpus import estimate_tokens
from .errors import BackendError, CorruptCacheEntry, UnknownModelPrice
from .storage import atomic_write_text, jsonl_line, numbered_jsonl, read_json

HTTP = "http"
STUB = "stub"

# Retry only what can recover: rate limits and transient server errors.
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})

# Longest single backoff sleep, whatever the policy's base and attempt count.
MAX_BACKOFF_S = 60.0
# 2**64 times any base of 4e-18 s or more is past MAX_BACKOFF_S, so capping
# the exponent changes no sleep that matters and no policy can overflow.
_MAX_DOUBLINGS = 64

API_KEY_ENV = "REGCHECK_API_KEY"


@dataclass(frozen=True)
class ChatMessage:
    """One role-tagged chat message."""

    role: str
    content: str

    def __post_init__(self):
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"unknown chat role {self.role!r}")
        if self.role in ("system", "user") and not self.content:
            raise ValueError(f"{self.role} message content must be non-empty")


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    base_backoff_s: float = 0.5

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("retry_max_attempts must be >= 1")
        if not 0.0 <= self.base_backoff_s < float("inf"):
            raise ValueError("retry_base_backoff_s must be a finite number >= 0")

    def backoff_s(self, attempt: int) -> float:
        """Sleep after failed attempt `attempt` (1-based): base·2^(attempt-1), capped."""
        doublings = min(attempt - 1, _MAX_DOUBLINGS)
        return min(MAX_BACKOFF_S, self.base_backoff_s * 2**doublings)


@dataclass(frozen=True)
class BackendConfig:
    kind: str = STUB
    endpoint: str = ""
    model_name: str = "stub-model"
    temperature: float = 0.0
    max_output_tokens: int = 512
    parallelism: int = 1
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    cache_dir: str | None = None
    script_path: str | None = None
    timeout_s: float = 60.0

    def __post_init__(self):
        if self.kind not in (HTTP, STUB):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if not 0.0 <= self.temperature <= 1.0:
            raise ValueError("temperature must be in [0, 1]")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.kind == HTTP:
            try:
                url = urlsplit(self.endpoint)
                valid = url.scheme in ("http", "https") and bool(url.hostname) and url.port != 0
            except ValueError:  # a port that is not a number in 0-65535
                valid = False
            if not valid:
                raise ValueError(
                    "http backend endpoint must be an http:// or https:// URL "
                    f"with a host, not {self.endpoint!r}"
                )


@dataclass(frozen=True, slots=True)
class Usage:
    """Token and latency accounting for one completion call.

    `latency_s` is the wire time of the attempt that succeeded: earlier failed
    attempts and the backoff sleeps between them are not in it.
    """

    model_name: str
    prompt_tokens: int
    completion_tokens: int
    latency_s: float = 0.0
    cached: bool = False


class Backend(Protocol):
    def complete(self, messages: Sequence[ChatMessage]) -> tuple[str, Usage]: ...


# --------------------------------------------------------------------------
# Stub backend
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StubEntry:
    """One scripted response for requests whose user text contains `match`."""

    response: str
    match: str


class StubBackend:
    """Deterministic scripted backend: the response is a function of the request.

    Every entry is a first-match substring rule against the user-role message
    contents (the system message is constant per run, so keying on it would
    make every rule fire); `match=""` matches every request, so a catch-all
    goes last. The backend holds no state, which makes its outputs the same
    at any parallelism and across runs. Usage is synthesized from the default
    token estimator, with zero latency so runs are byte-reproducible.
    """

    def __init__(self, entries: Iterable[StubEntry], model_name: str = "stub-model"):
        self.model_name = model_name
        self._rules = tuple(entries)

    def complete(self, messages: Sequence[ChatMessage]) -> tuple[str, Usage]:
        request_text = "\n".join(m.content for m in messages if m.role == "user")
        for rule in self._rules:
            if rule.match in request_text:
                response = rule.response
                break
        else:
            raise BackendError(f"no scripted response matches request starting {request_text[:60]!r}")
        usage = Usage(
            model_name=self.model_name,
            prompt_tokens=sum(estimate_tokens(m.content) for m in messages),
            completion_tokens=estimate_tokens(response),
        )
        return response, usage


def load_stub_script(path: str | Path) -> list[StubEntry]:
    """Read stub entries from a JSONL file of {"match": ..., "response": ...}."""
    entries = []
    for line, rec in numbered_jsonl(path):
        match, response = rec.get("match"), rec.get("response")
        if not isinstance(response, str):
            raise ValueError(f"{path}:{line}: stub entry needs a string 'response'")
        if not isinstance(match, str):
            raise ValueError(
                f"{path}:{line}: stub entry needs a string 'match' (\"match\": \"\" is a catch-all)"
            )
        entries.append(StubEntry(response=response, match=match))
    return entries


# --------------------------------------------------------------------------
# HTTP backend (OpenAI-compatible chat completions)
# --------------------------------------------------------------------------


class HttpBackend:
    """Chat-completions client on `http.client`.

    Each worker thread keeps one keep-alive connection to the endpoint. A
    connection the server closed while it sat idle is dropped before it
    carries a request; a failure after a request was sent is an ordinary
    transport failure for the retry loop, so a POST is never re-sent behind
    its back. `timeout_s` is the socket timeout.

    `session`, if given, is an object with the `post` of a `requests.Session`;
    it replaces the wire (the benchmark's tracer passes one) and its responses
    go through the same status handling and parsing.
    """

    def __init__(self, cfg: BackendConfig, session=None):
        # Imported here, not at module level: only this backend needs them,
        # and stub runs start faster without them.
        import http.client

        self.cfg = cfg
        self.session = session
        self._transport_errors = (OSError, http.client.HTTPException)
        url = urlsplit(cfg.endpoint)
        self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        if url.scheme == "https":
            import ssl

            connection = partial(
                http.client.HTTPSConnection, context=ssl.create_default_context()
            )
        else:
            connection = http.client.HTTPConnection
        self._connect = partial(connection, url.hostname, url.port, timeout=cfg.timeout_s)
        self._local = threading.local()

    def complete(self, messages: Sequence[ChatMessage]) -> tuple[str, Usage]:
        payload = {
            "model": self.cfg.model_name,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
            "temperature": self.cfg.temperature,
            "max_tokens": self.cfg.max_output_tokens,
        }
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        retry = self.cfg.retry
        last_status: int | None = None
        last_error = ""
        for attempt in range(1, retry.max_attempts + 1):
            start = time.perf_counter()
            try:
                status, data = self._post(body, headers)
            except self._transport_errors as exc:
                last_status, last_error = None, str(exc)
            else:
                last_status = status
                if status == 200:
                    return self._parse(data, messages, time.perf_counter() - start)
                last_error = data.decode("utf-8", "replace")[:200]
                if status not in RETRYABLE_STATUSES:
                    raise BackendError(
                        f"backend rejected request (status {status}): {last_error}",
                        attempts=attempt,
                        last_status=status,
                    )
            if attempt < retry.max_attempts:
                time.sleep(retry.backoff_s(attempt))
        raise BackendError(
            f"backend unavailable after {retry.max_attempts} attempts: {last_error}",
            attempts=retry.max_attempts,
            last_status=last_status,
        )

    def _post(self, body: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        """One POST of `body`: (status, response body)."""
        if self.session is not None:
            resp = self.session.post(
                self.cfg.endpoint, data=body, headers=headers, timeout=self.cfg.timeout_s
            )
            return resp.status_code, resp.content
        link = getattr(self._local, "link", None)
        if link is None:
            link = self._local.link = _Link(self._connect())
        conn = link.conn
        if conn.sock is not None and _readable(conn.sock):
            conn.close()  # closed by the server while idle; request() reconnects
        try:
            conn.request("POST", self._path, body, headers)
            resp = conn.getresponse()
            return resp.status, resp.read()
        except BaseException:
            conn.close()  # a half-used connection never carries another request
            raise

    def _parse(
        self, data: bytes, messages: Sequence[ChatMessage], latency: float
    ) -> tuple[str, Usage]:
        try:
            body = json.loads(data)
            text = body["choices"][0]["message"]["content"]
            # A refusal has null content: unparseable for the pipeline, but paid for.
            text = "" if text is None else text
            reported = {} if body.get("usage") is None else body["usage"]
            if not isinstance(text, str) or not isinstance(reported, dict):
                raise TypeError("content must be a string and usage an object")
            prompt_estimate = sum(estimate_tokens(m.content) for m in messages)
            usage = Usage(
                self.cfg.model_name,
                _token_count(reported, "prompt_tokens", prompt_estimate),
                _token_count(reported, "completion_tokens", estimate_tokens(text)),
                latency_s=latency,
            )
        except (ValueError, LookupError, TypeError) as exc:
            raise BackendError(f"malformed completion response: {exc}", last_status=200) from exc
        return text, usage


def _token_count(reported: dict, key: str, estimate: int | None = None) -> int:
    """The token count `key` of `reported`: a non-negative int, not a bool.
    A given `estimate` stands in for a null or absent count."""
    value = reported.get(key)
    if value is None and estimate is not None:
        return estimate
    if type(value) is not int or value < 0:
        raise ValueError(f"{key} must be a non-negative integer, got {value!r}")
    return value


class _Link:
    """A worker thread's keep-alive connection, closed when the thread or the
    backend that holds it is gone (the socket would otherwise be left to the
    garbage collector)."""

    __slots__ = ("conn",)

    def __init__(self, conn):
        self.conn = conn

    def __del__(self):
        self.conn.close()


def _readable(sock) -> bool:
    """Whether `sock` has bytes or an EOF waiting, checked without blocking.

    On an idle keep-alive socket either one means it must not be reused.
    """
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


# --------------------------------------------------------------------------
# Response cache
# --------------------------------------------------------------------------


def cache_key(
    model_name: str,
    temperature: float,
    messages: Sequence[ChatMessage],
    max_output_tokens: int = BackendConfig.max_output_tokens,
) -> str:
    """Content digest of (model, temperature, output cap, messages); order-sensitive."""
    import hashlib  # here, not at the top: it maps OpenSSL, which an uncached run never needs
    canonical = json.dumps(
        {
            "model": model_name,
            "temperature": temperature,
            "max_tokens": max_output_tokens,
            "messages": [[m.role, m.content] for m in messages],
        },
        sort_keys=True,
        ensure_ascii=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResponseCache:
    """Directory of response files keyed by content digest; no eviction."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> tuple[str, Usage] | None:
        """The entry under `key`, or None; an entry `put` cannot have written is corrupt."""
        path = self.path(key)
        if not path.exists():
            return None
        try:
            body = json.loads(path.read_text(encoding="utf-8"))
            response, model_name = body["response"], body["model_name"]
            if not isinstance(response, str) or not isinstance(model_name, str):
                raise TypeError("response and model_name must be strings")
            usage = Usage(
                model_name,
                _token_count(body, "prompt_tokens"),
                _token_count(body, "completion_tokens"),
                cached=True,
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise CorruptCacheEntry(f"{path}: {exc}") from exc
        return response, usage

    def put(self, key: str, response: str, usage: Usage) -> None:
        body = {
            "response": response,
            "model_name": usage.model_name,
            "prompt_tokens": usage.prompt_tokens,
            "completion_tokens": usage.completion_tokens,
        }
        atomic_write_text(self.path(key), json.dumps(body, ensure_ascii=False))


class CachingBackend:
    """Consults the cache before delegating. An entry that cannot be read or decoded is a
    miss; an entry that is a directory is not written, and any other write that fails stops
    the run's writes: the cache changes only cost and latency. Each such event logs a warning
    that names the file."""

    def __init__(
        self,
        inner: Backend,
        cache: ResponseCache,
        model_name: str,
        temperature: float,
        max_output_tokens: int = BackendConfig.max_output_tokens,
    ):
        self.inner = inner
        self.cache = cache
        self.model_name = model_name
        self.temperature = temperature
        self.max_output_tokens = max_output_tokens
        self.writing = True  # until a write fails
        self._lock = threading.Lock()  # so that one failed write among threads warns

    def complete(self, messages: Sequence[ChatMessage]) -> tuple[str, Usage]:
        key = cache_key(self.model_name, self.temperature, messages, self.max_output_tokens)
        hit = None
        try:
            hit = self.cache.get(key)
        except CorruptCacheEntry as exc:  # its message names the file
            _warn("%s; the call is made", exc)
        except OSError as exc:
            _warn("%s: unreadable cache entry (%s); the call is made", self.cache.path(key), exc)
        if hit is not None:
            return hit
        response, usage = self.inner.complete(messages)
        if self.writing:
            try:
                self.cache.put(key, response, usage)
            except IsADirectoryError as exc:  # this entry alone; its message names the file
                _warn("%s; the entry is not written", exc)
            except OSError as exc:
                with self._lock:
                    first, self.writing = self.writing, False
                if first:
                    path = self.cache.path(key)
                    _warn("%s: cache write failed (%s); the run writes no more entries", path, exc)
        return response, usage


def _warn(message: str, *args) -> None:
    import logging  # imported here: a warning path only

    logging.getLogger(__name__).warning(message, *args)


def make_backend(cfg: BackendConfig) -> Backend:
    """Construct the backend handle a config describes, wiring the cache if set."""
    if cfg.kind == STUB:
        entries = load_stub_script(cfg.script_path) if cfg.script_path else []
        inner: Backend = StubBackend(entries, model_name=cfg.model_name)
    else:
        inner = HttpBackend(cfg)
    if cfg.cache_dir:
        cache = ResponseCache(cfg.cache_dir)
        inner = CachingBackend(inner, cache, cfg.model_name, cfg.temperature, cfg.max_output_tokens)
    return inner


# --------------------------------------------------------------------------
# Cost accounting
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelPrice:
    input_per_1k: float
    output_per_1k: float


def load_price_table(path: str | Path | None = None) -> dict[str, ModelPrice]:
    """Per-1K-token input/output prices from `path`, or the bundled editable table.

    Each model maps to an object whose `input_per_1k` and `output_per_1k` are
    finite numbers >= 0; anything else is a ValueError naming the model.
    """
    raw = read_json(path, "prices.json")
    if not isinstance(raw, dict):
        raise ValueError(f"price table {path} must be a JSON object")
    table = {}
    for model, entry in raw.items():
        prices = [None]
        if isinstance(entry, dict):
            prices = [entry.get("input_per_1k"), entry.get("output_per_1k")]
        if not all(type(v) in (int, float) and 0 <= v < float("inf") for v in prices):
            raise ValueError(
                f"price of model {model!r} must be an object whose input_per_1k and "
                f"output_per_1k are finite numbers >= 0, got {entry!r}"
            )
        table[model] = ModelPrice(*map(float, prices))
    return table


def default_price_table() -> dict[str, ModelPrice]:
    """The bundled price table."""
    return load_price_table()


def price_of(price_table: dict[str, ModelPrice], model_name: str) -> ModelPrice:
    """The table's entry for `model_name`; an unpriced model is an error."""
    price = price_table.get(model_name)
    if price is None:
        raise UnknownModelPrice(f"no price entry for model {model_name!r}")
    return price


def cost_row(price_table: dict[str, ModelPrice], usage: Usage) -> dict:
    """One `costs.jsonl` row: cost = tokens/1000 x per-1K price. A cache hit
    costs nothing and takes no latency."""
    price = price_of(price_table, usage.model_name)
    if usage.cached:
        cost = 0.0
    else:
        cost = (
            usage.prompt_tokens / 1000 * price.input_per_1k
            + usage.completion_tokens / 1000 * price.output_per_1k
        )
    return {
        "model_name": usage.model_name,
        "prompt_tokens": usage.prompt_tokens,
        "completion_tokens": usage.completion_tokens,
        "latency_s": 0.0 if usage.cached else usage.latency_s,
        "monetary_cost": cost,
        "cached": usage.cached,
    }


class CostTotals:
    """The totals of `costs_summary.json`, taken one ledger row at a time. The cost and
    latency values are kept in row order and summed by `sum()`: a `+=` loop rounds
    otherwise from Python 3.12 on, and an `array("d")` would turn an integer total
    into a float."""

    def __init__(self):
        self.counts = dict.fromkeys(("calls", "cache_hits", "prompt_tokens", "completion_tokens"), 0)
        self.costs: list[float] = []
        self.latencies: list[float] = []

    def add(self, row: dict) -> dict:
        """Count `row` in, and return it."""
        counts = self.counts
        counts["calls"] += 1
        counts["cache_hits"] += 1 if row["cached"] else 0
        counts["prompt_tokens"] += row["prompt_tokens"]
        counts["completion_tokens"] += row["completion_tokens"]
        self.costs.append(row["monetary_cost"])
        self.latencies.append(row["latency_s"])
        return row

    def summary(self) -> dict:
        return {**self.counts, "monetary_cost": sum(self.costs), "latency_s": sum(self.latencies)}


class CostLedger:
    """Append-only per-call cost ledger: `cost_row`s, summed by `CostTotals`."""

    def __init__(self, price_table: dict[str, ModelPrice]):
        self.price_table = dict(price_table)
        self.records: list[dict] = []

    def record(self, usage: Usage) -> dict:
        self.records.append(cost_row(self.price_table, usage))
        return self.records[-1]

    def aggregate(self) -> dict:
        totals = CostTotals()
        for row in self.records:
            totals.add(row)
        return totals.summary()

    def to_jsonl(self) -> str:
        return "".join(map(jsonl_line, self.records))
