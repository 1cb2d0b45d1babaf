"""Chat-completion backends with caching, retries, and cost accounting.

Responsibilities:
- Wire client for OpenAI-compatible chat-completion endpoints (messages in,
  first choice text + usage out), with exponential backoff on transport
  errors and rate limits only.
- Deterministic scripted stub backend for tests and offline runs.
- Content-addressed response cache persisted across runs; enabling it never
  changes pipeline output, only cost/latency totals.
- Append-only per-call cost ledger priced from a per-1K-token table.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence

from .corpus import estimate_tokens
from .errors import (
    BackendError,
    CorruptCacheEntry,
    ScriptExhausted,
    UnknownModelPrice,
)
from .storage import atomic_write_text, dump_jsonl, read_jsonl, read_text_or_bundled

if TYPE_CHECKING:
    import requests

HTTP = "http"
STUB = "stub"

# Retry only what can recover: rate limits and transient server errors.
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})

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
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.kind == HTTP and not self.endpoint:
            raise ValueError("http backend requires an endpoint URL")


@dataclass(frozen=True)
class Usage:
    """Token and latency accounting for one completion call."""

    model_name: str
    prompt_tokens: int
    completion_tokens: int
    latency_s: float = 0.0
    cached: bool = False


@dataclass(frozen=True)
class CostRecord:
    """A priced usage entry: cost = tokens/1000 x per-1K price (0 for cache hits)."""

    model_name: str
    prompt_tokens: int
    completion_tokens: int
    latency_s: float
    monetary_cost: float
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
            raise ScriptExhausted(
                f"no scripted response matches request starting "
                f"{request_text[:60]!r}"
            )
        usage = Usage(
            model_name=self.model_name,
            prompt_tokens=sum(estimate_tokens(m.content) for m in messages),
            completion_tokens=estimate_tokens(response),
        )
        return response, usage


def load_stub_script(path: str | Path) -> list[StubEntry]:
    """Read stub entries from a JSONL file of {"match": ..., "response": ...}."""
    entries = []
    for rec in read_jsonl(path):
        match, response = rec.get("match"), rec.get("response")
        if not isinstance(response, str):
            raise ValueError(f"{path}: stub entry needs a string 'response'")
        if not isinstance(match, str):
            raise ValueError(
                f"{path}: stub entry needs a string 'match' (\"match\": \"\" is a catch-all)"
            )
        entries.append(StubEntry(response=response, match=match))
    return entries


# --------------------------------------------------------------------------
# HTTP backend (OpenAI-compatible chat completions)
# --------------------------------------------------------------------------


class HttpBackend:
    def __init__(self, cfg: BackendConfig, session: requests.Session | None = None):
        # Imported here, not at module level: only this backend needs it, and
        # importing it is a large share of the CLI's start-up time.
        import requests

        self.cfg = cfg
        self.session = session or requests.Session()
        self._transport_error = requests.RequestException

    def complete(self, messages: Sequence[ChatMessage]) -> tuple[str, Usage]:
        payload = {
            "model": self.cfg.model_name,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
            "temperature": self.cfg.temperature,
            "max_tokens": self.cfg.max_output_tokens,
        }
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        retry = self.cfg.retry
        last_status: int | None = None
        last_error = ""
        start = time.perf_counter()
        for attempt in range(1, retry.max_attempts + 1):
            try:
                resp = self.session.post(
                    self.cfg.endpoint,
                    json=payload,
                    headers=headers,
                    timeout=self.cfg.timeout_s,
                )
            except self._transport_error as exc:
                last_status, last_error = None, str(exc)
            else:
                last_status = resp.status_code
                if resp.status_code == 200:
                    return self._parse(resp, messages, time.perf_counter() - start)
                last_error = resp.text[:200]
                if resp.status_code not in RETRYABLE_STATUSES:
                    raise BackendError(
                        f"backend rejected request (status {resp.status_code}): {last_error}",
                        attempts=attempt,
                        last_status=resp.status_code,
                    )
            if attempt < retry.max_attempts:
                time.sleep(retry.base_backoff_s * 2 ** (attempt - 1))
        raise BackendError(
            f"backend unavailable after {retry.max_attempts} attempts: {last_error}",
            attempts=retry.max_attempts,
            last_status=last_status,
        )

    def _parse(
        self, resp: requests.Response, messages: Sequence[ChatMessage], latency: float
    ) -> tuple[str, Usage]:
        try:
            body = resp.json()
            text = body["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError) as exc:
            raise BackendError(f"malformed completion response: {exc}", last_status=200) from exc
        reported = body.get("usage") or {}
        usage = Usage(
            model_name=self.cfg.model_name,
            prompt_tokens=int(
                reported.get(
                    "prompt_tokens",
                    sum(estimate_tokens(m.content) for m in messages),
                )
            ),
            completion_tokens=int(
                reported.get("completion_tokens", estimate_tokens(text))
            ),
            latency_s=latency,
        )
        return text, usage


# --------------------------------------------------------------------------
# Response cache
# --------------------------------------------------------------------------


def cache_key(
    model_name: str, temperature: float, messages: Sequence[ChatMessage]
) -> str:
    """Content digest of (model, temperature, messages); order-sensitive."""
    canonical = json.dumps(
        {
            "model": model_name,
            "temperature": temperature,
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

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> tuple[str, Usage] | None:
        path = self._path(key)
        if not path.exists():
            return None
        try:
            body = json.loads(path.read_text(encoding="utf-8"))
            response = body["response"]
            usage = Usage(
                model_name=body["model_name"],
                prompt_tokens=int(body["prompt_tokens"]),
                completion_tokens=int(body["completion_tokens"]),
                latency_s=0.0,
                cached=True,
            )
            if not isinstance(response, str):
                raise TypeError("response must be a string")
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
        atomic_write_text(self._path(key), json.dumps(body, ensure_ascii=False))


class CachingBackend:
    """Consults the cache before delegating; corrupt entries are recomputed."""

    def __init__(self, inner: Backend, cache: ResponseCache, model_name: str, temperature: float):
        self.inner = inner
        self.cache = cache
        self.model_name = model_name
        self.temperature = temperature

    def complete(self, messages: Sequence[ChatMessage]) -> tuple[str, Usage]:
        key = cache_key(self.model_name, self.temperature, messages)
        try:
            hit = self.cache.get(key)
        except CorruptCacheEntry:
            hit = None
        if hit is not None:
            return hit
        response, usage = self.inner.complete(messages)
        self.cache.put(key, response, usage)
        return response, usage


def make_backend(cfg: BackendConfig) -> Backend:
    """Construct the backend handle a config describes, wiring the cache if set."""
    if cfg.kind == STUB:
        entries = load_stub_script(cfg.script_path) if cfg.script_path else []
        inner: Backend = StubBackend(entries, model_name=cfg.model_name)
    else:
        inner = HttpBackend(cfg)
    if cfg.cache_dir:
        inner = CachingBackend(
            inner, ResponseCache(cfg.cache_dir), cfg.model_name, cfg.temperature
        )
    return inner


# --------------------------------------------------------------------------
# Cost accounting
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelPrice:
    input_per_1k: float
    output_per_1k: float


def load_price_table(path: str | Path | None = None) -> dict[str, ModelPrice]:
    """Per-1K-token input/output prices from `path`, or the bundled editable table."""
    raw = json.loads(read_text_or_bundled(path, "prices.json"))
    return {
        model: ModelPrice(float(p["input_per_1k"]), float(p["output_per_1k"]))
        for model, p in raw.items()
    }


def default_price_table() -> dict[str, ModelPrice]:
    """The bundled price table."""
    return load_price_table()


def price_of(price_table: dict[str, ModelPrice], model_name: str) -> ModelPrice:
    """The table's entry for `model_name`; an unpriced model is an error."""
    price = price_table.get(model_name)
    if price is None:
        raise UnknownModelPrice(f"no price entry for model {model_name!r}")
    return price


class CostLedger:
    """Append-only per-call cost ledger with exact aggregate sums.

    Cache hits are recorded but contribute zero monetary cost and zero
    latency to the totals.
    """

    def __init__(self, price_table: dict[str, ModelPrice]):
        self.price_table = dict(price_table)
        self.records: list[CostRecord] = []
        self._lock = threading.Lock()

    def record(self, usage: Usage) -> CostRecord:
        price = price_of(self.price_table, usage.model_name)
        if usage.cached:
            cost = 0.0
        else:
            cost = (
                usage.prompt_tokens / 1000 * price.input_per_1k
                + usage.completion_tokens / 1000 * price.output_per_1k
            )
        rec = CostRecord(
            model_name=usage.model_name,
            prompt_tokens=usage.prompt_tokens,
            completion_tokens=usage.completion_tokens,
            latency_s=0.0 if usage.cached else usage.latency_s,
            monetary_cost=cost,
            cached=usage.cached,
        )
        with self._lock:
            self.records.append(rec)
        return rec

    def aggregate(self) -> dict:
        with self._lock:
            records = list(self.records)
        return {
            "calls": len(records),
            "cache_hits": sum(1 for r in records if r.cached),
            "prompt_tokens": sum(r.prompt_tokens for r in records),
            "completion_tokens": sum(r.completion_tokens for r in records),
            "monetary_cost": sum(r.monetary_cost for r in records),
            "latency_s": sum(r.latency_s for r in records),
        }

    def to_jsonl(self) -> str:
        with self._lock:
            records = list(self.records)
        return dump_jsonl(
            {
                "model_name": r.model_name,
                "prompt_tokens": r.prompt_tokens,
                "completion_tokens": r.completion_tokens,
                "latency_s": r.latency_s,
                "monetary_cost": r.monetary_cost,
                "cached": r.cached,
            }
            for r in records
        )
