"""Backends: stub scripting, caching, retries against a local mock server, costs."""

from __future__ import annotations

import contextlib
import errno
import json
import os
import random
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import regcheck
from regcheck.corpus import estimate_tokens
from regcheck.errors import BackendError, CorruptCacheEntry, UnknownModelPrice
from regcheck.llm import (
    MAX_BACKOFF_S,
    BackendConfig,
    CachingBackend,
    ChatMessage,
    CostTotals,
    HttpBackend,
    ModelPrice,
    ResponseCache,
    RetryPolicy,
    StubBackend,
    StubEntry,
    Usage,
    cache_key,
    cost_row,
    load_stub_script,
    make_backend,
)
from regcheck.storage import jsonl_line, numbered_jsonl

MESSAGES = [
    ChatMessage("system", "You check rules."),
    ChatMessage("user", "Text mentioning R5 duties."),
]


class TestChatMessage:
    def test_rejects_unknown_role(self):
        with pytest.raises(ValueError):
            ChatMessage("narrator", "x")

    def test_rejects_empty_user_content(self):
        with pytest.raises(ValueError):
            ChatMessage("user", "")


class TestBackendConfig:
    def test_defaults(self):
        cfg = BackendConfig()
        assert cfg.temperature == 0.0
        assert cfg.parallelism == 1

    @pytest.mark.parametrize("temp", [-0.1, 1.5])
    def test_temperature_bounds(self, temp):
        with pytest.raises(ValueError):
            BackendConfig(temperature=temp)

    def test_http_requires_endpoint(self):
        with pytest.raises(ValueError):
            BackendConfig(kind="http")

    @pytest.mark.parametrize(
        "endpoint",
        ["ftp://h/v1", "localhost:8080/v1", "http:///v1", "http://h:99999/v1", "http://h:x/v1"],
    )
    def test_http_endpoint_must_be_an_http_url_with_a_host(self, endpoint):
        with pytest.raises(ValueError, match="endpoint"):
            BackendConfig(kind="http", endpoint=endpoint)

    @pytest.mark.parametrize("endpoint", ["http://h/v1", "https://[::1]:8443/v1?x=1"])
    def test_http_endpoint_accepted(self, endpoint):
        assert BackendConfig(kind="http", endpoint=endpoint).endpoint == endpoint


class TestRetryPolicy:
    @pytest.mark.parametrize("base", [0.0, 1e-30, 0.5, 1e300, 1.7e308])
    @pytest.mark.parametrize("attempt", [1, 2, 64, 1100, 10**6])
    def test_backoff_is_capped_for_any_base_and_attempt(self, base, attempt):
        assert 0.0 <= RetryPolicy(base_backoff_s=base).backoff_s(attempt) <= MAX_BACKOFF_S

    def test_backoff_doubles_below_the_cap(self):
        policy = RetryPolicy(base_backoff_s=0.5)
        assert [policy.backoff_s(k) for k in (1, 2, 3, 4)] == [0.5, 1.0, 2.0, 4.0]
        assert policy.backoff_s(20) == MAX_BACKOFF_S


class TestStubBackend:
    def test_matcher_rule(self):
        backend = StubBackend([StubEntry(match="R5", response="R5. rationale")])
        text, usage = backend.complete(MESSAGES)
        assert text == "R5. rationale"
        assert usage.prompt_tokens == sum(
            -(-len(m.content) // 4) for m in MESSAGES
        )
        assert usage.completion_tokens == -(-len(text) // 4)
        assert usage.latency_s == 0.0

    def test_matcher_ignores_system_content(self):
        # "rules" appears in the system message only; the rule must not fire.
        backend = StubBackend(
            [
                StubEntry(match="You check rules", response="WRONG"),
                StubEntry(match="", response="fallback"),
            ]
        )
        text, _ = backend.complete(MESSAGES)
        assert text == "fallback"

    def test_first_match_wins(self):
        # Both rules match; the earlier one answers, every time.
        backend = StubBackend(
            [StubEntry(match="R5", response="first"), StubEntry(match="", response="second")]
        )
        assert backend.complete(MESSAGES)[0] == "first"
        assert backend.complete(MESSAGES)[0] == "first"
        backend = StubBackend(
            [StubEntry(match="", response="second"), StubEntry(match="R5", response="first")]
        )
        assert backend.complete(MESSAGES)[0] == "second"

    def test_exhausted(self):
        backend = StubBackend([])
        with pytest.raises(BackendError, match="no scripted response matches request starting"):
            backend.complete(MESSAGES)

    def test_matcher_rules_are_persistent(self):
        backend = StubBackend([StubEntry(match="R5", response="hit")])
        assert backend.complete(MESSAGES)[0] == "hit"
        assert backend.complete(MESSAGES)[0] == "hit"

    @pytest.mark.parametrize(
        "record", ['{"response": "R5. ok"}', '{"match": null, "response": "R5. ok"}']
    )
    def test_script_entry_without_match_is_rejected(self, tmp_path, record):
        script = tmp_path / "script.jsonl"
        script.write_text(record + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match='"match": "" is a catch-all'):
            load_stub_script(script)

    def test_entry_without_match_cannot_be_built(self):
        with pytest.raises(TypeError):
            StubEntry(response="R5. ok")

    def test_script_file(self, fixtures):
        entries = load_stub_script(fixtures / "stub_classify.jsonl")
        assert all(e.match for e in entries)

    def test_complete_helper_with_config(self, fixtures, tmp_path):
        script = tmp_path / "script.jsonl"
        script.write_text('{"match": "", "response": "R5. ok"}\n', encoding="utf-8")
        cfg = BackendConfig(kind="stub", script_path=str(script))
        text, usage = make_backend(cfg).complete(MESSAGES)
        assert text == "R5. ok"
        assert usage.model_name == "stub-model"


class TestCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResponseCache(tmp_path)
        usage = Usage("m", 10, 5, 0.2)
        cache.put("k1", "hello", usage)
        response, got = cache.get("k1")
        assert response == "hello"
        assert (got.prompt_tokens, got.completion_tokens) == (10, 5)
        assert got.cached is True
        assert got.latency_s == 0.0

    def test_cold_miss(self, tmp_path):
        assert ResponseCache(tmp_path).get("nope") is None

    def test_corrupt_entry_raises(self, tmp_path):
        cache = ResponseCache(tmp_path)
        (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(CorruptCacheEntry):
            cache.get("bad")

    def test_caching_backend_recomputes_corrupt_entry(self, tmp_path):
        inner = StubBackend([StubEntry(match="R5", response="R5. fresh")])
        backend = CachingBackend(inner, ResponseCache(tmp_path), "stub-model", 0.0)
        key = cache_key("stub-model", 0.0, MESSAGES)
        (tmp_path / f"{key}.json").write_text("{corrupt", encoding="utf-8")
        text, usage = backend.complete(MESSAGES)
        assert text == "R5. fresh"
        assert usage.cached is False

    @pytest.mark.parametrize(
        "key, value",
        [
            ("prompt_tokens", -7),
            ("prompt_tokens", True),
            ("prompt_tokens", 1.5),
            ("completion_tokens", "42"),
            ("completion_tokens", None),
            ("model_name", 7),
            ("model_name", None),
        ],
    )
    def test_entry_put_cannot_write_is_corrupt(self, tmp_path, key, value):
        cache = ResponseCache(tmp_path)
        cache.put("k", "R5. ok", Usage("stub-model", 10, 5))
        body = json.loads((tmp_path / "k.json").read_text(encoding="utf-8"))
        body[key] = value
        (tmp_path / "k.json").write_text(json.dumps(body), encoding="utf-8")
        with pytest.raises(CorruptCacheEntry):
            cache.get("k")

    def test_tampered_entries_are_recomputed(self, tmp_path, fixtures, data_dir):
        # The warm run writes the cold run's bytes and pays once per tampered entry.
        from regcheck.cli import main

        def check(out):
            return main([
                "check", "--artifact", str(fixtures / "dpa_demo.txt"), "--format", "structured",
                "--rules", str(data_dir / "gdpr_art28_demo.jsonl"),
                "--stub-script", str(fixtures / "stub_paragraph_aware.jsonl"),
                "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(tmp_path / out),
            ])

        assert check("cold") == 0
        tampers = [("prompt_tokens", -7), ("prompt_tokens", True),
                   ("completion_tokens", "42"), ("model_name", 7)]
        entries = sorted((tmp_path / "cache").glob("*.json"))
        assert len(entries) > len(tampers)
        for path, (key, value) in zip(entries, tampers):
            body = json.loads(path.read_text(encoding="utf-8"))
            body[key] = value
            path.write_text(json.dumps(body), encoding="utf-8")
        assert check("warm") == 0
        for name in ("report.json", "report.md", "findings.jsonl"):
            assert (tmp_path / "warm" / name).read_bytes() == (tmp_path / "cold" / name).read_bytes()
        warm = json.loads((tmp_path / "warm" / "costs_summary.json").read_text(encoding="utf-8"))
        assert warm["calls"] - warm["cache_hits"] == len(tampers)

    def test_hit_returns_identical_bytes_and_marks_cached(self, tmp_path):
        calls = []

        class Recording:
            def complete(self, messages):
                calls.append(1)
                return "R5. once", Usage("stub-model", 7, 3, 0.1)

        backend = CachingBackend(Recording(), ResponseCache(tmp_path), "stub-model", 0.0)
        first = backend.complete(MESSAGES)
        second = backend.complete(MESSAGES)
        assert len(calls) == 1
        assert first[0] == second[0]
        assert second[1].cached is True
        assert (second[1].prompt_tokens, second[1].completion_tokens) == (7, 3)

    def test_concurrent_puts_and_gets_stay_whole(self, tmp_path):
        cache = ResponseCache(tmp_path)
        usage = Usage("m", 10, 5)
        response = "R5. " + "x" * 20_000  # large enough for a torn write to show
        cache.put("shared", response, usage)
        errors = []

        def writer(k):
            try:
                for i in range(40):
                    cache.put("shared", response, usage)
                    cache.put(f"w{k}-{i}", response, usage)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        def reader():
            try:
                for _ in range(200):
                    hit = cache.get("shared")
                    assert hit is not None and hit[0] == response
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(k,)) for k in range(6)]
        threads += [threading.Thread(target=reader) for _ in range(6)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert list(tmp_path.glob("*.tmp")) == []
        assert len(list(tmp_path.glob("*.json"))) == 1 + 6 * 40
        for k in range(6):
            assert cache.get(f"w{k}-39")[0] == response

    def test_digest_depends_on_message_order(self):
        rng = random.Random(23)
        messages = [ChatMessage("user", f"m{i}") for i in range(5)]
        base = cache_key("m", 0.0, messages)
        for _ in range(50):
            shuffled = messages[:]
            rng.shuffle(shuffled)
            if shuffled == messages:
                continue
            assert cache_key("m", 0.0, shuffled) != base

    def test_digest_depends_on_model_and_temperature(self):
        assert cache_key("a", 0.0, MESSAGES) != cache_key("b", 0.0, MESSAGES)
        assert cache_key("a", 0.0, MESSAGES) != cache_key("a", 0.5, MESSAGES)
        # max_tokens is sent on the wire, so an answer under another cap is another answer.
        assert cache_key("a", 0.0, MESSAGES, 64) != cache_key("a", 0.0, MESSAGES, 512)
        assert cache_key("a", 0.0, MESSAGES) == cache_key(
            "a", 0.0, MESSAGES, BackendConfig().max_output_tokens
        )


def _check_argv(fixtures, data_dir, out: Path) -> list[str]:
    return [
        "check", "--artifact", str(fixtures / "dpa_demo.txt"), "--format", "structured",
        "--rules", str(data_dir / "gdpr_art28_demo.jsonl"),
        "--stub-script", str(fixtures / "stub_paragraph_aware.jsonl"), "--out-dir", str(out),
    ]


def _classify_argv(fixtures, data_dir, out: Path) -> list[str]:
    return [
        "classify", "--input", str(fixtures / "food_corpus.txt"), "--format", "structured",
        "--concepts", str(data_dir / "food_safety_concepts.jsonl"),
        "--stub-script", str(fixtures / "stub_classify.jsonl"), "--out", str(out / "labels.jsonl"),
    ]


# Per subcommand: its argv into an output directory, and the outputs a cache may not change.
CACHE_RUNS = {
    "check": (_check_argv, ("report.json", "report.md", "findings.jsonl")),
    "classify": (_classify_argv, ("labels.jsonl",)),
}


@pytest.mark.parametrize("parallelism", [1, 4])
@pytest.mark.parametrize("command", list(CACHE_RUNS))
class TestCacheFaults:
    """A cache that cannot be read or written changes only cost and latency: the run goes on
    without it, writes the bytes of an uncached run, and logs a warning that names the file."""

    def run(self, fixtures, data_dir, tmp_path, command, parallelism, out, *extra) -> bytes:
        from regcheck.cli import main

        argv, outputs = CACHE_RUNS[command]
        flags = ["--parallelism", str(parallelism), *extra]
        assert main([*argv(fixtures, data_dir, tmp_path / out), *flags]) == 0
        return b"".join((tmp_path / out / name).read_bytes() for name in outputs)

    def warnings(self, caplog) -> list[str]:
        return [r.getMessage() for r in caplog.records if r.name == "regcheck.llm"]

    def test_an_unreadable_entry_is_a_miss(
        self, fixtures, data_dir, tmp_path, caplog, command, parallelism
    ):
        run = partial(self.run, fixtures, data_dir, tmp_path, command, parallelism)
        cache = tmp_path / "cache"
        uncached = run("uncached")
        assert run("cold", "--cache-dir", str(cache)) == uncached
        entry = sorted(cache.glob("*.json"))[0]
        entry.unlink()
        entry.mkdir()  # read as a file, it raises IsADirectoryError
        with caplog.at_level("WARNING", logger="regcheck.llm"):
            assert run("warm", "--cache-dir", str(cache)) == uncached
        # One for the read; one for the write over it, which skips that entry alone.
        warnings = self.warnings(caplog)
        assert len(warnings) == 2 and all(str(entry) in w for w in warnings), warnings

    def test_an_entry_that_is_a_directory_skips_only_its_own_write(
        self, fixtures, data_dir, tmp_path, command, parallelism
    ):
        run = partial(self.run, fixtures, data_dir, tmp_path, command, parallelism)
        cache = tmp_path / "cache"
        uncached = run("uncached")
        assert run("cold", "--cache-dir", str(cache)) == uncached
        entries = sorted(cache.glob("*.json"))
        for entry in entries:
            entry.unlink()
        entries[0].mkdir()
        assert run("warm", "--cache-dir", str(cache)) == uncached
        assert sorted(cache.glob("*.json")) == entries
        assert all(entry.is_file() for entry in entries[1:])  # each other answer is cached again

    def test_a_failed_write_stops_the_writes(
        self, fixtures, data_dir, tmp_path, caplog, monkeypatch, command, parallelism
    ):
        run = partial(self.run, fixtures, data_dir, tmp_path, command, parallelism)
        uncached = run("uncached")
        put, keys = ResponseCache.put, []

        def disk_fills_at_the_third(cache, key, response, usage):
            keys.append(key)
            if len(keys) >= 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            put(cache, key, response, usage)

        monkeypatch.setattr(ResponseCache, "put", disk_fills_at_the_third)
        cache = tmp_path / "cache"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch often, so that failed writes race
        try:
            with caplog.at_level("WARNING", logger="regcheck.llm"):
                assert run("cold", "--cache-dir", str(cache)) == uncached
        finally:
            sys.setswitchinterval(interval)
        # Only the writes already past the check when the third failed are tried after it.
        assert 3 <= len(keys) <= 2 + parallelism
        assert sorted(cache.glob("*.json")) == sorted(cache / f"{k}.json" for k in keys[:2])
        (warning,) = self.warnings(caplog)
        assert any(str(cache / f"{key}.json") in warning for key in keys[2:]), warning
        assert "No space left" in warning


PRICES = {"stub-model": ModelPrice(0.5, 1.5)}


class TestCostAccounting:
    def test_worked_example(self):
        # 2 calls of (1000 in, 500 out) at (0.5, 1.5) per 1K: 2 x 1.25 = 2.50
        totals = CostTotals()
        usage = Usage("stub-model", 1000, 500, 0.0)
        rows = [totals.add(cost_row(PRICES, usage)) for _ in range(2)]
        assert totals.summary()["monetary_cost"] == pytest.approx(2.50, abs=1e-12)
        assert [r["monetary_cost"] for r in rows] == [1.25, 1.25]

    def test_zero_calls(self):
        assert CostTotals().summary() == {
            "calls": 0,
            "cache_hits": 0,
            "prompt_tokens": 0,
            "completion_tokens": 0,
            "monetary_cost": 0,
            "latency_s": 0,
        }

    def test_unknown_model(self):
        with pytest.raises(UnknownModelPrice):
            cost_row(PRICES, Usage("mystery", 1, 1, 0.0))

    def test_cached_calls_cost_nothing(self):
        costs = CostTotals()
        costs.add(cost_row(PRICES, Usage("stub-model", 1000, 500, 0.3)))
        costs.add(cost_row(PRICES, Usage("stub-model", 1000, 500, 0.3, cached=True)))
        totals = costs.summary()
        assert totals["calls"] == 2
        assert totals["cache_hits"] == 1
        assert totals["monetary_cost"] == pytest.approx(1.25, abs=1e-12)
        assert totals["latency_s"] == pytest.approx(0.3, abs=1e-9)

    def test_ledger_jsonl_export(self):
        line = jsonl_line(cost_row(PRICES, Usage("stub-model", 100, 10, 0.0)))
        assert line.endswith("}\n") and line.count("\n") == 1
        row = json.loads(line)
        assert row["prompt_tokens"] == 100
        assert row["monetary_cost"] == pytest.approx(0.065, abs=1e-12)


# --------------------------------------------------------------------------
# HTTP backend against a local mock server
# --------------------------------------------------------------------------


def _completion(content, usage):
    return {"choices": [{"message": {"role": "assistant", "content": content}}], "usage": usage}


class TransientFaults:
    """The transient faults that `_ScriptedHandler` answers requests with before it serves
    them: a 429, a 503, or a connection closed before the status line. Each request's
    faults are drawn from `seed` and its messages, at most `most` of them in a row, so the
    plan is the same at any parallelism. `injected` counts them by kind."""

    KINDS = (429, 503, "close")

    def __init__(self, seed: int, most: int):
        self.seed, self.most = seed, most
        self.lock = threading.Lock()
        self.attempts: Counter = Counter()  # requests seen, per distinct messages
        self.injected: Counter = Counter()

    def next(self, body: dict) -> int | str | None:
        """The fault to answer the request `body` with, or None to serve it."""
        key = json.dumps(body["messages"], sort_keys=True)
        rng = random.Random(f"{self.seed}:{key}")
        planned = [rng.choice(self.KINDS) for _ in range(rng.randint(0, self.most))]
        with self.lock:
            attempt = self.attempts[key]
            self.attempts[key] += 1
            fault = planned[attempt] if attempt < len(planned) else None
            if fault is not None:
                self.injected[fault] += 1
        return fault


class _ScriptedHandler(BaseHTTPRequestHandler):
    statuses: list[int] = []
    # Bodies of the next 200 responses; once used up, a well-formed completion.
    payloads: list[dict] = []
    # When set, a StubBackend whose answer to the request's messages is that completion.
    script: StubBackend | None = None
    # When set, the faults answered before `statuses` and the script are (see the class).
    faults: TransientFaults | None = None
    requests_seen: list[dict] = []
    headers_seen: list[dict] = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        type(self).requests_seen.append(body)
        type(self).headers_seen.append(dict(self.headers))
        fault = type(self).faults and type(self).faults.next(body)
        if fault == "close":
            return  # the server closes the connection: an HTTP/1.0 handler keeps none open
        status = fault or (type(self).statuses.pop(0) if type(self).statuses else 200)
        if status != 200:
            self.send_response(status)
            self.send_header("Content-Length", "9")
            self.end_headers()
            self.wfile.write(b"try later")
            return
        if type(self).payloads:
            payload = type(self).payloads.pop(0)
        elif type(self).script is not None:
            # No usage: the client estimates the tokens exactly as the stub does.
            messages = [ChatMessage(m["role"], m["content"]) for m in body["messages"]]
            content = type(self).script.complete(messages)[0]
            payload = {"choices": [{"message": {"role": "assistant", "content": content}}]}
        else:
            payload = _completion("R5. via http", {"prompt_tokens": 42, "completion_tokens": 7})
        data = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


# server.shutdown() waits for serve_forever's next poll; the 0.5 s default
# poll would add up to half a second to every teardown.
_POLL_S = 0.05


class _ScriptedServer(ThreadingHTTPServer):
    # The default listen backlog of 5 drops the connects of a parallelism-8
    # run beyond it, and each dropped one waits a 1 s SYN retry.
    request_queue_size = 64


@contextlib.contextmanager
def scripted_server(script: Path | None = None):
    """Serve `_ScriptedHandler` on a free local port; yields the endpoint URL.

    With `script`, a stub script JSONL, each request is answered by content as
    the stub backend would answer it.
    """
    server = _ScriptedServer(("127.0.0.1", 0), _ScriptedHandler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": _POLL_S}, daemon=True
    )
    thread.start()
    _ScriptedHandler.statuses = []
    _ScriptedHandler.payloads = []
    _ScriptedHandler.requests_seen = []
    _ScriptedHandler.headers_seen = []
    _ScriptedHandler.script = StubBackend(load_stub_script(script)) if script else None
    _ScriptedHandler.faults = None
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    finally:
        _ScriptedHandler.script = _ScriptedHandler.faults = None
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def mock_server():
    with scripted_server() as url:
        yield url


def _http_cfg(url, attempts=3):
    return BackendConfig(
        kind="http",
        endpoint=url,
        model_name="gpt-3.5-turbo-0125",
        retry=RetryPolicy(max_attempts=attempts, base_backoff_s=0.01),
        timeout_s=5.0,
    )


class TestHttpBackend:
    def test_rate_limited_then_succeeds(self, mock_server):
        _ScriptedHandler.statuses = [429, 429]
        text, usage = HttpBackend(_http_cfg(mock_server)).complete(MESSAGES)
        assert text == "R5. via http"
        assert usage.prompt_tokens == 42
        assert usage.completion_tokens == 7
        assert len(_ScriptedHandler.requests_seen) == 3

    def test_wire_schema(self, mock_server):
        HttpBackend(_http_cfg(mock_server)).complete(MESSAGES)
        sent = _ScriptedHandler.requests_seen[0]
        assert sent["model"] == "gpt-3.5-turbo-0125"
        assert sent["temperature"] == 0.0
        assert sent["messages"][0] == {"role": "system", "content": "You check rules."}
        assert "max_tokens" in sent

    def test_validation_error_not_retried(self, mock_server):
        _ScriptedHandler.statuses = [400]
        with pytest.raises(BackendError) as err:
            HttpBackend(_http_cfg(mock_server)).complete(MESSAGES)
        assert err.value.attempts == 1
        assert err.value.last_status == 400
        assert len(_ScriptedHandler.requests_seen) == 1

    def test_retry_exhaustion(self, mock_server):
        _ScriptedHandler.statuses = [503, 503, 503]
        with pytest.raises(BackendError) as err:
            HttpBackend(_http_cfg(mock_server, attempts=3)).complete(MESSAGES)
        assert err.value.attempts == 3
        assert err.value.last_status == 503

    def test_unreachable_endpoint(self):
        cfg = _http_cfg("http://127.0.0.1:9/nothing", attempts=2)
        with pytest.raises(BackendError) as err:
            HttpBackend(cfg).complete(MESSAGES)
        assert err.value.attempts == 2
        assert err.value.last_status is None

    def test_api_key_from_environment(self, mock_server, monkeypatch):
        monkeypatch.setenv("REGCHECK_API_KEY", "sk-test-123")
        HttpBackend(_http_cfg(mock_server)).complete(MESSAGES)
        assert _ScriptedHandler.headers_seen[0].get("Authorization") == "Bearer sk-test-123"

    def test_no_auth_header_without_key(self, mock_server, monkeypatch):
        monkeypatch.delenv("REGCHECK_API_KEY", raising=False)
        HttpBackend(_http_cfg(mock_server)).complete(MESSAGES)
        assert "Authorization" not in _ScriptedHandler.headers_seen[0]

    def test_latency_is_the_successful_attempt_without_backoff(self, mock_server):
        _ScriptedHandler.statuses = [429, 429]
        cfg = replace(_http_cfg(mock_server), retry=RetryPolicy(3, base_backoff_s=0.2))
        started = time.perf_counter()
        _, usage = HttpBackend(cfg).complete(MESSAGES)
        assert time.perf_counter() - started >= 0.6  # both backoff sleeps ran
        assert usage.latency_s < 0.2

    @pytest.mark.parametrize("base,attempts", [(1e300, 2), (0.5, 1100)])
    def test_backoff_never_overflows(self, monkeypatch, base, attempts):
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        cfg = replace(
            _http_cfg("http://127.0.0.1:9/nothing"),
            retry=RetryPolicy(max_attempts=attempts, base_backoff_s=base),
        )
        with pytest.raises(BackendError) as err:
            HttpBackend(cfg).complete(MESSAGES)
        assert err.value.attempts == attempts
        assert len(slept) == attempts - 1
        assert max(slept) == MAX_BACKOFF_S

    def test_null_or_absent_token_counts_are_estimated(self, mock_server):
        prompt_estimate = sum(estimate_tokens(m.content) for m in MESSAGES)
        reply_estimate = estimate_tokens("R5. ok")
        _ScriptedHandler.payloads = [
            _completion("R5. ok", {"prompt_tokens": None, "completion_tokens": 7}),
            _completion("R5. ok", {"prompt_tokens": 42, "completion_tokens": None}),
            _completion("R5. ok", None),
            {"choices": [{"message": {"content": "R5. ok"}}]},
        ]
        backend = HttpBackend(_http_cfg(mock_server))
        counts = []
        for _ in range(4):
            _, usage = backend.complete(MESSAGES)
            counts.append((usage.prompt_tokens, usage.completion_tokens))
        assert counts == [
            (prompt_estimate, 7),
            (42, reply_estimate),
            (prompt_estimate, reply_estimate),
            (prompt_estimate, reply_estimate),
        ]

    @pytest.mark.parametrize(
        "payload",
        [
            _completion(5, None),
            _completion(["R5"], None),
            _completion("R5. ok", "n/a"),
            _completion("R5. ok", []),
            _completion("R5. ok", {"prompt_tokens": -7, "completion_tokens": 7}),
            _completion("R5. ok", {"prompt_tokens": 4.5, "completion_tokens": 7}),
            _completion("R5. ok", {"prompt_tokens": "42", "completion_tokens": 7}),
            _completion("R5. ok", {"prompt_tokens": 42, "completion_tokens": True}),
            {"choices": []},
            [],
        ],
    )
    def test_malformed_body_is_a_backend_error(self, mock_server, payload):
        _ScriptedHandler.payloads = [payload]
        with pytest.raises(BackendError, match="malformed completion response") as err:
            HttpBackend(_http_cfg(mock_server)).complete(MESSAGES)
        assert err.value.last_status == 200
        assert len(_ScriptedHandler.requests_seen) == 1  # a 200 is never retried

    def test_null_content_is_a_parse_failure_with_its_call_in_the_ledger(
        self, mock_server, fixtures, data_dir, tmp_path
    ):
        # A refusal comes with null content; the call is billed all the same.
        from regcheck.cli import main

        _ScriptedHandler.payloads = [_completion(None, {"prompt_tokens": 42, "completion_tokens": 7})]
        out = tmp_path / "out"
        code = main(
            [
                "check",
                "--artifact", str(fixtures / "dpa_demo.txt"), "--format", "structured",
                "--rules", str(data_dir / "gdpr_art28_demo.jsonl"),
                "--endpoint", mock_server, "--model", "gpt-3.5-turbo-0125",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        findings = [r for _, r in numbered_jsonl(out / "findings.jsonl")]
        assert [f["parse_error"] is not None for f in findings] == [True] + [False] * 7
        costs = [r for _, r in numbered_jsonl(out / "costs.jsonl")]
        assert len(costs) == 8
        assert all(row["monetary_cost"] > 0 for row in costs)

    def test_unreachable_https_endpoint(self):
        cfg = _http_cfg("https://127.0.0.1:9/nothing", attempts=2)
        with pytest.raises(BackendError) as err:
            HttpBackend(cfg).complete(MESSAGES)
        assert err.value.attempts == 2
        assert err.value.last_status is None


class _KeepAliveHandler(_ScriptedHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # no delayed-ACK stall between header and body

    def do_POST(self):
        self.server.ports.append(self.client_address[1])
        super().do_POST()
        # Without a "Connection: close" header: the client believes the
        # connection stays open.
        self.close_connection = self.server.drop_after_response


class _KeepAliveServer(ThreadingHTTPServer):
    """HTTP/1.1 keep-alive server that records the client port of every request."""

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _KeepAliveHandler)
        self.ports: list[int] = []
        self.drop_after_response = False
        self.closed = threading.Semaphore(0)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()


@pytest.fixture
def keep_alive_server():
    server = _KeepAliveServer()
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": _POLL_S}, daemon=True
    )
    thread.start()
    _ScriptedHandler.statuses = []
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _url(server: _KeepAliveServer) -> str:
    return f"http://127.0.0.1:{server.server_port}/v1/chat/completions"


class TestHttpTransport:
    def test_serial_calls_share_one_connection(self, keep_alive_server):
        backend = HttpBackend(_http_cfg(_url(keep_alive_server)))
        for _ in range(20):
            assert backend.complete(MESSAGES)[0] == "R5. via http"
        assert len(keep_alive_server.ports) == 20
        assert len(set(keep_alive_server.ports)) == 1

    def test_one_connection_per_worker_thread(self, keep_alive_server, dpa_doc, data_dir):
        from regcheck.pipeline import compliance_iter
        from regcheck.taxonomy import load_ruleset

        units = list(dpa_doc.table("sentence", 4096).check_units())
        rules = load_ruleset(data_dir / "gdpr_art28_demo.jsonl")
        backend = HttpBackend(_http_cfg(_url(keep_alive_server)))
        findings = list(compliance_iter(units, rules, backend, parallelism=4))
        assert len(findings) == len(units) == len(keep_alive_server.ports)
        assert 1 <= len(set(keep_alive_server.ports)) <= 4

    def test_connection_closed_while_idle_is_replaced(self, keep_alive_server):
        keep_alive_server.drop_after_response = True
        backend = HttpBackend(_http_cfg(_url(keep_alive_server), attempts=1))
        backend.complete(MESSAGES)
        assert keep_alive_server.closed.acquire(timeout=5)  # the server hung up
        assert backend.complete(MESSAGES)[0] == "R5. via http"
        assert len(set(keep_alive_server.ports)) == 2


_NO_REQUESTS = '''
import sys

sys.modules["requests"] = None  # any import of it now raises ImportError
from regcheck.cli import main

sys.exit(main(sys.argv[1:]))
'''


def _child_env() -> dict[str, str]:
    """This environment, with the `src/` these tests import first on `PYTHONPATH`: a
    child interpreter then runs the same copy, such as a mutant's."""
    src = str(Path(regcheck.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_requests_is_never_imported(fixtures, data_dir, tmp_path):
    # In a fresh interpreter, with `requests` blocked: the http backend runs
    # a whole `check` on the standard library alone.
    env = _child_env()
    with scripted_server() as url:
        proc = subprocess.run(
            [
                sys.executable, "-c", _NO_REQUESTS, "check",
                "--artifact", str(fixtures / "dpa_demo.txt"), "--format", "structured",
                "--rules", str(data_dir / "gdpr_art28_demo.jsonl"),
                "--endpoint", url, "--model", "gpt-3.5-turbo-0125",
                "--out-dir", str(tmp_path / "out"),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
    assert proc.returncode == 0, proc.stderr
    assert _ScriptedHandler.requests_seen


_LOADS_HASHLIB = '''
import sys

from regcheck.cli import main

code = main(sys.argv[1:])
print("_hashlib" in sys.modules)
sys.exit(code)
'''


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
def test_openssl_is_loaded_only_for_a_cached_run(fixtures, data_dir, tmp_path, cached):
    # hashlib maps OpenSSL's libcrypto, a few MB of memory; only the cache key needs it.
    env = _child_env()
    cache = ["--cache-dir", str(tmp_path / "cache")] if cached else []
    proc = subprocess.run(
        [
            sys.executable, "-c", _LOADS_HASHLIB, "check",
            "--artifact", str(fixtures / "dpa_demo.txt"), "--format", "structured",
            "--rules", str(data_dir / "gdpr_art28_demo.jsonl"),
            "--stub-script", str(fixtures / "stub_paragraph_aware.jsonl"),
            "--out-dir", str(tmp_path / "out"), *cache,
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{cached}\n"


class TestBoundedParallelism:
    def test_at_most_parallelism_in_flight(self, fixtures, data_dir, dpa_doc):
        from regcheck.pipeline import compliance_iter
        from regcheck.taxonomy import load_ruleset

        inner = StubBackend(load_stub_script(fixtures / "stub_sentence_blind.jsonl"))
        lock = threading.Lock()
        state = {"current": 0, "max": 0}

        class Counting:
            def complete(self, messages):
                with lock:
                    state["current"] += 1
                    state["max"] = max(state["max"], state["current"])
                time.sleep(0.01)
                try:
                    return inner.complete(messages)
                finally:
                    with lock:
                        state["current"] -= 1

        rules = load_ruleset(data_dir / "gdpr_art28_demo.jsonl")
        units = list(dpa_doc.table("sentence", 4096).check_units())
        findings = list(compliance_iter(units, rules, Counting(), parallelism=3))
        assert len(findings) == len(units)
        assert 2 <= state["max"] <= 3

    def test_make_backend_wires_cache(self, tmp_path):
        script = tmp_path / "s.jsonl"
        script.write_text('{"match": "R5", "response": "R5. ok"}\n', encoding="utf-8")
        cfg = BackendConfig(
            kind="stub", script_path=str(script), cache_dir=str(tmp_path / "cache")
        )
        backend = make_backend(cfg)
        first = backend.complete(MESSAGES)
        second = backend.complete(MESSAGES)
        assert first[0] == second[0]
        assert second[1].cached is True

    def test_make_backend_keys_the_cache_on_the_output_cap(self, tmp_path):
        script = tmp_path / "s.jsonl"
        script.write_text('{"match": "R5", "response": "R5. ok"}\n', encoding="utf-8")
        cfg = BackendConfig(
            kind="stub", script_path=str(script), cache_dir=str(tmp_path / "cache")
        )
        assert make_backend(cfg).complete(MESSAGES)[1].cached is False
        capped = replace(cfg, max_output_tokens=64)
        assert make_backend(capped).complete(MESSAGES)[1].cached is False
        assert make_backend(capped).complete(MESSAGES)[1].cached is True
