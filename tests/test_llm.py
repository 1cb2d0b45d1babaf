"""Backends: stub scripting, caching, retries against a local mock server, costs."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from regcheck.errors import (
    BackendError,
    CorruptCacheEntry,
    ScriptExhausted,
    UnknownModelPrice,
)
from regcheck.llm import (
    BackendConfig,
    CachingBackend,
    ChatMessage,
    CostLedger,
    HttpBackend,
    ModelPrice,
    ResponseCache,
    RetryPolicy,
    StubBackend,
    StubEntry,
    Usage,
    cache_key,
    load_stub_script,
    make_backend,
)

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
        with pytest.raises(ScriptExhausted):
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


PRICES = {"stub-model": ModelPrice(0.5, 1.5)}


class TestCostAccounting:
    def test_worked_example(self):
        # 2 calls of (1000 in, 500 out) at (0.5, 1.5) per 1K: 2 x 1.25 = 2.50
        ledger = CostLedger(PRICES)
        records = [ledger.record(Usage("stub-model", 1000, 500, 0.0)) for _ in range(2)]
        assert ledger.aggregate()["monetary_cost"] == pytest.approx(2.50, abs=1e-12)
        assert [r.monetary_cost for r in records] == [1.25, 1.25]

    def test_zero_calls(self):
        ledger = CostLedger(PRICES)
        assert ledger.aggregate() == {
            "calls": 0,
            "cache_hits": 0,
            "prompt_tokens": 0,
            "completion_tokens": 0,
            "monetary_cost": 0,
            "latency_s": 0,
        }
        assert ledger.records == []

    def test_unknown_model(self):
        with pytest.raises(UnknownModelPrice):
            CostLedger(PRICES).record(Usage("mystery", 1, 1, 0.0))

    def test_cached_calls_cost_nothing(self):
        ledger = CostLedger(PRICES)
        ledger.record(Usage("stub-model", 1000, 500, 0.3))
        ledger.record(Usage("stub-model", 1000, 500, 0.3, cached=True))
        totals = ledger.aggregate()
        assert totals["calls"] == 2
        assert totals["cache_hits"] == 1
        assert totals["monetary_cost"] == pytest.approx(1.25, abs=1e-12)
        assert totals["latency_s"] == pytest.approx(0.3, abs=1e-9)

    def test_ledger_jsonl_export(self):
        ledger = CostLedger(PRICES)
        ledger.record(Usage("stub-model", 100, 10, 0.0))
        lines = ledger.to_jsonl().strip().splitlines()
        assert len(lines) == 1
        row = json.loads(lines[0])
        assert row["prompt_tokens"] == 100
        assert row["monetary_cost"] == pytest.approx(0.065, abs=1e-12)


# --------------------------------------------------------------------------
# HTTP backend against a local mock server
# --------------------------------------------------------------------------


class _ScriptedHandler(BaseHTTPRequestHandler):
    statuses: list[int] = []
    requests_seen: list[dict] = []
    headers_seen: list[dict] = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        type(self).requests_seen.append(body)
        type(self).headers_seen.append(dict(self.headers))
        status = type(self).statuses.pop(0) if type(self).statuses else 200
        if status != 200:
            self.send_response(status)
            self.end_headers()
            self.wfile.write(b"try later")
            return
        payload = {
            "choices": [{"message": {"role": "assistant", "content": "R5. via http"}}],
            "usage": {"prompt_tokens": 42, "completion_tokens": 7},
        }
        data = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def mock_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _ScriptedHandler.statuses = []
    _ScriptedHandler.requests_seen = []
    _ScriptedHandler.headers_seen = []
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


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


_COLD_START = '''
import sys
from regcheck.cli import main

assert "requests" not in sys.modules, "import regcheck.cli"
fixtures, data, out = (sys.argv[i] for i in (1, 2, 3))
artifact = ["--artifact", fixtures + "/dpa_demo.txt", "--format", "structured"]
assert main(["segment", "--input", fixtures + "/dpa_demo.txt", "--out", out + "/units.jsonl"]) == 0
assert main(["check", *artifact, "--rules", data + "/gdpr_art28_demo.jsonl",
             "--stub-script", fixtures + "/stub_paragraph_aware.jsonl", "--out-dir", out]) == 0
assert main(["eval", "--gold", fixtures + "/dpa_gold_paragraph.jsonl",
             "--pred", out + "/findings.jsonl", "--out", out + "/metrics.json"]) == 0
assert "requests" not in sys.modules, "stub segment/check/eval"

from regcheck.llm import BackendConfig, make_backend

make_backend(BackendConfig(kind="http", endpoint="http://127.0.0.1:9/nothing"))
assert "requests" in sys.modules, "http backend"
'''


def test_requests_is_imported_by_the_http_backend_only(fixtures, data_dir, tmp_path):
    # In a fresh interpreter, since this one has imported requests already.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(fixtures), str(data_dir), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


class TestBoundedParallelism:
    def test_at_most_parallelism_in_flight(self, fixtures, data_dir):
        from regcheck.corpus import parse_document
        from regcheck.pipeline import compliance_units, run_compliance
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

        raw = (fixtures / "dpa_demo.txt").read_text(encoding="utf-8")
        doc = parse_document(raw, "structured", doc_id="dpa_demo")
        rules = load_ruleset(data_dir / "gdpr_art28_demo.jsonl")
        units = compliance_units(doc, "sentence", 4096)
        findings = run_compliance(units, rules, Counting(), parallelism=3)
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
