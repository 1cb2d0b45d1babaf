"""The run-configuration law: a rejected setting exits 2 before any call.

Every config key has rejected values. Each one is given in `--config` and,
where the subcommand has a flag for the key, as that flag, to every
subcommand. Each case must exit 2 naming the key, with zero requests at the
scripted local server, no cache entry and no output.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest
from conftest import dump_json
from test_llm import _ScriptedHandler, scripted_server

from regcheck import cli
from regcheck.cli import main
from regcheck.llm import StubBackend
from regcheck.storage import numbered_jsonl

FIXTURES = Path(__file__).parent / "fixtures"
DATA = Path(__file__).parent.parent / "src" / "regcheck" / "data"
DPA = FIXTURES / "dpa_demo.txt"
FOOD = FIXTURES / "food_corpus.txt"
RULES = DATA / "gdpr_art28_demo.jsonl"
CONCEPTS = DATA / "food_safety_concepts.jsonl"
GOLD = FIXTURES / "dpa_gold_paragraph.jsonl"
STUB_SCRIPT = FIXTURES / "stub_paragraph_aware.jsonl"

# Rejected values of every config key, as JSON values.
REJECTED = {
    "endpoint": ["", 5, None, "ftp://h/v1", "localhost:8080/v1"],
    "model": [5, None, ["gpt-4"]],
    "temperature": [-0.1, 1.5, math.nan, "0.5", True, None],
    "max_output_tokens": [0, -1, 2.5, "512", True],
    "parallelism": [0, -3, 2.7, "8", True, None],
    "retry_max_attempts": [0, -1, 1.5, "3", True],
    "retry_base_backoff_s": [-1, -0.5, math.inf, math.nan, "0.5", False],
    "cache_dir": [5, True, {}],
    "stub_script": [5, False],
    "price_table": [5, True],
    "budget": [0, -1, 1.5, "4096", True, None],
    "format": ["pdf", "", 1, None],
    "granularity": ["word", 1, None],
    "context": ["yes", "ON", True, None],
    "runs": [0, -1, 2.7, "2", True, None],
}
# Flag-only settings.
REJECTED_FLAGS = {"max_parse_failures": [-1, -5, 1.5]}

_BACKEND_FLAGS = {
    "endpoint", "model", "temperature", "parallelism", "cache_dir", "price_table", "stub_script",
}
_CHECK_FLAGS = {"format", "granularity", "context", "budget", "runs", "max_parse_failures"}
# Subcommand -> (its arguments that are not settings, the settings it has flags for).
COMMANDS = {
    "segment": (["segment", "--input", DPA, "--out", "{out}/units.jsonl"], {"format", "granularity", "budget"}),
    "classify": (
        ["classify", "--input", FOOD, "--concepts", CONCEPTS, "--out", "{out}/labels.jsonl"],
        {"format"} | _BACKEND_FLAGS,
    ),
    "classify --keyword-only": (
        ["classify", "--keyword-only", "--input", FOOD, "--concepts", CONCEPTS,
         "--out", "{out}/labels.jsonl"],
        {"format"} | _BACKEND_FLAGS,
    ),
    "check": (["check", "--artifact", DPA, "--rules", RULES, "--out-dir", "{out}"], _CHECK_FLAGS | _BACKEND_FLAGS),
    "eval": (["eval", "--gold", GOLD, "--pred", GOLD, "--out", "{out}/metrics.json"], set()),
}


@pytest.fixture(scope="module")
def endpoint():
    with scripted_server() as url:
        yield url


def _base_config(tmp_path: Path, endpoint: str) -> dict:
    """A valid config that bills every model call at the scripted server."""
    return {
        "endpoint": endpoint,
        "model": "gpt-3.5-turbo-0125",
        "cache_dir": str(tmp_path / "cache"),
        "retry_max_attempts": 1,
        "retry_base_backoff_s": 0,
        "format": "structured",
    }


def _flag_text(key: str, value) -> str | None:
    """`value` as command-line text, or None when no flag can carry it.

    A flag's text is typed by its parser, so only a value of the key's own
    kind (a number for a number key, a string for a string key) is a rejected
    flag value; `"8"` given to `--parallelism` is simply 8.
    """
    if value is None or isinstance(value, (bool, list, dict)):
        return None
    if isinstance(value, str) != (cli._KEY_TYPES.get(key, int) is str):
        return None
    return str(value)


def _argv(template: list, tmp_path: Path, out: str = "out") -> list[str]:
    """`template` with its `{out}` and `{cache}` placeholders filled in under `tmp_path`."""
    return [str(a).format(out=tmp_path / out, cache=tmp_path / "cache") for a in template]


def _run(argv) -> int:
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:  # argparse rejects a flag value with exit 2
        return exc.code


def _cases(key: str, value):
    """(label, config file body or None, extra flag argv, subcommand argv) per case."""
    text = _flag_text(key, value)
    for name, (argv, flags) in COMMANDS.items():
        if key in cli._KEY_TYPES:
            yield f"{name} --config", {key: value}, [], argv
        if key in flags and text is not None:
            yield f"{name} --{key}", {}, [f"--{key.replace('_', '-')}", text], argv


def _assert_rejected(tmp_path, endpoint, capsys, key, value):
    ran = 0
    for label, override, flag, argv in _cases(key, value):
        config = tmp_path / "config.json"
        dump_json(config, {**_base_config(tmp_path, endpoint), **override})
        _ScriptedHandler.requests_seen = []
        code = _run(["--config", config, *_argv(argv, tmp_path), *flag])
        err = capsys.readouterr().err
        case = f"{label} = {value!r}"
        assert code == 2, case
        assert key in err or key.replace("_", "-") in err, (case, err)
        assert _ScriptedHandler.requests_seen == [], case
        assert not (tmp_path / "cache").exists(), case
        assert not (tmp_path / "out").exists(), case
        ran += 1
    assert ran >= 1


def test_every_config_key_has_rejected_values():
    assert set(REJECTED) == set(cli._KEY_TYPES)


@pytest.mark.parametrize(
    "key,value", [(k, v) for k, values in REJECTED.items() for v in values], ids=repr
)
def test_rejected_config_value_exits_2_before_any_call(tmp_path, endpoint, capsys, key, value):
    _assert_rejected(tmp_path, endpoint, capsys, key, value)


@pytest.mark.parametrize(
    "key,value", [(k, v) for k, values in REJECTED_FLAGS.items() for v in values], ids=repr
)
def test_rejected_flag_value_exits_2_before_any_call(tmp_path, endpoint, capsys, key, value):
    _assert_rejected(tmp_path, endpoint, capsys, key, value)


@pytest.mark.parametrize("name", list(COMMANDS))
def test_base_config_bills_calls(tmp_path, endpoint, name):
    # The law's three observations are live: the valid base config reaches
    # the server, fills the cache and writes output.
    dump_json(tmp_path / "config.json", _base_config(tmp_path, endpoint))
    _ScriptedHandler.requests_seen = []
    assert _run(["--config", tmp_path / "config.json", *_argv(COMMANDS[name][0], tmp_path)]) == 0
    assert (tmp_path / "out").exists()
    billed = name in ("classify", "check")
    assert bool(_ScriptedHandler.requests_seen) == billed
    assert (tmp_path / "cache").exists() == billed


@pytest.mark.parametrize("body", [5, [], "runs", None])
def test_config_file_must_be_an_object(tmp_path, body):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(body), encoding="utf-8")
    code = _run(["--config", config, "segment", "--input", DPA, "--out", tmp_path / "out" / "u.jsonl"])
    assert code == 2
    assert not (tmp_path / "out").exists()


_CHECK = ["check", "--artifact", DPA, "--format", "structured", "--rules", RULES,
          "--stub-script", STUB_SCRIPT, "--out-dir", "{out}", "--cache-dir", "{cache}"]
# Settings that could never work and used to be caught late or not at all,
# each with the stub backend on the demo inputs: (config file body, argv).
PROBES = {
    "check --runs 0": (None, [*_CHECK, "--runs", "0"]),
    "check --max-parse-failures -1": (None, [*_CHECK, "--max-parse-failures", "-1"]),
    "classify --keyword-only --parallelism -3": (
        None,
        ["classify", "--input", FOOD, "--format", "structured", "--concepts", CONCEPTS,
         "--keyword-only", "--parallelism", "-3", "--out", "{out}/labels.jsonl"],
    ),
    'check {"context": "yes"}': ({"context": "yes"}, _CHECK),
    'check {"runs": 2.7}': ({"runs": 2.7}, _CHECK),
    "segment --budget 0": (None, ["segment", "--input", DPA, "--budget", "0", "--out", "{out}/u.jsonl"]),
    'check {"retry_base_backoff_s": -1}': ({"retry_base_backoff_s": -1}, _CHECK),
    'check {"retry_max_attempts": 0}': ({"retry_max_attempts": 0}, _CHECK),
    # The price check runs before the backend, and so its cache directory, is made.
    "check --model unpriced-x": (None, [*_CHECK, "--model", "unpriced-x"]),
}


@pytest.mark.parametrize("probe", list(PROBES))
def test_probe_exits_2_before_any_call(tmp_path, monkeypatch, probe):
    calls = []
    complete = StubBackend.complete
    monkeypatch.setattr(StubBackend, "complete", lambda self, m: calls.append(m) or complete(self, m))
    body, argv = PROBES[probe]
    argv = _argv(argv, tmp_path)
    if body is not None:
        dump_json(tmp_path / "config.json", body)
        argv = ["--config", tmp_path / "config.json", *argv]
    assert _run(argv) == 2
    assert calls == []
    assert not (tmp_path / "cache").exists()
    assert not (tmp_path / "out").exists()


def test_integer_for_a_float_key_is_the_same_setting(tmp_path):
    # {"temperature": 0} is 0.0: the same cache key, so the second run is all hits.
    dump_json(tmp_path / "config.json", {"temperature": 0, "retry_base_backoff_s": 1})
    assert _run(["--config", tmp_path / "config.json", *_argv(_CHECK, tmp_path)]) == 0
    assert _run(_argv(_CHECK, tmp_path, out="out2")) == 0
    rows = [r for _, r in numbered_jsonl(tmp_path / "out2" / "costs.jsonl")]
    assert len(rows) == 8 and all(r["cached"] for r in rows)
    golden = (FIXTURES / "golden_report.json").read_bytes()
    assert (tmp_path / "out" / "report.json").read_bytes() == golden


def test_readme_table_lists_every_config_key():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    for key in cli._KEY_TYPES:
        assert f"| `{key}` |" in readme, key


# The backend follows from the inputs, whatever their source: a stub script
# selects the stub, else an endpoint selects http, else the stub.
_CHECK_NO_SCRIPT = ["check", "--artifact", DPA, "--format", "structured", "--rules", RULES,
                    "--model", "gpt-3.5-turbo-0125", "--out-dir", "{out}"]


def test_endpoint_in_config_selects_http(tmp_path, endpoint):
    dump_json(tmp_path / "config.json", {"endpoint": endpoint, "retry_max_attempts": 1})
    _ScriptedHandler.requests_seen = []
    assert _run(["--config", tmp_path / "config.json", *_argv(_CHECK_NO_SCRIPT, tmp_path)]) == 0
    assert len(_ScriptedHandler.requests_seen) == 8


def test_endpoint_in_environment_selects_http(tmp_path, endpoint, monkeypatch):
    monkeypatch.setenv("REGCHECK_ENDPOINT", endpoint)
    _ScriptedHandler.requests_seen = []
    assert _run(_argv(_CHECK_NO_SCRIPT, tmp_path)) == 0
    assert len(_ScriptedHandler.requests_seen) == 8


def test_stub_script_in_config_beats_endpoint_in_environment(tmp_path, endpoint, monkeypatch):
    monkeypatch.setenv("REGCHECK_ENDPOINT", endpoint)
    dump_json(tmp_path / "config.json", {"stub_script": str(STUB_SCRIPT)})
    _ScriptedHandler.requests_seen = []
    assert _run(["--config", tmp_path / "config.json", *_argv(_CHECK_NO_SCRIPT, tmp_path)]) == 0
    assert _ScriptedHandler.requests_seen == []
    golden = (FIXTURES / "golden_report.json").read_bytes()
    assert (tmp_path / "out" / "report.json").read_bytes() == golden


@pytest.mark.parametrize("value", ["http", "stub"])
@pytest.mark.parametrize("name", list(COMMANDS))
def test_config_naming_backend_exits_2_before_any_input_is_read(tmp_path, capsys, name, value):
    # Every input path is missing, so an error about `backend` shows that the
    # config was rejected before any input was opened.
    argv = [tmp_path / "missing" if isinstance(a, Path) else a for a in COMMANDS[name][0]]
    dump_json(tmp_path / "config.json", {"backend": value})
    assert _run(["--config", tmp_path / "config.json", *_argv(argv, tmp_path)]) == 2
    assert "unknown config keys ['backend']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
