"""Start-up law: each subcommand loads only the modules it runs.

Every `regcheck` call pays for the modules it imports before it does any work,
so a module that one path needs is imported on that path. Each case runs one
subcommand in a fresh interpreter and subtracts the modules that `python -c pass`
loads in the same environment, so that a `site` hook cannot decide the result.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import regcheck
from regcheck.cli import main

_PRINT_MODULES = "import sys; print(*sys.modules)"

_RUN_THEN_PRINT_MODULES = '''
import sys

from regcheck.cli import main

code = main(sys.argv[1:])
print(*sys.modules)
sys.exit(code)
'''

# The standard modules that one path alone needs: `eval --runs-dir`, a warning and
# parallelism above 1; and the unit table of `segment`, `classify` and `check`, a shared
# library that `eval` does not load.
_ONE_PATH = {"statistics", "logging", "concurrent.futures"}
_UNIT_TABLE = {"array"}
_MODEL_MODULES = {
    "regcheck.pipeline", "regcheck.classify", "regcheck.compliance", "regcheck.taxonomy"
}


def _modules(*args: str) -> set[str]:
    src = str(Path(regcheck.__file__).resolve().parents[1])  # the copy these tests import
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.fixture(scope="module")
def interpreter_modules() -> set[str]:
    return _modules(_PRINT_MODULES)


def _argv(case: str, fixtures: Path, data: Path, tmp: Path) -> list[str]:
    gold = str(fixtures / "dpa_gold_paragraph.jsonl")
    check = [
        "check", "--artifact", str(fixtures / "dpa_demo.txt"), "--format", "structured",
        "--rules", str(data / "gdpr_art28_demo.jsonl"),
        "--stub-script", str(fixtures / "stub_paragraph_aware.jsonl"),
        "--out-dir", str(tmp / "out"),
    ]
    classify = [
        "classify", "--input", str(fixtures / "food_corpus.txt"), "--format", "structured",
        "--concepts", str(data / "food_safety_concepts.jsonl"), "--out", str(tmp / "labels.jsonl"),
    ]
    segment = [
        "segment", "--input", str(fixtures / "dpa_demo.txt"), "--format", "structured",
        "--out", str(tmp / "units.jsonl"),
    ]
    if case == "eval-runs-dir":  # two runs to aggregate, each scored by an in-process eval
        for run in ("run_01", "run_02"):
            out = str(tmp / run / "metrics.json")
            assert main(["eval", "--gold", gold, "--pred", gold, "--out", out]) == 0
    return {
        "check-parallelism-1": [*check, "--parallelism", "1"],
        "check-parallelism-2": [*check, "--parallelism", "2"],
        "check-cache": [*check, "--cache-dir", str(tmp / "cache")],
        "classify": [*classify, "--stub-script", str(fixtures / "stub_classify.jsonl")],
        "classify-keyword-only-parallelism-8": [*classify, "--keyword-only", "--parallelism", "8"],
        "eval": ["eval", "--gold", gold, "--pred", gold, "--out", str(tmp / "metrics.json")],
        "eval-runs-dir": ["eval", "--runs-dir", str(tmp), "--out", str(tmp / "aggregate.json")],
        "segment": segment,
        "segment-sentence": [*segment, "--granularity", "sentence"],
    }[case]


# Per case: the modules it must not load, and those it must load.
_CASES = {
    "check-parallelism-1": (
        {"regcheck.evaluation", "regcheck.classify", *_ONE_PATH, "http.client"},
        {"regcheck.pipeline", *_UNIT_TABLE},
    ),
    "check-parallelism-2": (set(), {"concurrent.futures"}),
    # A cache that reads and writes cleanly logs nothing.
    "check-cache": ({"logging"}, {"hashlib"}),
    "classify": ({"regcheck.evaluation", *_ONE_PATH}, {"regcheck.classify", *_UNIT_TABLE}),
    # Keyword matching starts no thread pool, whatever the parallelism.
    "classify-keyword-only-parallelism-8": (
        {"regcheck.evaluation", *_ONE_PATH, "http.client"}, {"regcheck.classify", *_UNIT_TABLE}
    ),
    "eval": ({*_MODEL_MODULES, *_ONE_PATH, *_UNIT_TABLE}, {"regcheck.evaluation"}),
    "eval-runs-dir": (set(), {"statistics"}),
    "segment": ({*_MODEL_MODULES, *_ONE_PATH}, {"regcheck.corpus", *_UNIT_TABLE}),
    "segment-sentence": ({*_MODEL_MODULES, *_ONE_PATH}, {"regcheck.corpus", *_UNIT_TABLE}),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_subcommand_loads_only_the_modules_it_runs(
    fixtures, data_dir, tmp_path, interpreter_modules, case
):
    absent, present = _CASES[case]
    loaded = _modules(_RUN_THEN_PRINT_MODULES, *_argv(case, fixtures, data_dir, tmp_path))
    assert present <= loaded  # the controls: a path does load what it runs
    new = loaded - interpreter_modules
    assert not absent & new, sorted(absent & new)
