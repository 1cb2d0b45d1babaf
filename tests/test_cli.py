"""CLI subcommands: exit codes, file artifacts, config precedence."""

from __future__ import annotations

import json
import math
import time
import types
from pathlib import Path

import pytest

import regcheck
from regcheck.classify import _stem_token
from regcheck.cli import main
from regcheck.corpus import estimate_tokens
from regcheck.llm import MAX_BACKOFF_S, StubBackend
from regcheck.storage import numbered_jsonl, write_json, write_jsonl

FIXTURES = Path(__file__).parent / "fixtures"
DATA = Path(__file__).parent.parent / "src" / "regcheck" / "data"


def run(*argv: str) -> int:
    return main(list(argv))


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "regcheck 0.1.0"


def test_package_root_is_the_readme_library_example():
    # Every name of the README's `from regcheck import (...)` block imports from
    # the package root, and the root exports nothing else but `__version__`. The
    # root loads each name's submodule on first use, so `vars(regcheck)` holds only
    # the names used so far: the exports are what `__all__` and `dir()` list.
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("from regcheck import (", 1)[1].split(")", 1)[0]
    names = {name.strip() for name in block.split(",") if name.strip()}
    assert set(regcheck.__all__) == names
    namespace: dict = {}
    exec(f"from regcheck import ({block})", namespace)
    assert names <= set(namespace)
    exported = {
        name for name in dir(regcheck)
        if not name.startswith("_") and not isinstance(getattr(regcheck, name), types.ModuleType)
    }
    assert exported == names


class TestSegment:
    def test_sentence_records_match_gold(self, tmp_path):
        out = tmp_path / "units.jsonl"
        code = run(
            "segment",
            "--input", str(FIXTURES / "sfcr_gold_corpus.txt"),
            "--format", "structured",
            "--granularity", "sentence",
            "--out", str(out),
        )
        assert code == 0
        records = [r for _, r in numbered_jsonl(out)]
        gold = [r for _, r in numbered_jsonl(FIXTURES / "sfcr_gold_sentences.jsonl")]
        assert len(records) == len(gold)
        assert [r["text"] for r in records] == [g["text"] for g in gold]
        assert records[0]["unit_ref"] == "sfcr_gold_corpus:b0:s0"

    def test_empty_input_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        code = run("segment", "--input", str(empty), "--format", "plain")
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_paragraph_chunks_respect_budget(self, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text(
            "Every lot must carry a code. The code must identify the supplier. "
            "Records must be retained for two years. Labels must show the lot code.",
            encoding="utf-8",
        )
        out = tmp_path / "passages.jsonl"
        code = run(
            "segment",
            "--input", str(doc),
            "--format", "plain",
            "--granularity", "paragraph",
            "--budget", "20",
            "--out", str(out),
        )
        assert code == 0
        records = [r for _, r in numbered_jsonl(out)]
        assert len(records) >= 2  # the tiny budget forces sentence-edge splits
        for rec in records:
            assert rec["token_estimate"] <= 20
            assert estimate_tokens(rec["text"]) == rec["token_estimate"]
            assert rec["text"].endswith(".")  # chunk boundaries sit at sentence edges

    def test_stdout_when_no_out(self, capsys):
        code = run(
            "segment",
            "--input", str(FIXTURES / "sfcr_sample.txt"),
            "--format", "structured",
            "--granularity", "sentence",
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["origin"] == "list_expanded"

    @pytest.mark.parametrize("granularity", ["sentence", "paragraph"])
    @pytest.mark.parametrize(
        "source,fmt,name",
        [("food_corpus_plain.txt", "plain", "plain"), ("dpa_demo.txt", "structured", "dpa")],
    )
    def test_output_matches_golden(self, tmp_path, source, fmt, name, granularity):
        out = tmp_path / "units.jsonl"
        code = run(
            "segment",
            "--input", str(FIXTURES / source),
            "--format", fmt,
            "--granularity", granularity,
            "--out", str(out),
        )
        assert code == 0
        golden = FIXTURES / f"golden_segment_{name}_{granularity}.jsonl"
        assert out.read_bytes() == golden.read_bytes()


# Each subcommand that prints without --out prints exactly the bytes it writes with it.
RUNS_DIR = "{runs}"  # a directory of two `eval` runs, made by the test
STDOUT_COMMANDS = {
    "segment": ["segment", "--input", FIXTURES / "dpa_demo.txt", "--format", "structured"],
    "classify": [
        "classify", "--input", FIXTURES / "food_corpus.txt", "--format", "structured",
        "--concepts", DATA / "food_safety_concepts.jsonl",
        "--stub-script", FIXTURES / "stub_classify.jsonl",
    ],
    "eval": [
        "eval", "--gold", FIXTURES / "dpa_gold_paragraph.jsonl",
        "--pred", FIXTURES / "dpa_gold_paragraph.jsonl",
    ],
    # The box table goes to stderr, so stdout is the aggregate JSON alone.
    "eval --runs-dir": ["eval", "--runs-dir", RUNS_DIR],
}


@pytest.mark.parametrize("name", list(STDOUT_COMMANDS))
def test_stdout_gives_the_out_file_bytes(tmp_path, capsys, name):
    runs = tmp_path / "runs"
    for k in (1, 2):
        metrics = runs / f"run_{k}" / "metrics.json"
        assert run(*map(str, STDOUT_COMMANDS["eval"]), "--out", str(metrics)) == 0
    argv = [str(runs) if a == RUNS_DIR else str(a) for a in STDOUT_COMMANDS[name]]
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == 0
    assert capsys.readouterr().out == ""
    assert run(*argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()
    assert out.stat().st_size > 0


class TestClassify:
    def test_missing_concepts_file_exits_2(self, tmp_path):
        code = run(
            "classify",
            "--input", str(FIXTURES / "food_corpus.txt"),
            "--format", "structured",
            "--concepts", str(tmp_path / "nope.jsonl"),
            "--keyword-only",
        )
        assert code == 2

    def test_keyword_only_baseline(self, tmp_path):
        out = tmp_path / "labels.jsonl"
        code = run(
            "classify",
            "--input", str(FIXTURES / "food_corpus.txt"),
            "--format", "structured",
            "--concepts", str(DATA / "food_safety_concepts.jsonl"),
            "--keyword-only",
            "--out", str(out),
        )
        assert code == 0
        records = [r for _, r in numbered_jsonl(out)]
        by_id = {r["prov_id"]: r for r in records}
        assert by_id["food_corpus:b2:s0"]["labels"] == ["Colour"]
        assert by_id["food_corpus:b0:s0"]["labels"] == []  # model branch skipped
        assert all(
            source == "keyword"
            for r in records
            for source in r["provenance"].values()
        )

    def test_full_pipeline_with_stub(self, tmp_path):
        out = tmp_path / "labels.jsonl"
        code = run(
            "classify",
            "--input", str(FIXTURES / "food_corpus.txt"),
            "--format", "structured",
            "--concepts", str(DATA / "food_safety_concepts.jsonl"),
            "--stub-script", str(FIXTURES / "stub_classify.jsonl"),
            "--out", str(out),
        )
        assert code == 0
        by_id = {r["prov_id"]: r for _, r in numbered_jsonl(out)}
        assert by_id["food_corpus:b2:s2"]["provenance"] == {
            "Inspection": "llm",
            "Pathogen": "keyword",
        }

    @pytest.mark.parametrize(
        "table,flags",
        [
            (None, ["--model", "unpriced-x"]),
            ({"stub-model": 5}, []),
            ({"stub-model": 5}, ["--model", "unpriced-x"]),
        ],
        ids=["unpriced-model", "malformed-table", "unpriced-model-malformed-table"],
    )
    def test_unpriced_model_exits_2_before_any_call(self, tmp_path, monkeypatch, table, flags):
        calls = []
        monkeypatch.setattr(StubBackend, "complete", lambda self, messages: calls.append(messages))
        if table is not None:
            write_json(tmp_path / "prices.json", table)
            flags = [*flags, "--price-table", str(tmp_path / "prices.json")]
        cache = tmp_path / "cache"
        cache.mkdir()
        argv = [
            "classify",
            "--input", str(FIXTURES / "food_corpus.txt"),
            "--format", "structured",
            "--concepts", str(DATA / "food_safety_concepts.jsonl"),
            "--stub-script", str(FIXTURES / "stub_classify.jsonl"),
            "--cache-dir", str(cache),
            *flags,
        ]
        out = tmp_path / "labels.jsonl"
        assert run(*argv, "--out", str(out)) == 2
        assert calls == []
        assert list(cache.iterdir()) == []
        assert not out.exists()
        # The keyword baseline makes no calls, so it reads no price table: it gives the
        # labels of a run without the price flags.
        assert run(*argv, "--keyword-only", "--out", str(out)) == 0
        plain = tmp_path / "plain.jsonl"
        assert run(*argv[: -len(flags)], "--keyword-only", "--out", str(plain)) == 0
        assert out.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("stem", [[], ["--stem"]], ids=["exact", "stem"])
    def test_labels_independent_of_parallelism(self, tmp_path, stem):
        outputs = []
        for parallelism in ("1", "8"):
            # Worker threads fill the shared stem cache from empty.
            _stem_token.cache_clear()
            out = tmp_path / f"labels-p{parallelism}.jsonl"
            code = run(
                "classify",
                "--input", str(FIXTURES / "food_corpus.txt"),
                "--format", "structured",
                "--concepts", str(DATA / "food_safety_concepts.jsonl"),
                "--stub-script", str(FIXTURES / "stub_classify.jsonl"),
                "--parallelism", parallelism,
                *stem,
                "--out", str(out),
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        if not stem:
            assert outputs[0] == (FIXTURES / "golden_labels.jsonl").read_bytes()


@pytest.mark.parametrize("body", [{"system": 5, "user": "Text: {text}"}, []])
def test_malformed_classification_template_exits_2_before_any_call(tmp_path, monkeypatch, body):
    calls = []
    monkeypatch.setattr(StubBackend, "complete", lambda self, messages: calls.append(messages))
    template = tmp_path / "template.json"
    write_json(template, body)
    cache = tmp_path / "cache"
    cache.mkdir()
    code = run(
        "classify",
        "--input", str(FIXTURES / "food_corpus.txt"),
        "--format", "structured",
        "--concepts", str(DATA / "food_safety_concepts.jsonl"),
        "--prompt-template", str(template),
        "--stub-script", str(FIXTURES / "stub_classify.jsonl"),
        "--cache-dir", str(cache),
        "--out", str(tmp_path / "out" / "labels.jsonl"),
    )
    assert code == 2
    assert calls == []
    assert list(cache.iterdir()) == []
    assert not (tmp_path / "out").exists()


# Output locations that cannot be written: a path under a file, or (for the
# classify labels) a directory. Each exits 2 before the first model call.
# A permission-denied directory is not among them: the tests may run as root.
@pytest.mark.parametrize(
    "argv,out,message",
    [
        (["check", "--runs", "1"], "file", "File exists"),
        (["check", "--runs", "2"], "file", "Not a directory"),
        (["check", "--runs", "1"], "file/sub", "Not a directory"),
        # The first run's directory can be made, the second's cannot.
        (["check", "--runs", "2"], "runs", "File exists"),
        (["classify"], "file/labels.jsonl", "File exists"),
        (["classify"], "dir", "is a directory"),
    ],
    ids=[
        "check-file", "check-runs-file", "check-under-file", "check-second-run-file",
        "classify-under-file", "classify-dir",
    ],
)
def test_unwritable_output_location_exits_2_before_any_call(
    tmp_path, monkeypatch, capsys, argv, out, message
):
    calls = []
    monkeypatch.setattr(StubBackend, "complete", lambda self, messages: calls.append(messages))
    (tmp_path / "file").write_text("not a directory\n", encoding="utf-8")
    (tmp_path / "dir").mkdir()
    (tmp_path / "runs").mkdir()
    (tmp_path / "runs" / "run_02").write_text("not a directory\n", encoding="utf-8")
    cache = tmp_path / "cache"
    cache.mkdir()
    if argv[0] == "check":
        argv = argv + [
            "--artifact", str(FIXTURES / "dpa_demo.txt"), "--format", "structured",
            "--rules", str(DATA / "gdpr_art28_demo.jsonl"),
            "--stub-script", str(FIXTURES / "stub_paragraph_aware.jsonl"),
            "--out-dir", str(tmp_path / out),
        ]
    else:
        argv = argv + [
            "--input", str(FIXTURES / "food_corpus.txt"), "--format", "structured",
            "--concepts", str(DATA / "food_safety_concepts.jsonl"),
            "--stub-script", str(FIXTURES / "stub_classify.jsonl"),
            "--out", str(tmp_path / out),
        ]
    assert run(*argv, "--cache-dir", str(cache)) == 2
    assert message in capsys.readouterr().err
    assert calls == []
    assert list(cache.iterdir()) == []
    assert (tmp_path / "file").read_text(encoding="utf-8") == "not a directory\n"
    assert list((tmp_path / "dir").iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["segment", "--input", str(FIXTURES / "dpa_demo.txt"), "--format", "structured"],
        ["eval", "--gold", str(FIXTURES / "dpa_gold_paragraph.jsonl"),
         "--pred", str(FIXTURES / "dpa_gold_paragraph.jsonl")],
    ],
    ids=["segment", "eval"],
)
def test_out_that_is_a_directory_exits_2_naming_it(tmp_path, capsys, argv):
    out = tmp_path / "dir"
    out.mkdir()
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"error: {out} is a directory\n"
    assert list(tmp_path.iterdir()) == [out]
    assert list(out.iterdir()) == []


class TestCheck:
    def _check(self, tmp_path, *extra, script="stub_paragraph_aware.jsonl"):
        return run(
            "check",
            "--artifact", str(FIXTURES / "dpa_demo.txt"),
            "--format", "structured",
            "--rules", str(DATA / "gdpr_art28_demo.jsonl"),
            "--stub-script", str(FIXTURES / script),
            "--out-dir", str(tmp_path / "out"),
            *extra,
        )

    def test_emits_report_findings_and_ledger(self, tmp_path):
        assert self._check(tmp_path) == 0
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["uncovered_rules"] == ["R4", "R8"]
        assert report["totals"]["passages"] == 8
        assert (out / "report.md").exists()
        findings = [r for _, r in numbered_jsonl(out / "findings.jsonl")]
        assert len(findings) == 8
        costs = json.loads((out / "costs_summary.json").read_text(encoding="utf-8"))
        assert costs["calls"] == 8
        assert costs["monetary_cost"] > 0

    def test_unreachable_endpoint_exits_3(self, tmp_path):
        self._check_unreachable(tmp_path, 0.01)

    def test_huge_backoff_exits_3_with_capped_sleeps(self, tmp_path, monkeypatch):
        # A huge finite base is a valid setting: its sleeps are capped, so it
        # cannot overflow `time.sleep`.
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        self._check_unreachable(tmp_path, 1e300)
        assert slept == [MAX_BACKOFF_S]

    def _check_unreachable(self, tmp_path, base_backoff_s):
        config = tmp_path / "config.json"
        write_json(config, {"retry_max_attempts": 2, "retry_base_backoff_s": base_backoff_s})
        code = run(
            "--config", str(config),
            "check",
            "--artifact", str(FIXTURES / "dpa_demo.txt"),
            "--format", "structured",
            "--rules", str(DATA / "gdpr_art28_demo.jsonl"),
            "--endpoint", "http://127.0.0.1:9/nothing",
            "--model", "gpt-3.5-turbo-0125",
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == 3

    def test_parse_failure_threshold_exits_4(self, tmp_path):
        script = tmp_path / "garbage.jsonl"
        write_jsonl(script, [{"match": "", "response": "no token at all"}])
        code = run(
            "check",
            "--artifact", str(FIXTURES / "dpa_demo.txt"),
            "--format", "structured",
            "--rules", str(DATA / "gdpr_art28_demo.jsonl"),
            "--stub-script", str(script),
            "--out-dir", str(tmp_path / "out"),
            "--max-parse-failures", "0",
        )
        assert code == 4
        # The report is still written for audit.
        report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert report["totals"]["parse_failures"] == 8

    def test_sentence_and_paragraph_share_report_schema(self, tmp_path):
        assert self._check(tmp_path, "--granularity", "paragraph") == 0
        para = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        code = run(
            "check",
            "--artifact", str(FIXTURES / "dpa_demo.txt"),
            "--format", "structured",
            "--rules", str(DATA / "gdpr_art28_demo.jsonl"),
            "--stub-script", str(FIXTURES / "stub_sentence_blind.jsonl"),
            "--granularity", "sentence",
            "--out-dir", str(tmp_path / "out2"),
        )
        assert code == 0
        sent = json.loads((tmp_path / "out2" / "report.json").read_text(encoding="utf-8"))
        assert set(para.keys()) == set(sent.keys())
        assert sent["totals"]["passages"] == 20

    def test_multi_run_layout(self, tmp_path):
        assert self._check(tmp_path, "--runs", "3") == 0
        out = tmp_path / "out"
        for k in (1, 2, 3):
            assert (out / f"run_{k:02d}" / "report.json").exists()
        first = (out / "run_01" / "report.json").read_bytes()
        assert (out / "run_03" / "report.json").read_bytes() == first

    def test_fifo_script_restarts_each_run(self, tmp_path):
        # All runs share one stub backend; every run must give the same bytes.
        assert self._check(tmp_path, "--runs", "2") == 0
        out = tmp_path / "out"
        for name in ("report.json", "findings.jsonl"):
            first = (out / "run_01" / name).read_bytes()
            assert (out / "run_02" / name).read_bytes() == first

    @pytest.mark.parametrize("parallelism", ["1", "8"])
    def test_script_entry_without_match_exits_2_before_any_call(self, tmp_path, parallelism):
        # Every stub entry is a match rule; one without `match` is rejected.
        script = tmp_path / "no_match.jsonl"
        write_jsonl(
            script,
            [{"match": "", "response": "R1. Entry."}, {"response": "R2. Entry."}],
        )
        cache = tmp_path / "cache"
        cache.mkdir()
        code = self._check(
            tmp_path, "--parallelism", parallelism, "--cache-dir", str(cache), script=script
        )
        assert code == 2
        assert list(cache.iterdir()) == []
        assert not (tmp_path / "out").exists()

    def test_unpriced_model_exits_2_before_any_call(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        code = self._check(tmp_path, "--model", "unpriced-x", "--cache-dir", str(cache))
        assert code == 2
        assert list(cache.iterdir()) == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "table,model",
        [
            ({"stub-model": 5}, "stub-model"),
            ({"stub-model": None}, "stub-model"),
            ({"stub-model": {"input_per_1k": -1, "output_per_1k": 1.5}}, "stub-model"),
            ({"stub-model": {"input_per_1k": 0.5, "output_per_1k": math.nan}}, "stub-model"),
            ({"stub-model": {"input_per_1k": math.inf, "output_per_1k": 1.5}}, "stub-model"),
            ({"stub-model": {"input_per_1k": True, "output_per_1k": 1.5}}, "stub-model"),
            ({"stub-model": {"input_per_1k": "0.5", "output_per_1k": 1.5}}, "stub-model"),
            ({"stub-model": {"input_per_1k": 0.5}}, "stub-model"),
            # Every entry is checked, not only the priced model's.
            ({"stub-model": {"input_per_1k": 0.5, "output_per_1k": 1.5}, "other": -1}, "other"),
            ([], None),
        ],
    )
    def test_malformed_price_table_exits_2_before_any_call(
        self, tmp_path, monkeypatch, capsys, table, model
    ):
        # -1 and NaN used to be accepted; NaN then reached costs_summary.json,
        # which is not valid JSON.
        calls = []
        monkeypatch.setattr(StubBackend, "complete", lambda self, messages: calls.append(messages))
        prices = tmp_path / "prices.json"
        prices.write_text(json.dumps(table), encoding="utf-8")
        cache = tmp_path / "cache"
        cache.mkdir()
        code = self._check(tmp_path, "--price-table", str(prices), "--cache-dir", str(cache))
        assert code == 2
        if model is not None:
            assert repr(model) in capsys.readouterr().err
        assert calls == []
        assert list(cache.iterdir()) == []
        assert not (tmp_path / "out").exists()

    def test_golden_report(self, tmp_path):
        assert self._check(tmp_path) == 0
        out = tmp_path / "out"
        golden = (FIXTURES / "golden_report.json").read_bytes()
        assert (out / "report.json").read_bytes() == golden
        assert (out / "report.md").read_bytes() == (FIXTURES / "golden_report.md").read_bytes()

    def test_sentence_context_recovers_accuracy(self, tmp_path):
        # The same sentence-blind script answers correctly once the enclosing
        # paragraph rides along as context.
        from regcheck.evaluation import confusion, load_gold

        def accuracy(out_dir, *extra):
            code = run(
                "check",
                "--artifact", str(FIXTURES / "dpa_demo.txt"),
                "--format", "structured",
                "--rules", str(DATA / "gdpr_art28_demo.jsonl"),
                "--stub-script", str(FIXTURES / "stub_sentence_blind.jsonl"),
                "--granularity", "sentence",
                "--out-dir", str(out_dir),
                *extra,
            )
            assert code == 0
            predicted = {
                r["unit_ref"]: frozenset(r["labels"])
                for _, r in numbered_jsonl(out_dir / "findings.jsonl")
            }
            counts = confusion(predicted, load_gold(FIXTURES / "dpa_gold_sentence.jsonl"))
            return counts.share(counts.overlap)

        without = accuracy(tmp_path / "off", "--context", "off")
        with_ctx = accuracy(tmp_path / "on", "--context", "on")
        assert with_ctx > without

    def test_runs_then_eval_aggregate(self, tmp_path):
        # check --runs N, score each run, then aggregate the run metrics.
        assert self._check(tmp_path, "--runs", "3") == 0
        out = tmp_path / "out"
        for k in (1, 2, 3):
            run_dir = out / f"run_{k:02d}"
            code = run(
                "eval",
                "--gold", str(FIXTURES / "dpa_gold_paragraph.jsonl"),
                "--pred", str(run_dir / "findings.jsonl"),
                "--out", str(run_dir / "metrics.json"),
            )
            assert code == 0
        aggregate = tmp_path / "aggregate.json"
        assert run("eval", "--runs-dir", str(out), "--out", str(aggregate)) == 0
        body = json.loads(aggregate.read_text(encoding="utf-8"))
        assert body["runs"] == 3
        box = body["per_metric"]["micro_f1"]
        assert box["min"] == box["max"]  # stub runs are identical samples

    def test_runs_dir_aggregate_into_the_runs_dir_is_repeatable(self, tmp_path):
        # The aggregate lands next to the runs; a second eval must not read it back.
        assert self._check(tmp_path, "--runs", "2") == 0
        out = tmp_path / "out"
        for k in (1, 2):
            run_dir = out / f"run_{k:02d}"
            code = run(
                "eval",
                "--gold", str(FIXTURES / "dpa_gold_paragraph.jsonl"),
                "--pred", str(run_dir / "findings.jsonl"),
                "--out", str(run_dir / "metrics.json"),
            )
            assert code == 0
        aggregate = out / "aggregate.json"
        assert run("eval", "--runs-dir", str(out), "--out", str(aggregate)) == 0
        first = aggregate.read_bytes()
        assert run("eval", "--runs-dir", str(out), "--out", str(aggregate)) == 0
        assert aggregate.read_bytes() == first


class TestEval:
    def test_averaging_flag_is_gone(self, capsys):
        # It only relabelled the output; metrics.json always says "macro".
        gold = str(FIXTURES / "dpa_gold_paragraph.jsonl")
        with pytest.raises(SystemExit) as exc:
            run("eval", "--gold", gold, "--pred", gold, "--averaging", "micro")
        assert exc.value.code == 2
        assert "--averaging" in capsys.readouterr().err

    def test_match_flag_is_gone(self, capsys):
        # `--match exact` repeated subset_accuracy; match_accuracy is always any-overlap.
        gold = str(FIXTURES / "dpa_gold_paragraph.jsonl")
        with pytest.raises(SystemExit) as exc:
            run("eval", "--gold", gold, "--pred", gold, "--match", "exact")
        assert exc.value.code == 2
        assert "--match" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("granularity", "script"),
        [("paragraph", "stub_paragraph_aware.jsonl"), ("sentence", "stub_sentence_blind.jsonl")],
    )
    def test_metrics_of_a_check_run_match_golden(self, tmp_path, granularity, script):
        # The golden check run at each granularity, scored against that granularity's gold.
        out_dir = tmp_path / "out"
        code = run(
            "check",
            "--artifact", str(FIXTURES / "dpa_demo.txt"),
            "--format", "structured",
            "--rules", str(DATA / "gdpr_art28_demo.jsonl"),
            "--stub-script", str(FIXTURES / script),
            "--granularity", granularity,
            "--out-dir", str(out_dir),
        )
        assert code == 0
        metrics_path = tmp_path / "metrics.json"
        code = run(
            "eval",
            "--gold", str(FIXTURES / f"dpa_gold_{granularity}.jsonl"),
            "--pred", str(out_dir / "findings.jsonl"),
            "--out", str(metrics_path),
        )
        assert code == 0
        golden = FIXTURES / f"golden_metrics_{granularity}.json"
        assert metrics_path.read_bytes() == golden.read_bytes()

    def test_perfect_predictions(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        pred = tmp_path / "pred.jsonl"
        write_jsonl(gold, [{"unit_ref": "u1", "labels": ["A"]}, {"unit_ref": "u2", "labels": []}])
        write_jsonl(pred, [{"unit_ref": "u1", "labels": ["A"]}, {"unit_ref": "u2", "labels": []}])
        out = tmp_path / "metrics.json"
        code = run("eval", "--gold", str(gold), "--pred", str(pred), "--out", str(out))
        assert code == 0
        body = json.loads(out.read_text(encoding="utf-8"))
        assert body["micro"]["f1"] == 1.0
        assert body["macro"]["precision"] == 1.0
        assert body["subset_accuracy"] == 1.0
        assert body["match_accuracy"]["value"] == 1.0

    def test_counts_parse_failures_of_findings(self, tmp_path):
        # Five passages get a scripted answer; the other three get one without
        # a rule token and are written with `parse_error` set.
        script = tmp_path / "partial.jsonl"
        entries = [r for _, r in numbered_jsonl(FIXTURES / "stub_paragraph_aware.jsonl")][:5]
        write_jsonl(script, entries + [{"match": "", "response": "no token at all"}])
        out_dir = tmp_path / "out"
        code = run(
            "check",
            "--artifact", str(FIXTURES / "dpa_demo.txt"),
            "--format", "structured",
            "--rules", str(DATA / "gdpr_art28_demo.jsonl"),
            "--stub-script", str(script),
            "--out-dir", str(out_dir),
        )
        assert code == 0
        findings = [r for _, r in numbered_jsonl(out_dir / "findings.jsonl")]
        assert sum(1 for f in findings if f["parse_error"] is not None) == 3
        metrics_path = tmp_path / "metrics.json"
        code = run(
            "eval",
            "--gold", str(FIXTURES / "dpa_gold_paragraph.jsonl"),
            "--pred", str(out_dir / "findings.jsonl"),
            "--out", str(metrics_path),
        )
        assert code == 0
        body = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert body["parse_failure_count"] == 3

    def test_runs_dir_aggregate(self, tmp_path):
        runs = tmp_path / "runs"
        for k, f1 in enumerate([0.8, 0.9, 0.7, 0.85, 0.75]):
            body = {
                "micro": {"precision": f1, "recall": f1, "f1": f1, "accuracy": f1},
                "macro": {"precision": f1, "recall": f1, "f1": f1, "accuracy": f1},
                "per_label": {},
                "parse_failure_count": 0,
            }
            write_json(runs / f"run_{k}" / "metrics.json", body)
        out = tmp_path / "aggregate.json"
        code = run("eval", "--runs-dir", str(runs), "--out", str(out))
        assert code == 0
        body = json.loads(out.read_text(encoding="utf-8"))
        assert body["runs"] == 5
        box = body["per_metric"]["micro_f1"]
        assert box["median"] == 0.8
        assert box["min"] == 0.7
        assert box["max"] == 0.9

    def test_runs_dir_without_metrics_exits_2_naming_it(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        (runs / "run_01").mkdir(parents=True)
        (runs / "metrics.json").write_text("{}", encoding="utf-8")  # not in a run directory
        out = tmp_path / "aggregate.json"
        assert run("eval", "--runs-dir", str(runs), "--out", str(out)) == 2
        assert f"no <run>/metrics.json files under {runs}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "body",
        [
            [],
            {
                "micro": {"precision": 1, "recall": 1, "f1": 1, "accuracy": 1, "x": 2},
                "macro": {"precision": 1, "recall": 1, "f1": 1, "accuracy": 1},
            },
            {
                "micro": {"precision": 1, "recall": 1, "f1": 1},
                "macro": {"precision": 1, "recall": 1, "f1": 1, "accuracy": 1},
            },
            {
                "micro": {"precision": 1, "recall": 1, "f1": "high", "accuracy": 1},
                "macro": {"precision": 1, "recall": 1, "f1": 1, "accuracy": 1},
            },
            {"macro": {"precision": 1, "recall": 1, "f1": 1, "accuracy": 1}},
        ],
    )
    def test_unreadable_run_metrics_exit_2_naming_the_file(self, tmp_path, capsys, body):
        runs = tmp_path / "runs"
        block = {"precision": 0.5, "recall": 0.5, "f1": 0.5, "accuracy": 0.5}
        write_json(runs / "run_01" / "metrics.json", {"micro": block, "macro": block})
        write_json(runs / "run_02" / "metrics.json", body)
        out = tmp_path / "aggregate.json"
        assert run("eval", "--runs-dir", str(runs), "--out", str(out)) == 2
        assert str(runs / "run_02" / "metrics.json") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "record",
        [
            {"passage": "a", "labels": ["R5"]},
            {"unit_ref": "a", "rule_ids": ["R5"]},
        ],
    )
    def test_prediction_keys_nothing_writes_exit_2(self, tmp_path, record):
        # Predictions are what check (unit_ref) or classify (prov_id) writes,
        # and every record carries `labels`.
        gold = tmp_path / "gold.jsonl"
        pred = tmp_path / "pred.jsonl"
        write_jsonl(gold, [{"unit_ref": "a", "labels": ["R5"]}])
        write_jsonl(pred, [record])
        out = tmp_path / "metrics.json"
        assert run("eval", "--gold", str(gold), "--pred", str(pred), "--out", str(out)) == 2
        assert not out.exists()

    def test_missing_inputs_exit_2(self):
        assert run("eval") == 2

    def test_both_files_malformed_names_the_prediction_file(self, tmp_path, capsys):
        # The predictions are loaded first; the gold file is then read as a stream.
        gold = tmp_path / "gold.jsonl"
        pred = tmp_path / "pred.jsonl"
        write_jsonl(gold, [{"unit_ref": 5, "labels": []}])
        write_jsonl(pred, [{"unit_ref": "a", "labels": "R5"}])
        out = tmp_path / "metrics.json"
        assert run("eval", "--gold", str(gold), "--pred", str(pred), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{pred}:1: labels of 'a' must be a list of strings" in err
        assert str(gold) not in err
        assert not out.exists()

    def test_duplicate_prediction_unit_exits_2(self, tmp_path):
        # The second record for `a` used to replace the first without a word.
        gold = tmp_path / "gold.jsonl"
        pred = tmp_path / "pred.jsonl"
        write_jsonl(gold, [{"unit_ref": "a", "labels": ["R1"]}])
        write_jsonl(
            pred,
            [
                {"unit_ref": "a", "labels": ["R1"], "parse_error": "x"},
                {"unit_ref": "a", "labels": ["R2"], "parse_error": "x"},
            ],
        )
        out = tmp_path / "metrics.json"
        assert run("eval", "--gold", str(gold), "--pred", str(pred), "--out", str(out)) == 2
        assert not out.exists()


    @pytest.mark.parametrize(
        "record",
        [
            {"unit_ref": "a", "labels": "R5"},
            {"unit_ref": "a", "labels": 5},
            {"unit_ref": "a", "labels": [5]},
            {"unit_ref": 5, "labels": ["R5"]},
            {"labels": ["R5"]},
        ],
    )
    @pytest.mark.parametrize("side", ["gold", "pred"])
    def test_mistyped_record_exits_2(self, tmp_path, capsys, side, record):
        # `"labels": "R5"` used to be scored as the labels R and 5.
        good = tmp_path / "good.jsonl"
        bad = tmp_path / "bad.jsonl"
        write_jsonl(good, [{"unit_ref": "a", "labels": ["R5"]}])
        write_jsonl(bad, [record])
        gold, pred = (bad, good) if side == "gold" else (good, bad)
        out = tmp_path / "metrics.json"
        assert run("eval", "--gold", str(gold), "--pred", str(pred), "--out", str(out)) == 2
        assert "must be" in capsys.readouterr().err
        assert not out.exists()


# A first line every reader accepts, per JSONL input.
_VALID_FIRST_LINE = {
    "rules": {"rule_id": "R1", "text": "assist the controller"},
    "concepts": {"concept_id": "C1", "name": "General"},
    "stub-script": {"match": "", "response": "R1. Entry."},
    "gold": {"unit_ref": "a", "labels": []},
    "pred": {"unit_ref": "a", "labels": []},
}


def _assert_jsonl_rejected_before_any_call(tmp_path, monkeypatch, capsys, flag, text, message):
    """The command that reads `text` (or bytes) as its `flag` input exits 2 with
    `message` after the file's name, makes no model call and writes nothing."""
    calls = []
    monkeypatch.setattr(StubBackend, "complete", lambda self, messages: calls.append(messages))
    bad = tmp_path / f"{flag}.jsonl"
    bad.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    good = tmp_path / "good.jsonl"
    write_jsonl(good, [_VALID_FIRST_LINE["gold"]])
    out, cache = tmp_path / "out", tmp_path / "cache"
    cache.mkdir()
    check = ["check", "--artifact", str(FIXTURES / "dpa_demo.txt"), "--format", "structured"]
    check += ["--out-dir", str(out), "--cache-dir", str(cache)]
    stub = ["--stub-script", str(FIXTURES / "stub_paragraph_aware.jsonl")]
    rules = ["--rules", str(DATA / "gdpr_art28_demo.jsonl")]
    argv = {
        "artifact": [*check[:2], str(bad), *check[3:], *rules, *stub],
        "rules": check + ["--rules", str(bad), *stub],
        "stub-script": check + [*rules, "--stub-script", str(bad)],
        "input": [
            "classify", "--input", str(bad), "--format", "structured", "--concepts",
            str(DATA / "food_safety_concepts.jsonl"), "--stub-script",
            str(FIXTURES / "stub_classify.jsonl"), "--out", str(out), "--cache-dir", str(cache),
        ],
        "segment": ["segment", "--input", str(bad), "--out", str(out)],
        "concepts": [
            "classify", "--input", str(FIXTURES / "food_corpus.txt"), "--format", "structured",
            "--concepts", str(bad), "--stub-script", str(FIXTURES / "stub_classify.jsonl"),
            "--out", str(out), "--cache-dir", str(cache),
        ],
        "gold": ["eval", "--gold", str(bad), "--pred", str(good), "--out", str(out)],
        "pred": ["eval", "--gold", str(good), "--pred", str(bad), "--out", str(out)],
    }[flag]
    assert run(*argv) == 2
    assert f"{bad}{message}" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()
    assert list(cache.iterdir()) == []


# A second line that is not a JSON object, and the message that names it. Blank
# lines are skipped but counted.
_NON_OBJECT_LINES = {
    "[1, 2]": ":2: expected a JSON object",
    "[]": ":2: expected a JSON object",
    '"x"': ":2: expected a JSON object",
    "7": ":2: expected a JSON object",
    "null": ":2: expected a JSON object",
    '{"unit_ref": "a"': ":2: invalid JSON record",
    " \n[]": ":3: expected a JSON object",
}


@pytest.mark.parametrize("line", list(_NON_OBJECT_LINES))
@pytest.mark.parametrize("flag", sorted(_VALID_FIRST_LINE))
def test_non_object_jsonl_line_exits_2_before_any_call(tmp_path, monkeypatch, capsys, flag, line):
    text = json.dumps(_VALID_FIRST_LINE[flag]) + "\n" + line + "\n"
    _assert_jsonl_rejected_before_any_call(
        tmp_path, monkeypatch, capsys, flag, text, _NON_OBJECT_LINES[line]
    )


@pytest.mark.parametrize(
    "flag,records,message",
    [
        (
            "concepts",
            [{"concept_id": "C2", "name": "Colour", "scarce": "yes"}],
            ":2: concepts[1].scarce: scarce must be a boolean",
        ),
        (
            "concepts",
            [{"concept_id": "C2", "name": "Pathogen", "scarce": True, "keywords": "listeria"}],
            ":2: concepts[1].keywords: keywords must be a list of strings",
        ),
        (
            "concepts",
            [{"concept_id": "Allergen", "name": "A", "scarce": True, "keywords": ["nut", "  "]}],
            ":2: concepts[1].keywords: keywords of 'Allergen' must not be blank",
        ),
        (
            "concepts",
            [{"concept_id": "Food-Contact", "name": "Food contact material"}],
            ":2: concepts[1].concept_id: non-scarce concept_id 'Food-Contact' must match "
            "[A-Za-z][A-Za-z0-9_]*",
        ),
        (
            "concepts",
            [{"concept_id": "Hazard", "name": "H"}, {"concept_id": "HAZARD", "name": "H"}],
            ":3: concepts[2].concept_id: non-scarce concept_id 'HAZARD' equals 'Hazard' "
            "ignoring case",
        ),
        (
            "concepts",
            [
                {"concept_id": "Hazard", "name": "H"},
                {"concept_id": "HAZARD", "name": "H", "scarce": True, "keywords": ["toxin"]},
            ],
            ":3: concepts[2].concept_id: scarce concept_id 'HAZARD' equals 'Hazard' ignoring case",
        ),
        (
            "concepts",
            [
                {"concept_id": "HAZARD", "name": "H", "scarce": True, "keywords": ["toxin"]},
                {"concept_id": "Hazard", "name": "H"},
            ],
            ":3: concepts[2].concept_id: non-scarce concept_id 'Hazard' equals 'HAZARD' "
            "ignoring case",
        ),
        (
            "concepts",
            [{"concept_id": "none", "name": "No concept"}],
            ":2: concepts[1].concept_id: 'none' is reserved as the no-concept sentinel NONE",
        ),
        (
            "rules",
            [{"rule_id": "R2", "text": "delete data", "source_ref": 28}],
            ":2: rules[1].source_ref: source_ref must be a string",
        ),
        (
            "rules",
            [{"rule_id": "R2", "text": " "}],
            ":2: rules[1].text: text must be a non-empty string",
        ),
        ("stub-script", [{"match": "assist"}], ":2: stub entry needs a string 'response'"),
        (
            "gold",
            [{"unit_ref": "a", "labels": ["R5"]}],
            ":2: duplicate unit_ref 'a' in gold file",
        ),
    ],
    ids=[
        "scarce", "keywords", "blank-keyword", "concept-id-pattern", "concept-id-case",
        "scarce-id-case", "scarce-id-case-first", "concept-id-none", "source-ref", "text",
        "stub-response", "gold-duplicate",
    ],
)
def test_rejected_jsonl_record_exits_2_naming_its_line_before_any_call(
    tmp_path, monkeypatch, capsys, flag, records, message
):
    text = "".join(json.dumps(r) + "\n" for r in [_VALID_FIRST_LINE[flag], *records])
    _assert_jsonl_rejected_before_any_call(tmp_path, monkeypatch, capsys, flag, text, message)


# Per JSONL input, a first record its loader rejects, and the message that names it.
_REJECTED_FIRST_LINE = {
    "rules": ({"rule_id": "X1", "text": "t"}, ":1: rules[0].rule_id: rule_id 'X1' must match"),
    "concepts": (
        {"concept_id": "C1", "name": "General", "scarce": "no"},
        ":1: concepts[0].scarce: scarce must be a boolean",
    ),
    "stub-script": ({"match": ""}, ":1: stub entry needs a string 'response'"),
    "gold": ({"unit_ref": "", "labels": []}, ":1: unit_ref must be a non-empty string"),
    "pred": ({"unit_ref": "a", "labels": "R1"}, ":1: labels of 'a' must be a list of strings"),
}


@pytest.mark.parametrize("flag", sorted(_REJECTED_FIRST_LINE))
def test_first_problem_in_file_order_is_named(tmp_path, monkeypatch, capsys, flag):
    # The loader rejects line 1 before the reader reaches the bad JSON on line 3.
    record, message = _REJECTED_FIRST_LINE[flag]
    text = json.dumps(record) + "\n" + json.dumps(_VALID_FIRST_LINE[flag]) + "\n{not json\n"
    _assert_jsonl_rejected_before_any_call(tmp_path, monkeypatch, capsys, flag, text, message)


_DOCUMENT_FLAGS = ("artifact", "input", "segment")


@pytest.mark.parametrize("flag", [*_DOCUMENT_FLAGS, *sorted(_VALID_FIRST_LINE)])
def test_input_that_is_not_utf8_exits_2_naming_its_file_before_any_call(
    tmp_path, monkeypatch, capsys, flag
):
    # Line 5 holds a byte that is not UTF-8. A document names that line; a JSONL file
    # is decoded a buffer ahead of its lines, so it names the file alone.
    first = "¶ Données." if flag in _DOCUMENT_FLAGS else json.dumps(_VALID_FIRST_LINE[flag])
    text = f"{first}\r\n\n{first}\n\n".encode("utf-8") + b"\xc3\xa9\xff\n"
    where = ":5: " if flag in _DOCUMENT_FLAGS else ": "
    message = f"{where}'utf-8' codec can't decode byte 0xff in position "
    _assert_jsonl_rejected_before_any_call(tmp_path, monkeypatch, capsys, flag, text, message)


def test_concept_model_without_concepts_exits_2_naming_the_file(tmp_path, monkeypatch, capsys):
    _assert_jsonl_rejected_before_any_call(
        tmp_path, monkeypatch, capsys, "concepts", '{"version": "v1"}\n',
        ": concepts: concept model is empty",
    )


class TestConfigPrecedence:
    def _run_check(self, tmp_path, *extra):
        prices = tmp_path / "prices.json"
        write_json(
            prices,
            {
                "env-model": {"input_per_1k": 1, "output_per_1k": 1},
                "file-model": {"input_per_1k": 1, "output_per_1k": 1},
                "flag-model": {"input_per_1k": 1, "output_per_1k": 1},
            },
        )
        out_dir = tmp_path / "out"
        code = run(
            *extra,
            "check",
            "--artifact", str(FIXTURES / "dpa_demo.txt"),
            "--format", "structured",
            "--rules", str(DATA / "gdpr_art28_demo.jsonl"),
            "--stub-script", str(FIXTURES / "stub_paragraph_aware.jsonl"),
            "--price-table", str(prices),
            "--out-dir", str(out_dir),
        )
        assert code == 0
        rows = [r for _, r in numbered_jsonl(out_dir / "costs.jsonl")]
        return rows[0]["model_name"]

    def test_env_is_weakest(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REGCHECK_MODEL", "env-model")
        assert self._run_check(tmp_path) == "env-model"

    def test_file_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REGCHECK_MODEL", "env-model")
        config = tmp_path / "config.json"
        write_json(config, {"model": "file-model"})
        assert self._run_check(tmp_path, "--config", str(config)) == "file-model"

    def test_flag_overrides_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REGCHECK_MODEL", "env-model")
        config = tmp_path / "config.json"
        write_json(config, {"model": "file-model"})
        # --model is a subcommand flag, so it goes after `check`.
        prices = tmp_path / "prices.json"
        write_json(prices, {"flag-model": {"input_per_1k": 1, "output_per_1k": 1}})
        out_dir = tmp_path / "out2"
        code = run(
            "--config", str(config),
            "check",
            "--artifact", str(FIXTURES / "dpa_demo.txt"),
            "--format", "structured",
            "--rules", str(DATA / "gdpr_art28_demo.jsonl"),
            "--stub-script", str(FIXTURES / "stub_paragraph_aware.jsonl"),
            "--model", "flag-model",
            "--price-table", str(prices),
            "--out-dir", str(out_dir),
        )
        assert code == 0
        rows = [r for _, r in numbered_jsonl(out_dir / "costs.jsonl")]
        assert rows[0]["model_name"] == "flag-model"

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        write_json(config, {"modle": "typo"})
        code = run(
            "--config", str(config),
            "segment",
            "--input", str(FIXTURES / "sfcr_sample.txt"),
            "--format", "structured",
        )
        assert code == 2
