"""One copy of the input: `segment`, `classify` and `check` read a document a batch of
lines at a time, through one reader that yields each block as it closes; none of them
builds a document or holds a block past its units; splitting a paragraph holds nothing
beside its sentences; and findings share their rule-id sets."""

from __future__ import annotations

import gc
import random
import tracemalloc
import weakref

import pytest

import regcheck.cli as cli
import regcheck.corpus as corpus
import regcheck.pipeline as pipeline
import regcheck.storage as storage
from regcheck.cli import main
from regcheck.corpus import (
    PARAGRAPH_LEVEL, SENTENCE, Block, Unit, extract_provisions, parse_document,
)
from regcheck.llm import BackendConfig, Usage
from regcheck.pipeline import CheckUnit, run_compliance
from regcheck.taxonomy import RuleSpec, Ruleset

# Every line separator of `str.splitlines`.
SEPARATORS = (
    "\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"
)
LINES = (
    "# Title", "#", "¶ The processor shall assist.", "¶ Données personnelles", "¶ ",
    "* The processor shall:", "- keep records;", "- 个人数据 € 5", "(a) first item",
    "1. numbered", "continued text", "Art. 5 applies.", "", " ", "\t",
)


def _outcome(fn):
    """What `fn()` returns, or the type and message of the error it raises."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


def _config(fmt: str) -> cli.RunConfig:
    return cli.RunConfig(BackendConfig(), format=fmt)


def _assert_read_as_text(path):
    text = path.read_text(encoding="utf-8")
    assert list(storage.text_lines(str(path))) == text.splitlines(), repr(text)
    parsed = 0
    for fmt in ("plain", "structured"):
        got = _outcome(lambda: list(cli._units(str(path), _config(fmt), "d", SENTENCE)))
        want = _outcome(lambda: extract_provisions(parse_document(text, fmt, doc_id="d")))
        if isinstance(want, tuple):  # the reader's errors name the file
            want = (want[0], f"{path}: {want[1]}")
        assert got == want, repr(text)
        parsed += not isinstance(got, tuple)
    return parsed


def _random_text(rng: random.Random) -> str:
    text = "\ufeff" if rng.random() < 0.1 else ""  # a BOM is text: `read_text` keeps it
    for _ in range(rng.randint(0, 12)):
        text += rng.choice(LINES) + rng.choice(SEPARATORS)
    return text if rng.random() < 0.7 else text + rng.choice(LINES)  # no final separator


class TestReadDocument:
    def test_reader_gives_the_lines_and_document_of_the_text(self, tmp_path, fixtures):
        paths = sorted(fixtures.iterdir())
        for name, text in [("empty", ""), ("unterminated", "¶ One.\n\n¶ Two.")]:
            paths.append(tmp_path / f"{name}.txt")
            paths[-1].write_bytes(text.encode("utf-8"))
        for path in paths:
            _assert_read_as_text(path)

        rng = random.Random(20261019)
        path, parsed = tmp_path / "random.txt", 0
        for _ in range(1200):
            path.write_bytes(_random_text(rng).encode("utf-8"))
            parsed += _assert_read_as_text(path)
        assert parsed >= 200  # the texts reach documents, not only errors

    # A structured run ends before each block's marker line, not only at a blank line, so a
    # file with no blank line is read one block at a time too.
    @pytest.mark.parametrize("between", ["\n", ""], ids=["blank-line-between-blocks", "none"])
    def test_read_holds_no_copy_of_the_file(self, tmp_path, between):
        rng = random.Random(5)
        words = ("processor", "shall", "Données", "controller", "record", "Art. 5", "€")
        blocks = []
        while sum(map(len, blocks)) < 2_500_000:
            lines = [" ".join(rng.choices(words, k=12)) + "." for _ in range(rng.randint(1, 6))]
            if rng.random() < 0.3:
                blocks.append("* The processor shall:\n" + "".join(f"- {l}\n" for l in lines))
            else:
                blocks.append("¶ " + "\n".join(lines) + "\n")
        path = tmp_path / "artifact.txt"
        path.write_text("# Large artifact\n\n" + between.join(blocks), encoding="utf-8")
        size = path.stat().st_size

        tracemalloc.start()
        try:
            read = cli._units(str(path), _config("structured"), "d", PARAGRAPH_LEVEL)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(read.texts) == len(blocks)  # one passage per block: no budget splits one
        # The whole text, its bytes or its list of lines would each be about `size`.
        assert peak - kept < size / 10, (peak - kept, size)


def _check(fixtures, data_dir, tmp_path):
    return [
        "check", "--artifact", str(fixtures / "dpa_demo.txt"), "--format", "structured",
        "--rules", str(data_dir / "gdpr_art28_demo.jsonl"),
        "--stub-script", str(fixtures / "stub_paragraph_aware.jsonl"),
        "--out-dir", str(tmp_path / "out"),
    ]


def _classify(fixtures, data_dir, tmp_path):
    return [
        "classify", "--input", str(fixtures / "food_corpus.txt"), "--format", "structured",
        "--concepts", str(data_dir / "food_safety_concepts.jsonl"),
        "--stub-script", str(fixtures / "stub_classify.jsonl"),
        "--out", str(tmp_path / "labels.jsonl"),
    ]


def _segment(fixtures, data_dir, tmp_path):
    return [
        "segment", "--input", str(fixtures / "dpa_demo.txt"), "--format", "structured",
        "--out", str(tmp_path / "units.jsonl"),
    ]


@pytest.mark.parametrize(
    "argv,module,stage",
    [
        (_check, pipeline, "compliance_iter"),
        (_classify, pipeline, "classify_iter"),
        (_segment, cli, "_emit"),
    ],
    ids=["check", "classify", "segment"],
)
def test_document_is_freed_before_the_model_stage(
    monkeypatch, fixtures, data_dir, tmp_path, argv, module, stage
):
    # Each subcommand turns each block into its units as it is read: it builds no
    # document, and when its model stage (or, for `segment`, its write) starts, no
    # block is left.
    refs, seen = [], []
    build, run = corpus.SourceDocument, getattr(module, stage)

    def building(*args, **kwargs):
        doc = build(*args, **kwargs)
        refs.append(weakref.ref(doc))
        return doc

    def blocks() -> int:
        gc.collect()
        return sum(isinstance(o, Block) for o in gc.get_objects())

    def running(*args, **kwargs):
        seen.append(([r() is not None for r in refs], blocks() - before))
        return run(*args, **kwargs)

    monkeypatch.setattr(corpus, "SourceDocument", building)
    monkeypatch.setattr(module, stage, running)
    before = blocks()  # those of other tests' documents
    assert main(argv(fixtures, data_dir, tmp_path)) == 0
    assert seen == [([], 0)]  # no document was built, and no block is left


def _paragraph(n: int) -> str:
    """A paragraph of `n` sentences, with space around it and an abbreviation in each."""
    return "  " + " ".join(f"Clause {k} of Art. 5 applies." for k in range(n)) + " \n"


@pytest.mark.parametrize("n", [2000, 8000], ids=["1x", "4x"])
def test_split_text_holds_no_list_beside_its_sentences(n):
    # What splitting a paragraph takes beyond its input and its output: the spans are found
    # one at a time, so it builds no list of breaks or spans (~150 B a sentence) and no
    # stripped copy of the paragraph or of a sentence.
    text = _paragraph(n)
    corpus.split_text(text)  # compiles and caches what a first call builds
    tracemalloc.start()
    try:
        sentences = corpus.split_text(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sentences) == n and sentences[-1] == f"Clause {n - 1} of Art. 5 applies."
    assert peak - held < 16_384, (peak, held)


RULES = Ruleset((RuleSpec("R1", "one"), RuleSpec("R2", "two"), RuleSpec("R3", "three")), "r")
# One answer per unit, in turn: equal sets, the same set in another order, R99,
# an answer that fails to parse, and another set.
ANSWERS = ("R1. Yes.", "R2 and R1: both.", "R99. None.", "No identifier.", "R1, R2. Both.", "R3.")


class _ByIndex:
    def complete(self, messages):
        index = int(messages[-1].content.rsplit(" ", 1)[1])
        answer = ANSWERS[index % len(ANSWERS)]
        return answer, Usage("stub-model", 1, 1)


@pytest.mark.parametrize("parallelism", [1, 4])
def test_findings_with_equal_rule_ids_share_one_set(parallelism):
    units = [CheckUnit(Unit(f"d:p{i}", f"Unit {i}", i, "passage")) for i in range(60)]
    findings = run_compliance(units, RULES, _ByIndex(), parallelism=parallelism)
    by_set = {}
    for f in findings:
        by_set.setdefault(f.rule_ids, set()).add(id(f.rule_ids))
    assert set(by_set) == {frozenset(), *map(frozenset, ({"R1"}, {"R1", "R2"}, {"R3"}))}
    assert {f.parse_error is None for f in findings if not f.rule_ids} == {True, False}
    assert all(len(ids) == 1 for ids in by_set.values()), by_set
