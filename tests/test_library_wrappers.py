"""The library wrappers that neither `check` nor `classify` runs, each pinned to the call
behind it, which the CLI runs and the other tests call. No other test calls a wrapper, so
removing the wrappers removes this file and nothing else."""

from __future__ import annotations

import pytest
from conftest import DATA, FIXTURES, read_doc

from regcheck import classify, compliance, corpus, llm, pipeline, storage
from regcheck.corpus import LIST, PARAGRAPH, PARAGRAPH_LEVEL, SENTENCE, Block, UnitTable
from regcheck.llm import (
    CostTotals, StubBackend, Usage, cost_row, load_price_table, load_stub_script,
)
from regcheck.storage import atomic_write_chunks, json_chunks, jsonl_line
from regcheck.taxonomy import load_concept_model, load_ruleset

DPA = (FIXTURES / "dpa_demo.txt").read_text(encoding="utf-8")
FOOD = (FIXTURES / "food_corpus.txt").read_text(encoding="utf-8")
RULES = load_ruleset(DATA / "gdpr_art28_demo.jsonl")
MODEL = load_concept_model(DATA / "food_safety_concepts.jsonl")
LIST_BLOCK = Block(
    LIST, 3, header="The processor shall:", items=("(a) assist: (i) once; (ii) twice;", "(b) stop.")
)
# Its first paragraph is split into one passage per sentence at a budget of 8 tokens.
SPLIT = "The processor shall assist. It shall keep records. It shall delete data.\n\nShort."
RECORDS = [{"unit_ref": "dpa:p0", "labels": ["R5"]}, {"Données": None, "n": [1, 2.5]}]


def _outcome(fn):
    """What `fn()` returns, or the type and message of the error it raises."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


def _doc():
    return read_doc(DPA, "structured", doc_id="dpa")


def _parse_document(tmp_path):
    doc = corpus.parse_document(DPA, "structured", doc_id="dpa")
    got = (type(doc) is corpus.SourceDocument, doc.doc_id, doc.title, doc.blocks)
    want = _doc()
    return got, (True, want.doc_id, want.title, want.blocks)


def _check_units():
    return list(UnitTable(_doc().blocks, "dpa", SENTENCE, 4096, True).check_units())


def _run_compliance(tmp_path):
    stub = lambda: StubBackend(load_stub_script(FIXTURES / "stub_paragraph_aware.jsonl"))
    template = compliance.load_template()
    got = pipeline.run_compliance(_check_units(), RULES, stub(), template, parallelism=2)
    want = pipeline.compliance_iter(_check_units(), RULES, stub(), template, parallelism=2)
    return got, list(want)


def _provisions():
    return list(read_doc(FOOD, "structured", doc_id="food").table())


def _classify_provisions(tmp_path):
    stub = lambda: StubBackend(load_stub_script(FIXTURES / "stub_classify.jsonl"))
    got = pipeline.classify_provisions(_provisions(), MODEL, stub(), stem=True, parallelism=2)
    want = pipeline.classify_iter(_provisions(), MODEL, stub(), stem=True, parallelism=2)
    return got, list(want)


def _classify_keywords(tmp_path):
    got = [
        classify.classify_keywords(p, MODEL, stem) for p in _provisions() for stem in (False, True)
    ]
    want = [
        classify.LabelSet.of(classify._keyword_index(MODEL, stem).match(p.text), "keyword")
        for p in _provisions()
        for stem in (False, True)
    ]
    return got, want


def _cost_ledger(tmp_path):
    prices = load_price_table()
    usages = [Usage("stub-model", 1000, 500, 0.25), Usage("stub-model", 10, 5, 0.5, cached=True)]
    ledger = llm.CostLedger(prices)
    got = [ledger.record(u) for u in usages], ledger.records, ledger.aggregate(), ledger.to_jsonl()
    totals = CostTotals()
    rows = [totals.add(cost_row(prices, u)) for u in usages]
    return got, (rows, rows, totals.summary(), "".join(map(jsonl_line, rows)))


def _written(tmp_path, write, chunks) -> tuple[bytes, bytes]:
    """The bytes that the wrapper `write` puts in a file, and those of `chunks`."""
    write(tmp_path / "wrapper")
    atomic_write_chunks(tmp_path / "behind", chunks)
    return (tmp_path / "wrapper").read_bytes(), (tmp_path / "behind").read_bytes()


PARAGRAPH_BLOCK = Block(PARAGRAPH, 0, text="prose")
PASSAGE = list(_doc().table(PARAGRAPH_LEVEL, 4096))[1]
PINS = {
    "parse_document": _parse_document,
    "extract_provisions": lambda tmp_path: (
        corpus.extract_provisions(_doc()), list(_doc().table())
    ),
    "expand_list_items": lambda tmp_path: (
        corpus.expand_list_items(LIST_BLOCK, "d"), list(UnitTable([LIST_BLOCK], "d", SENTENCE))
    ),
    "expand_list_items-rejects-a-paragraph": lambda tmp_path: (
        _outcome(lambda: corpus.expand_list_items(PARAGRAPH_BLOCK, "d")),
        (ValueError, "expected a list block, got 'paragraph'"),
    ),
    "chunk_paragraphs": lambda tmp_path: (
        corpus.chunk_paragraphs(read_doc(SPLIT), 8), list(read_doc(SPLIT).table(PARAGRAPH_LEVEL, 8))
    ),
    "compliance_units": lambda tmp_path: (
        pipeline.compliance_units(_doc(), SENTENCE, 4096, context_on=True), _check_units()
    ),
    "run_compliance": _run_compliance,
    "classify_provisions": _classify_provisions,
    "classify_keywords": _classify_keywords,
    "build_prompt": lambda tmp_path: (
        compliance.build_prompt(PASSAGE, RULES, None, "Context."),
        compliance.prompt_builder(RULES, compliance.load_template())(PASSAGE, "Context."),
    ),
    "build_classification_prompt": lambda tmp_path: (
        classify.build_classification_prompt(PASSAGE, MODEL),
        classify.classification_prompter(MODEL, classify.load_classification_template())(PASSAGE),
    ),
    "default_template": lambda tmp_path: (
        compliance.default_template(), compliance.load_template()
    ),
    "default_classification_template": lambda tmp_path: (
        classify.default_classification_template(), classify.load_classification_template()
    ),
    "CostLedger": _cost_ledger,
    "default_price_table": lambda tmp_path: (llm.default_price_table(), load_price_table()),
    "write_json": lambda tmp_path: _written(
        tmp_path, lambda path: storage.write_json(path, RECORDS), json_chunks(RECORDS)
    ),
    "write_jsonl": lambda tmp_path: _written(
        tmp_path, lambda path: storage.write_jsonl(path, RECORDS), map(jsonl_line, RECORDS)
    ),
}


@pytest.mark.parametrize("name", list(PINS))
def test_wrapper_gives_what_the_call_behind_it_gives(tmp_path, name):
    got, want = PINS[name](tmp_path)
    assert got == want
