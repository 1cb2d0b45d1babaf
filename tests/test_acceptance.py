"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Everything runs offline: stub backends and a local mock server only.
"""

from __future__ import annotations

import difflib
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from regcheck.cli import main
from regcheck.compliance import parse_response
from regcheck.corpus import (
    Block,
    SourceDocument,
    block_text,
    chunk_paragraphs,
    estimate_tokens,
    expand_list_items,
    extract_provisions,
    parse_document,
    split_text,
)
from regcheck.errors import ParseError
from regcheck.evaluation import (
    GoldRecord,
    confusion,
    load_gold,
    metrics,
)
from regcheck.llm import CostLedger, ModelPrice, StubBackend, StubEntry, ChatMessage
from regcheck.storage import numbered_jsonl
from regcheck.taxonomy import Ruleset, RuleSpec

FIXTURES = Path(__file__).parent / "fixtures"
DATA = Path(__file__).parent.parent / "src" / "regcheck" / "data"

# The system-message instruction text the bundled template must carry verbatim.
TEMPLATE_VERBATIM = (
    "You are a legal expert trained to identify applicable {Compliance Rules} "
    "based on a given {text} within its specific {context}. When provided with "
    "the {text} and its {context}, your response should only include the rule "
    "identifier (e.g., 'R5') if applicable. If there is no direct connection "
    "to any Compliance Rule within the context provided, respond with 'R99'. "
    "Follow this format strictly. Then, provide your rationale for the decision."
)


def _ok(n: int, message: str) -> None:
    print(f"\nACCEPTANCE {n} PASS: {message}")


def test_criterion_1_segmentation_gold_suite(gold_doc):
    started = time.perf_counter()
    predicted = extract_provisions(gold_doc)
    elapsed = time.perf_counter() - started

    gold = [r for _, r in numbered_jsonl(FIXTURES / "sfcr_gold_sentences.jsonl")]
    assert len(gold) >= 50
    assert sum(1 for b in gold_doc.blocks if b.kind == "list") >= 5

    # Exact-boundary match per block via longest-common-subsequence alignment.
    matched = 0
    for block in gold_doc.blocks:
        want = [g["text"] for g in gold if g["block"] == block.index]
        got = [p.text for p in predicted if p.block == block.index]
        sm = difflib.SequenceMatcher(a=want, b=got, autojunk=False)
        matched += sum(m.size for m in sm.get_matching_blocks())
    score = matched / len(gold)
    assert score >= 0.95, f"exact-boundary match {score:.3f} below 0.95"

    # List-prefix law on 100% of expanded provisions.
    for block in gold_doc.blocks:
        if block.kind != "list":
            continue
        for prov in expand_list_items(block, gold_doc.doc_id):
            assert prov.text.startswith(block.header)
            assert prov.origin == "list_expanded"

    assert elapsed < 1.0, f"segmentation took {elapsed:.3f}s"
    _ok(1, f"exact-boundary match {score:.1%} on {len(gold)} gold sentences, "
           f"prefix law 100%, runtime {elapsed * 1000:.0f} ms")


def test_criterion_2_chunker_safety_property():
    rng = random.Random(1234)

    def word():
        return "".join(rng.choice("abcdefghinorst") for _ in range(rng.randint(2, 9)))

    def sentence():
        words = [word() for _ in range(rng.randint(3, 9))]
        return (" ".join(words)).capitalize() + "."

    def document(i: int) -> SourceDocument:
        blocks = []
        for bi in range(rng.randint(1, 5)):
            if rng.random() < 0.3:
                items = tuple(
                    f"({letter}) {word()} {word()};"
                    for letter in "abcde"[: rng.randint(1, 4)]
                )
                blocks.append(Block("list", bi, header=word().capitalize() + ":", items=items))
            else:
                text = " ".join(sentence() for _ in range(rng.randint(1, 6)))
                blocks.append(Block("paragraph", bi, text=text))
        return SourceDocument(f"doc{i}", "", tuple(blocks))

    started = time.perf_counter()
    checked = 0
    for i in range(1000):
        doc = document(i)
        longest = max(
            estimate_tokens(s)
            for b in doc.blocks
            for s in split_text(block_text(b))
        )
        budget = longest + rng.randint(0, 30)
        passages = chunk_paragraphs(doc, budget)
        for p in passages:
            assert estimate_tokens(p.text) <= budget
        normalize = lambda text: " ".join(text.split())
        assert normalize(" ".join(p.text for p in passages)) == normalize(
            " ".join(block_text(b) for b in doc.blocks)
        )
        checked += len(passages)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"chunker property run took {elapsed:.1f}s"
    _ok(2, f"1000 random documents, {checked} passages within budget, "
           f"concatenation reproduces source; runtime {elapsed:.1f}s")


def test_criterion_3_prompt_byte_exactness(dpa_doc, fixtures):
    from regcheck.compliance import build_prompt, default_template
    from regcheck.taxonomy import load_ruleset

    passages = chunk_paragraphs(dpa_doc, 4096)
    rules = load_ruleset(fixtures / "rules_small.jsonl")
    bundle = build_prompt(passages[1], rules, default_template())
    got = {
        "passage_ref": bundle.passage_ref,
        "ruleset_ref": bundle.ruleset_ref,
        "messages": [{"role": m.role, "content": m.content} for m in bundle.messages],
    }
    golden_bytes = (fixtures / "golden_prompt.json").read_text(encoding="utf-8")
    from regcheck.storage import json_chunks

    assert "".join(json_chunks(got)) == golden_bytes  # byte-for-byte
    system = bundle.messages[0].content
    assert TEMPLATE_VERBATIM in system
    assert "respond with 'R99'" in system
    _ok(3, "golden prompt bundle byte-identical; system message carries the "
           "template verbatim including the R99 instruction")


def test_criterion_4_parser_round_trip():
    rules = Ruleset(
        rules=tuple(
            RuleSpec(rid, f"rule text {rid}") for rid in ("R1", "R2", "R5", "R7", "R12")
        ),
        name="oracle",
    )
    table = [r for _, r in numbered_jsonl(FIXTURES / "parser_oracle.jsonl")]
    assert len(table) == 100
    failures = []
    for i, case in enumerate(table):
        raw = case["raw"]
        if case.get("error"):
            try:
                parse_response(raw, rules)
            except ParseError:
                continue
            failures.append((i, raw, "expected ParseError"))
        else:
            try:
                ids, rationale = parse_response(raw, rules)
            except ParseError as exc:
                failures.append((i, raw, f"unexpected ParseError: {exc}"))
                continue
            if ids != frozenset(case["ids"]) or rationale != case["rationale"]:
                failures.append((i, raw, f"got ({sorted(ids)}, {rationale!r})"))
    assert not failures, failures[:5]
    # R99 exclusivity is exercised by the sentinel-plus-id rows of the table.
    sentinel_mixed = [c for c in table if not c.get("error") and c["ids"] == [] and "R5" in c["raw"]]
    assert sentinel_mixed
    _ok(4, "100-case oracle table matches exactly, R99 exclusivity enforced")


def test_criterion_5_metrics_oracle_equivalence():
    rng = random.Random(99)
    started = time.perf_counter()
    for trial in range(200):
        n_units = rng.randint(1, 20)
        drawn = [f"L{i}" for i in range(rng.randint(1, 5))]
        gold = []
        predicted = {}
        for u in range(n_units):
            ref = f"u{u}"
            # Skewed draws so zero-denominator cases (never-predicted or
            # never-true labels) occur regularly.
            density = rng.choice([0.0, 0.2, 0.5, 0.9])
            gold.append(GoldRecord(ref, frozenset(l for l in drawn if rng.random() < density)))
            predicted[ref] = frozenset(l for l in drawn if rng.random() < density)
        # The label universe is the labels seen in gold or predictions.
        labels = sorted({l for r in gold for l in r.gold_labels}.union(*predicted.values()))
        n_labels = len(labels)

        counts = confusion(predicted, gold)
        report = metrics(counts)

        # Exhaustive enumeration oracle with exact rational arithmetic.
        pooled_tp = pooled_fp = pooled_fn = pooled_tn = 0
        per_label_expect = {}
        for label in labels:
            tp = fp = fn = tn = 0
            for record in gold:
                p = label in predicted[record.unit_ref]
                g = label in record.gold_labels
                tp += p and g
                fp += p and not g
                fn += g and not p
                tn += not p and not g
            pooled_tp += tp
            pooled_fp += fp
            pooled_fn += fn
            pooled_tn += tn
            precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
            recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
            f1 = (
                2 * precision * recall / (precision + recall)
                if precision + recall
                else Fraction(0)
            )
            accuracy = Fraction(tp + tn, n_units)
            per_label_expect[label] = (precision, recall, f1, accuracy)

        assert list(report.per_label) == labels
        for label in labels:
            got = report.per_label[label]
            want = per_label_expect[label]
            for g, w in zip((got.precision, got.recall, got.f1, got.accuracy), want):
                assert abs(g - float(w)) <= 1e-9

        mp = Fraction(pooled_tp, pooled_tp + pooled_fp) if pooled_tp + pooled_fp else Fraction(0)
        mr = Fraction(pooled_tp, pooled_tp + pooled_fn) if pooled_tp + pooled_fn else Fraction(0)
        mf = 2 * mp * mr / (mp + mr) if mp + mr else Fraction(0)
        ma = Fraction(pooled_tp + pooled_tn, n_units * n_labels) if labels else Fraction(0)
        assert abs(report.micro.precision - float(mp)) <= 1e-9
        assert abs(report.micro.recall - float(mr)) <= 1e-9
        assert abs(report.micro.f1 - float(mf)) <= 1e-9
        assert abs(report.micro.accuracy - float(ma)) <= 1e-9

        macro_expect = [
            sum(float(per_label_expect[l][k]) for l in labels) / n_labels if labels else 0.0
            for k in range(4)
        ]
        got_macro = (
            report.macro.precision,
            report.macro.recall,
            report.macro.f1,
            report.macro.accuracy,
        )
        for g, w in zip(got_macro, macro_expect):
            assert abs(g - w) <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"metrics oracle run took {elapsed:.1f}s"
    _ok(5, f"200 random instances equal the brute-force oracle within 1e-9; "
           f"runtime {elapsed:.1f}s")


def test_criterion_6_rq4_replay(tmp_path):
    # End-to-end: same artifact, same ruleset, two stub scripts.
    def check(granularity: str, script: str, out: Path) -> float:
        code = main(
            [
                "check",
                "--artifact", str(FIXTURES / "dpa_demo.txt"),
                "--format", "structured",
                "--rules", str(DATA / "gdpr_art28_demo.jsonl"),
                "--stub-script", str(FIXTURES / script),
                "--granularity", granularity,
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        predicted = {
            r["unit_ref"]: frozenset(r["labels"])
            for _, r in numbered_jsonl(out / "findings.jsonl")
        }
        counts = confusion(predicted, load_gold(FIXTURES / f"dpa_gold_{granularity}.jsonl"))
        return counts.share(counts.overlap)

    sentence_acc = check("sentence", "stub_sentence_blind.jsonl", tmp_path / "sent")
    paragraph_acc = check("paragraph", "stub_paragraph_aware.jsonl", tmp_path / "para")
    assert paragraph_acc > sentence_acc, (sentence_acc, paragraph_acc)
    _ok(6, f"paragraph accuracy {paragraph_acc:.2f} > sentence accuracy {sentence_acc:.2f}")


def test_criterion_7_determinism_and_cache_law(tmp_path):
    argv = lambda out, extra=(): [
        "check",
        "--artifact", str(FIXTURES / "dpa_demo.txt"),
        "--format", "structured",
        "--rules", str(DATA / "gdpr_art28_demo.jsonl"),
        "--stub-script", str(FIXTURES / "stub_paragraph_aware.jsonl"),
        "--out-dir", str(out),
        *extra,
    ]
    outputs = ("report.json", "report.md", "findings.jsonl")

    def snapshot(out: Path) -> dict[str, bytes]:
        return {name: (out / name).read_bytes() for name in outputs}

    # Two consecutive runs: byte-identical reports.
    assert main(argv(tmp_path / "a")) == 0
    assert main(argv(tmp_path / "b")) == 0
    base = snapshot(tmp_path / "a")
    assert snapshot(tmp_path / "b") == base

    # Cache on (cold, then warm): no output byte changes, only cost totals.
    cache = ("--cache-dir", str(tmp_path / "cache"))
    assert main(argv(tmp_path / "cold", cache)) == 0
    assert main(argv(tmp_path / "warm", cache)) == 0
    assert snapshot(tmp_path / "cold") == base
    assert snapshot(tmp_path / "warm") == base
    cold = json.loads((tmp_path / "cold" / "costs_summary.json").read_text())
    warm = json.loads((tmp_path / "warm" / "costs_summary.json").read_text())
    assert cold["cache_hits"] == 0 and cold["monetary_cost"] > 0
    assert warm["cache_hits"] == warm["calls"]
    assert warm["monetary_cost"] == 0
    assert warm["latency_s"] == 0

    # The same at parallelism 8, cold and warm.
    wide = ("--parallelism", "8", "--cache-dir", str(tmp_path / "cache8"))
    assert main(argv(tmp_path / "cold8", wide)) == 0
    assert main(argv(tmp_path / "warm8", wide)) == 0
    assert snapshot(tmp_path / "cold8") == base
    assert snapshot(tmp_path / "warm8") == base

    # 10-call fixture: ledger matches the hand-computed spreadsheet to the cent.
    # Call i has prompt 100 + 10i tokens, completion 5i tokens at (0.5, 1.5)/1K:
    # cost_i = 0.05 + 0.0125 * i.
    spreadsheet = [
        (1, 110, 5, 0.0625),
        (2, 120, 10, 0.0750),
        (3, 130, 15, 0.0875),
        (4, 140, 20, 0.1000),
        (5, 150, 25, 0.1125),
        (6, 160, 30, 0.1250),
        (7, 170, 35, 0.1375),
        (8, 180, 40, 0.1500),
        (9, 190, 45, 0.1625),
        (10, 200, 50, 0.1750),
    ]
    # Call i's user text is 40i "u"s; rules go longest first, so the first one
    # contained in it is call i's own.
    backend = StubBackend(
        [
            StubEntry(match="u" * (40 * i), response="r" * (20 * i))
            for i, *_ in reversed(spreadsheet)
        ]
    )
    ledger = CostLedger({"stub-model": ModelPrice(0.5, 1.5)})
    for i, *_ in spreadsheet:
        messages = [ChatMessage("system", "s" * 400), ChatMessage("user", "u" * (40 * i))]
        _, usage = backend.complete(messages)
        ledger.record(usage)
    for record, (_, want_prompt, want_completion, want_cost) in zip(
        ledger.records, spreadsheet
    ):
        assert record["prompt_tokens"] == want_prompt
        assert record["completion_tokens"] == want_completion
        assert abs(record["monetary_cost"] - want_cost) <= 1e-9
    totals = ledger.aggregate()
    assert round(totals["monetary_cost"], 2) == 1.19  # sum = 1.1875
    assert abs(totals["monetary_cost"] - 1.1875) <= 1e-9
    assert totals["prompt_tokens"] == 1550
    assert totals["completion_tokens"] == 275
    _ok(7, "consecutive runs byte-identical; cache changed no output bytes; "
           "10-call ledger matches the spreadsheet to the cent")


def test_criterion_8_classification_replay(tmp_path):
    out = tmp_path / "labels.jsonl"
    code = main(
        [
            "classify",
            "--input", str(FIXTURES / "food_corpus.txt"),
            "--format", "structured",
            "--concepts", str(DATA / "food_safety_concepts.jsonl"),
            "--stub-script", str(FIXTURES / "stub_classify.jsonl"),
            "--out", str(out),
        ]
    )
    assert code == 0
    golden = (FIXTURES / "golden_labels.jsonl").read_bytes()
    assert out.read_bytes() == golden  # byte-for-byte
    records = [r for _, r in numbered_jsonl(out)]
    provenances = {src for r in records for src in r["provenance"].values()}
    assert provenances == {"llm", "keyword"}  # both branches fused into the output
    assert any(len(r["labels"]) == 2 for r in records)
    _ok(8, "classify replay reproduces the golden labels file byte-for-byte, "
           "with fused llm + keyword provenance")
