"""Response parsers on random strings: only ParseError escapes, and the results
equal those of reference copies of the earlier parsers, which rebuilt their
id sets on every call."""

from __future__ import annotations

import random
import re

import pytest

from regcheck.classify import _NONE_TOKEN, parse_concept_response
from regcheck.compliance import _RULE_TOKEN, parse_response
from regcheck.corpus import first_sentence_end, sentence_spans
from regcheck.errors import ParseError
from regcheck.storage import numbered_jsonl
from regcheck.taxonomy import NO_CONCEPT, NOT_APPLICABLE, load_concept_model, load_ruleset

_REF_RULE_TOKEN = re.compile(r"\bR(\d+)\b")
_REF_LEADING_IDS = re.compile(r"^\s*(?:R\d+\b[\s,;]*(?:and\s+)?)+[.:–-]?\s*")


def _ref_parse_response(raw, rules):
    tokens = [(m.start(), f"R{m.group(1)}") for m in _REF_RULE_TOKEN.finditer(raw)]
    if not tokens:
        raise ParseError("no rule identifier token in response")
    if any(tok == NOT_APPLICABLE for _, tok in tokens):
        ids = frozenset()
    else:
        spans = sentence_spans(raw)
        first_end = spans[0][1] if spans else len(raw)
        leading = {tok for pos, tok in tokens if pos < first_end}
        if not leading:
            raise ParseError("response does not lead with a rule identifier")
        unknown = sorted(leading - frozenset(r.rule_id for r in rules.rules))
        if unknown:
            raise ParseError(f"unknown rule id(s) {unknown}")
        ids = frozenset(leading)
    rationale = _REF_LEADING_IDS.sub("", raw, count=1).strip()
    return ids, rationale


def _ref_parse_concept_response(raw, model):
    vocab = {cid.lower(): cid for cid in model.non_scarce_ids()}
    if not raw.strip():
        raise ParseError("empty classification response")
    if re.search(r"\bNONE\b", raw):
        return frozenset()
    spans = sentence_spans(raw)
    first_end = spans[0][1] if spans else len(raw)
    found = set()
    for m in re.finditer(r"[A-Za-z][A-Za-z0-9_]*", raw[:first_end]):
        cid = vocab.get(m.group(0).lower())
        if cid is not None:
            found.add(cid)
    if not found:
        raise ParseError(f"no concept id or {NO_CONCEPT} marker found in response")
    return frozenset(found)


_PIECES = (
    "R1", "R2", "R5", "R7", "R07", "R42", "R99", "R123", "R", "R1x", "_R2", "xR3",
    "NONE", "none", "NONEx", "Traceability", "traceability", "LABELLING",
    "Pathogen", "Hygiene", "Allergen", "and", "The", "processor", "shall",
    ".", "..", "!", "?", "?!", ",", ";", ":", "–", "-", "\"", "'", "“", "(", ")",
    "[", "]", "s.", "ss.", "Art.", "art.", "No.", "e.g.", "i.e.", "para.", "Para.",
    "3", "28(3)", "x", "A", "é", "Ω", " ", " ", " ", "  ", "\n", "\n\n", "\t", " ",
)


def random_response(rng: random.Random) -> str:
    return "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 24)))


def outcome(parse, *args):
    try:
        return "ok", parse(*args)
    except ParseError as exc:
        return "error", str(exc)


@pytest.fixture(scope="module")
def rulesets(fixtures, data_dir):
    return [
        load_ruleset(fixtures / "rules_small.jsonl"),
        load_ruleset(data_dir / "gdpr_art28_demo.jsonl"),
    ]


@pytest.fixture(scope="module")
def model(data_dir):
    return load_concept_model(data_dir / "food_safety_concepts.jsonl")


def test_parse_response_fuzz(rulesets):
    rng = random.Random(61)
    for _ in range(4000):
        raw = random_response(rng)
        for rules in rulesets:
            assert outcome(parse_response, raw, rules) == outcome(
                _ref_parse_response, raw, rules
            ), raw


def test_parse_concept_response_fuzz(model):
    rng = random.Random(67)
    for _ in range(4000):
        raw = random_response(rng)
        assert outcome(parse_concept_response, raw, model) == outcome(
            _ref_parse_concept_response, raw, model
        ), raw


# Each token pattern opens on its first letter and checks the character before it
# after that letter; the reference opens on `\b`. Both find the same matches.
@pytest.mark.parametrize(
    "pattern, reference",
    [(_RULE_TOKEN, _REF_RULE_TOKEN), (_NONE_TOKEN, re.compile(rf"\b{NO_CONCEPT}\b"))],
    ids=["rule-token", "none-token"],
)
def test_token_patterns_match_their_reference(pattern, reference):
    rng = random.Random(73)
    for _ in range(4000):
        raw = random_response(rng)
        found = [(m.start(), m.groups()) for m in pattern.finditer(raw)]
        assert found == [(m.start(), m.groups()) for m in reference.finditer(raw)], raw


def test_fuzz_reaches_every_outcome(rulesets, model):
    # The generator is only useful if it drives both parsers down every branch.
    rng = random.Random(61)
    rule_kinds, concept_kinds = set(), set()
    for _ in range(4000):
        raw = random_response(rng)
        result = outcome(parse_response, raw, rulesets[0])
        rule_kinds.add(result[1].split(" ")[0] if result[0] == "error" else bool(result[1][0]))
        result = outcome(parse_concept_response, raw, model)
        concept_kinds.add(result[1].split(" ")[0] if result[0] == "error" else bool(result[1]))
    assert rule_kinds == {"no", "response", "unknown", True, False}
    assert concept_kinds == {"empty", "no", True, False}


def test_first_sentence_end_is_the_first_span_end(fixtures):
    rng = random.Random(71)
    oracle = [row["raw"] for _, row in numbered_jsonl(fixtures / "parser_oracle.jsonl")]
    for raw in [random_response(rng) for _ in range(4000)] + oracle:
        spans = sentence_spans(raw)
        assert first_sentence_end(raw) == (spans[0][1] if spans else len(raw)), raw
