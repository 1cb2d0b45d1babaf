"""Pipeline runners: unit construction per granularity, failure capture."""

from __future__ import annotations

import random
import sys
import threading
import time
from typing import Iterator

import pytest

from regcheck.classify import default_classification_template
from regcheck.compliance import build_prompt, default_template
from regcheck.corpus import block_text, extract_provisions, parse_document
from regcheck.errors import UnchunkableText
from regcheck.llm import StubBackend, StubEntry, load_stub_script
from regcheck.pipeline import (
    _QUEUED_PER_WORKER,
    _ordered_map,
    classify_provisions,
    compliance_units,
    run_compliance,
)
from regcheck.taxonomy import load_concept_model, load_ruleset


class TestComplianceUnits:
    def test_sentence_units_one_per_provision(self, dpa_doc):
        units = compliance_units(dpa_doc, "sentence", 4096)
        provisions = extract_provisions(dpa_doc)
        assert [u.passage.unit_ref for u in units] == [p.unit_ref for p in provisions]
        assert all(u.context is None for u in units)

    def test_sentence_context_is_enclosing_block(self, dpa_doc):
        units = compliance_units(dpa_doc, "sentence", 4096, context_on=True)
        first = units[0]
        assert first.context == block_text(dpa_doc.blocks[0])
        assert first.passage.text != first.context

    def test_paragraph_units_have_no_redundant_context(self, dpa_doc):
        # An unsplit passage equals its block; attaching it again adds nothing.
        units = compliance_units(dpa_doc, "paragraph", 4096, context_on=True)
        assert all(u.context is None for u in units)

    def test_split_passage_gets_parent_context(self):
        doc = parse_document(
            "The code must identify the supplier of each lot received. "
            "Records of each code must be retained for two years. "
            "Labels must repeat the code verbatim.",
            "plain",
            doc_id="d",
        )
        units = compliance_units(doc, "paragraph", 20, context_on=True)
        assert len(units) >= 2
        for u in units:
            assert u.context == doc.blocks[0].text
            assert u.passage.text in u.context

    def test_sentence_over_budget(self, dpa_doc):
        with pytest.raises(UnchunkableText):
            compliance_units(dpa_doc, "sentence", 5)

    def test_unknown_granularity(self, dpa_doc):
        with pytest.raises(ValueError):
            compliance_units(dpa_doc, "clause", 4096)

    def test_granularity_changes_only_user_message(self, dpa_doc, data_dir):
        # Same template, same parsing; only the user-facing content differs.
        rules = load_ruleset(data_dir / "gdpr_art28_demo.jsonl")
        sent = compliance_units(dpa_doc, "sentence", 4096)
        para = compliance_units(dpa_doc, "paragraph", 4096)
        b_sent = build_prompt(sent[0].passage, rules, default_template(), sent[0].context)
        b_para = build_prompt(para[0].passage, rules, default_template(), para[0].context)
        assert b_sent.messages[0] == b_para.messages[0]
        assert b_sent.messages[1] != b_para.messages[1]


class TestRunCompliance:
    def test_parse_failures_become_findings(self, dpa_doc, data_dir):
        rules = load_ruleset(data_dir / "gdpr_art28_demo.jsonl")
        backend = StubBackend([StubEntry(match="", response="nothing structured")])
        units = compliance_units(dpa_doc, "paragraph", 4096)
        findings = run_compliance(units, rules, backend)
        assert len(findings) == len(units)
        assert all(f.parse_error for f in findings)
        assert all(f.usage is not None for f in findings)  # failed parses still cost
        assert all(f.raw_response == "nothing structured" for f in findings)

    def test_findings_keep_unit_order(self, dpa_doc, data_dir, fixtures):
        rules = load_ruleset(data_dir / "gdpr_art28_demo.jsonl")
        backend = StubBackend(load_stub_script(fixtures / "stub_paragraph_aware.jsonl"))
        units = compliance_units(dpa_doc, "paragraph", 4096)

        def full(findings):
            return [
                (f.passage_ref, sorted(f.rule_ids), f.rationale, f.raw_response)
                for f in findings
            ]

        serial = run_compliance(units, rules, backend, parallelism=1)
        wide = run_compliance(units, rules, backend, parallelism=8)
        assert [f.passage_ref for f in wide] == [u.passage.unit_ref for u in units]
        assert full(wide) == full(serial)


class TestClassifyProvisions:
    def test_parse_error_recorded_not_raised(self, data_dir):
        model = load_concept_model(data_dir / "food_safety_concepts.jsonl")
        doc = parse_document("Unmatched provision text here.", "plain", doc_id="d")
        backend = StubBackend([StubEntry(match="", response="no vocabulary words")])
        (result,) = classify_provisions(
            extract_provisions(doc), model, backend,
            template=default_classification_template(),
        )
        assert result.parse_error
        assert result.labels.labels == set()
        assert result.raw_response == "no vocabulary words"

    def test_keyword_only_skips_backend(self, data_dir):
        model = load_concept_model(data_dir / "food_safety_concepts.jsonl")
        doc = parse_document("Salmonella testing is mandatory.", "plain", doc_id="d")
        (result,) = classify_provisions(extract_provisions(doc), model, backend=None)
        assert result.labels.labels == {"Pathogen"}
        assert result.raw_response == ""
        assert result.usage is None


class _Failure(Exception):
    """Raised by `_Counting` for a failing unit; carries the unit's index."""


class _Counting:
    """A unit function that sleeps for a seeded random time and counts its calls.

    Unit `i` returns `i * i`, or raises `_Failure(i)` when `i` is in `failing`;
    `sleeps` overrides the random sleep of chosen units.
    """

    def __init__(self, seed: int, failing=(), sleeps=None):
        rng = random.Random(seed)
        self.sleeps = lambda i: (sleeps or {}).get(i, rng.uniform(0, 0.0015))
        self.failing = set(failing)
        self.lock = threading.Lock()
        self.started = 0
        self.in_flight = 0
        self.max_in_flight = 0

    def __call__(self, i: int) -> int:
        with self.lock:
            self.started += 1
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            pause = self.sleeps(i)
        try:
            time.sleep(pause)
            if i in self.failing:
                raise _Failure(i)
            return i * i
        finally:
            with self.lock:
                self.in_flight -= 1


def _counted(n: int, consumed: list) -> Iterator[int]:
    """`range(n)`, appending each unit to `consumed` as the scheduler takes it."""
    for i in range(n):
        consumed.append(i)
        yield i


class TestOrderedMap:
    @pytest.mark.parametrize("parallelism", [1, 2, 4, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_input_order_and_at_most_parallelism_in_flight(self, parallelism, seed):
        fn = _Counting(seed)
        assert _ordered_map(fn, range(150), parallelism) == [i * i for i in range(150)]
        assert fn.started == 150
        assert 1 <= fn.max_in_flight <= parallelism

    @pytest.mark.parametrize("parallelism", [1, 2, 4, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_raises_the_first_failure_in_input_order(self, parallelism, seed):
        # Unit 37 fails last in time; 41 and 90 fail sooner, but come after it.
        fn = _Counting(seed, failing={37, 41, 90}, sleeps={37: 0.05, 41: 0, 90: 0})
        with pytest.raises(_Failure) as err:
            _ordered_map(fn, range(150), parallelism)
        assert err.value.args == (37,)
        assert fn.max_in_flight <= parallelism

    @pytest.mark.parametrize("parallelism", [2, 4, 8])
    def test_at_most_queued_per_worker_units_submitted(self, parallelism):
        # While unit i runs, the caller waits on a unit no later than i, so it has
        # taken at most the queue's worth of units beyond i, plus the next one.
        consumed: list[int] = []
        lead: list[int] = []
        fn = _Counting(0, sleeps={0: 0.1})

        def watched(i: int) -> int:
            value = fn(i)
            lead.append(len(consumed) - i)
            return value

        assert _ordered_map(watched, _counted(200, consumed), parallelism) == [
            i * i for i in range(200)
        ]
        assert max(lead) <= _QUEUED_PER_WORKER * parallelism + 1

    @pytest.mark.parametrize("parallelism", [2, 4, 8])
    def test_a_failure_stops_further_calls(self, parallelism):
        # Unit 0 holds the caller back while unit 1 fails at once. Only the units
        # already queued may still start; none starts after the error is raised,
        # and once the caller has seen the failure it takes no further unit.
        consumed: list[int] = []
        fn = _Counting(0, failing={1}, sleeps={0: 0.3, 1: 0})
        with pytest.raises(_Failure) as err:
            _ordered_map(fn, _counted(200, consumed), parallelism)
        assert err.value.args == (1,)
        assert len(consumed) <= _QUEUED_PER_WORKER * parallelism + 1
        started = fn.started
        assert started <= _QUEUED_PER_WORKER * parallelism + 1
        time.sleep(0.05)
        assert fn.started == started

    def test_no_queued_unit_after_a_failure_calls_fn(self):
        # At parallelism 2 one worker waits on unit 0; the other runs unit 1, which
        # fails, then takes the queued units 2 and 3 from the pool, which must skip.
        fn = _Counting(0, failing={1}, sleeps={0: 0.2, 1: 0})
        with pytest.raises(_Failure):
            _ordered_map(fn, range(200), 2)
        assert fn.started == 2

    def test_an_interrupted_caller_cancels_the_queue(self):
        # An exception in the caller, such as KeyboardInterrupt, reaches it while
        # units 0 and 1 run and 2 and 3 wait in the queue: those two never start.
        def interrupted():
            yield from range(4)
            raise KeyboardInterrupt

        fn = _Counting(0, sleeps=dict.fromkeys(range(4), 0.1))
        with pytest.raises(KeyboardInterrupt):
            _ordered_map(fn, interrupted(), 2)
        assert fn.started == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_failures_under_frequent_thread_switches(self, seed):
        # More workers than cores, a thread switch every microsecond and no sleeps:
        # the failure raised is still the first in input order, and a run without
        # failures still returns every result in order.
        failing = set(random.Random(seed).sample(range(20, 400), 5))
        no_sleep = dict.fromkeys(range(400), 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.raises(_Failure) as err:
                _ordered_map(_Counting(seed, failing, no_sleep), range(400), 16)
            results = _ordered_map(_Counting(seed, (), no_sleep), range(400), 16)
        finally:
            sys.setswitchinterval(interval)
        assert err.value.args == (min(failing),)
        assert results == [i * i for i in range(400)]
