"""Pipeline runners: unit construction per granularity, failure capture."""

from __future__ import annotations

import dataclasses
import random
import sys
import threading
from collections import Counter
from typing import Iterator

import pytest
from conftest import dump_jsonl, read_doc

from regcheck.cli import main
from regcheck.classify import (
    FROM_KEYWORD,
    FROM_LLM,
    LabelSet,
    _keyword_index,
    classification_prompter,
    fuse_labels,
    load_classification_template,
    parse_concept_response,
)
from regcheck.compliance import NOT_SENT, Finding, load_template, parse_response, prompt_builder
from regcheck.corpus import UnitTable, block_text
from regcheck.errors import BackendError, ParseError, UnchunkableText
from regcheck.llm import StubBackend, StubEntry, load_stub_script
from regcheck.pipeline import (
    _QUEUED_PER_WORKER,
    CheckUnit,
    ClassifiedProvision,
    _ordered_map,
    answers,
    classify_iter,
    compliance_iter,
)
from regcheck.storage import jsonl_line
from regcheck.taxonomy import load_concept_model, load_ruleset


class TestComplianceUnits:
    def test_sentence_units_one_per_provision(self, dpa_doc):
        units = list(dpa_doc.table("sentence", 4096).check_units())
        provisions = list(dpa_doc.table())
        assert [u.passage.unit_ref for u in units] == [p.unit_ref for p in provisions]
        assert all(u.context is None for u in units)

    def test_sentence_context_is_enclosing_block(self, dpa_doc):
        units = list(dpa_doc.table("sentence", 4096, True).check_units())
        first = units[0]
        assert first.context == block_text(dpa_doc.blocks[0])
        assert first.passage.text != first.context

    def test_paragraph_units_have_no_redundant_context(self, dpa_doc):
        # An unsplit passage equals its block; attaching it again adds nothing.
        units = list(dpa_doc.table("paragraph", 4096, True).check_units())
        assert all(u.context is None for u in units)

    def test_split_passage_gets_parent_context(self):
        doc = read_doc(
            "The code must identify the supplier of each lot received. "
            "Records of each code must be retained for two years. "
            "Labels must repeat the code verbatim.",
            "plain",
            doc_id="d",
        )
        units = list(doc.table("paragraph", 20, True).check_units())
        assert len(units) >= 2
        for u in units:
            assert u.context == doc.blocks[0].text
            assert u.passage.text in u.context

    @pytest.mark.parametrize("granularity", ["paragraph", "sentence"])
    @pytest.mark.parametrize("context_on", [False, True])
    def test_units_match_the_reference_on_seeded_documents(self, granularity, context_on):
        rng = random.Random(f"{granularity}-{context_on}")
        contexts = single_chunk_splits = 0
        for _ in range(300):
            doc = read_doc(_random_structured_text(rng), "structured", doc_id="d")
            budget = rng.choice((4, 8, 12, 20, 40, 4096))
            got = _outcome(lambda: list(doc.table(granularity, budget, context_on).check_units()))
            assert got == _outcome(lambda: _reference_units(doc, granularity, budget, context_on))
            if isinstance(got, list):
                contexts += sum(u.context is not None for u in got)
                per_block = Counter(u.passage.block for u in got)
                single_chunk_splits += sum(
                    per_block[u.passage.block] == 1 and u.context is not None for u in got
                )
        assert contexts > 0 if context_on else contexts == 0
        if context_on and granularity == "paragraph":
            assert single_chunk_splits > 0  # a split block whose one passage is shorter

    @pytest.mark.parametrize("granularity", ["paragraph", "sentence"])
    @pytest.mark.parametrize("context_on", [False, True])
    def test_table_yields_the_units_afresh_on_each_iteration(self, granularity, context_on):
        rng = random.Random(f"table-{granularity}-{context_on}")
        tables = 0
        for _ in range(300):
            doc = read_doc(_random_structured_text(rng), "structured", doc_id="d")
            budget = rng.choice((4, 8, 12, 20, 40, 4096))
            want = _outcome(lambda: _reference_units(doc, granularity, budget, context_on))
            table = _outcome(lambda: UnitTable(doc.blocks, "d", granularity, budget, context_on))
            if isinstance(want, tuple):  # the table raises the error of the reference
                assert table == want
                continue
            first, again = list(table.check_units()), list(table.check_units())
            assert first == want and again == want
            assert all(a is not b for a, b in zip(first, again))
            tables += 1
        assert tables >= 100

    @pytest.mark.parametrize("granularity", ["paragraph", "sentence"])
    @pytest.mark.parametrize("context_on", [False, True])
    def test_released_units_equal_the_iterated_ones_and_leave_the_table_empty(
        self, granularity, context_on
    ):
        rng = random.Random(f"release-{granularity}-{context_on}")
        tables = 0
        for _ in range(300):
            doc = read_doc(_random_structured_text(rng), "structured", doc_id="d")
            budget = rng.choice((4, 8, 12, 20, 40, 4096))
            table = _outcome(lambda: UnitTable(doc.blocks, "d", granularity, budget, context_on))
            if isinstance(table, tuple):
                continue
            want = list(table.check_units())
            released = table.check_units(release=True)
            for k, unit in enumerate(released):
                assert unit == want[k]
                # The table dropped this unit's text and context, and no later one.
                assert table.texts[k] is None and k not in table.contexts
                assert all(text is not None for text in table.texts[k + 1:])
            assert k == len(want) - 1 and table.contexts == {}
            tables += 1
        assert tables >= 100

    def test_sentence_over_budget(self, dpa_doc):
        with pytest.raises(UnchunkableText):
            dpa_doc.table("sentence", 5)

    def test_unknown_granularity(self, dpa_doc):
        with pytest.raises(ValueError):
            dpa_doc.table("clause", 4096)

    def test_granularity_changes_only_user_message(self, dpa_doc, data_dir):
        # Same template, same parsing; only the user-facing content differs.
        rules = load_ruleset(data_dir / "gdpr_art28_demo.jsonl")
        sent = list(dpa_doc.table("sentence", 4096).check_units())
        para = list(dpa_doc.table("paragraph", 4096).check_units())
        build = prompt_builder(rules, load_template())
        b_sent = build(sent[0].passage, sent[0].context)
        b_para = build(para[0].passage, para[0].context)
        assert b_sent.messages[0] == b_para.messages[0]
        assert b_sent.messages[1] != b_para.messages[1]


def _outcome(fn):
    """What `fn()` returns, or the type and message of the error it raises."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


def _reference_units(doc, granularity, budget, context_on):
    """The check units of `doc` without context, each given its block's text from a dict of
    every block's text: the reference for context."""
    parents = {b.index: block_text(b) for b in doc.blocks} if context_on else {}
    units = []
    for unit in doc.table(granularity, budget).check_units():
        context = parents.get(unit.passage.block)
        units.append(CheckUnit(unit.passage, None if context == unit.passage.text else context))
    return units


SENTENCES = (
    "The processor shall keep records.", "Données must be erased!", "See Art. 5 below?",
    "Each lot is coded.", "A", "Records are kept for two years; labels repeat the code.",
)


def _random_structured_text(rng: random.Random) -> str:
    """A structured document: paragraphs of sentences, some apart by two spaces (which
    splitting drops), and lists whose items may enumerate "(i)", "(ii)" sub-items."""
    blocks = []
    for _ in range(rng.randint(1, 6)):
        sentences = rng.choices(SENTENCES, k=rng.randint(1, 5))
        if rng.random() < 0.6:
            blocks.append("¶ " + "".join(s + rng.choice(("  ", " ")) for s in sentences).strip())
        else:
            items = [rng.choice(("", "with: (i) one; (ii) two; ")) + s for s in sentences]
            blocks.append("* The processor shall:\n" + "\n".join(f"- {i}" for i in items))
    return "# Doc\n\n" + "\n\n".join(blocks) + "\n"


class TestRunCompliance:
    def test_parse_failures_become_findings(self, dpa_doc, data_dir):
        rules = load_ruleset(data_dir / "gdpr_art28_demo.jsonl")
        backend = StubBackend([StubEntry(match="", response="nothing structured")])
        units = list(dpa_doc.table("paragraph", 4096).check_units())
        findings = list(compliance_iter(units, rules, backend))
        assert len(findings) == len(units)
        assert all(f.parse_error for f in findings)
        assert all(f.usage is not None for f in findings)  # failed parses still cost
        assert all(f.raw_response == "nothing structured" for f in findings)

    def test_findings_keep_unit_order(self, dpa_doc, data_dir, fixtures):
        rules = load_ruleset(data_dir / "gdpr_art28_demo.jsonl")
        backend = StubBackend(load_stub_script(fixtures / "stub_paragraph_aware.jsonl"))
        units = list(dpa_doc.table("paragraph", 4096).check_units())

        def full(findings):
            return [
                (f.passage_ref, sorted(f.rule_ids), f.rationale, f.raw_response)
                for f in findings
            ]

        serial = list(compliance_iter(units, rules, backend, parallelism=1))
        wide = list(compliance_iter(units, rules, backend, parallelism=8))
        assert [f.passage_ref for f in wide] == [u.passage.unit_ref for u in units]
        assert full(wide) == full(serial)


class TestClassifyProvisions:
    def test_parse_error_recorded_not_raised(self, data_dir):
        model = load_concept_model(data_dir / "food_safety_concepts.jsonl")
        doc = read_doc("Unmatched provision text here.", "plain", doc_id="d")
        backend = StubBackend([StubEntry(match="", response="no vocabulary words")])
        (result,) = classify_iter(doc.table(), model, backend, load_classification_template())
        assert result.parse_error
        assert result.labels.labels == set()
        assert result.raw_response == "no vocabulary words"

    def test_keyword_only_skips_backend(self, data_dir):
        model = load_concept_model(data_dir / "food_safety_concepts.jsonl")
        doc = read_doc("Salmonella testing is mandatory.", "plain", doc_id="d")
        (result,) = classify_iter(doc.table(), model, backend=None)
        assert result.labels.labels == {"Pathogen"}
        assert result.raw_response == ""
        assert result.usage is None


# A frozen copy of the per-unit model code that `pipeline.answers` replaced: the
# reference for every field of both pipelines' records.
def _ref_ask(backend, messages, parse, grammar) -> tuple:
    response, usage = backend.complete(messages)
    try:
        return parse(response, grammar), response, usage, None
    except ParseError as exc:
        return None, response, usage, str(exc)


def _ref_check_passage(bundle, rules, backend) -> Finding:
    parsed, response, usage, error = _ref_ask(backend, bundle.messages, parse_response, rules)
    rule_ids, rationale = parsed or (rules.id_set(()), "")
    return Finding(bundle.passage_ref, rule_ids, rationale, response, usage, error)


def _ref_classify_one(p, model, backend, prompt, stem) -> ClassifiedProvision:
    labels = LabelSet.of(_keyword_index(model, stem).match(p.text), FROM_KEYWORD)
    if backend is None:
        return ClassifiedProvision(p, labels)
    ids, response, usage, error = _ref_ask(backend, prompt(p), parse_concept_response, model)
    if error is None:
        labels = fuse_labels(LabelSet.of(ids, FROM_LLM), labels)
    return ClassifiedProvision(p, labels, response, usage, error)


# Answers each grammar accepts, and answers that break it.
_CHECK_ANSWERS = (
    ("R5. The clause obligates the processor.", "R99", "R2, R7: both duties are stated.",
     "R99. Not applicable, despite R3.", "R1 and R4 - documented instructions."),
    ("free prose only", "", "R42. An unknown rule.", "The clause is silent. Then R3."),
)
_CLASSIFY_ANSWERS = (
    ("Traceability. The lot is traced.", "NONE", "labelling, Traceability. Both duties.",
     "NONE. Outside the candidate concepts, unlike Traceability."),
    ("", "no vocabulary words", "The duty is stated. Then Traceability.", "Pathogen. Scarce."),
)


def _seeded_script(rng: random.Random, texts, answers) -> list[StubEntry]:
    """A stub script that answers each distinct text, about a third of them with an
    answer that breaks the grammar, and everything else with an accepted answer. The
    longest texts come first, so that a text inside another does not take its answer."""
    valid, broken = answers
    entries = [
        StubEntry(match=text, response=rng.choice(broken if rng.random() < 1 / 3 else valid))
        for text in sorted(dict.fromkeys(texts), key=len, reverse=True)
    ]
    return [*entries, StubEntry(match="", response=rng.choice(valid))]


def _seeded_backend(rng: random.Random, texts, answers) -> StubBackend:
    return StubBackend(_seeded_script(rng, texts, answers))


def _fields(record) -> list:
    """Every field of a record, a label set as its provenance in insertion order."""
    return [type(record)] + [
        list(value.provenance.items()) if isinstance(value, LabelSet) else value
        for value in (getattr(record, f.name) for f in dataclasses.fields(record))
    ]


def _parse_error_share(records) -> float:
    return sum(r.parse_error is not None for r in records) / len(records)


class TestPerUnitPathAgainstReference:
    @pytest.mark.parametrize("parallelism", [1, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_findings_match_the_reference(self, dpa_doc, data_dir, parallelism, seed):
        rng = random.Random(seed)
        rules = load_ruleset(data_dir / "gdpr_art28_demo.jsonl")
        docs = [dpa_doc] + [
            read_doc(_random_structured_text(rng), "structured", doc_id=f"d{k}")
            for k in range(20)
        ]
        units = [
            unit
            for doc in docs
            for unit in doc.table(
                rng.choice(("paragraph", "sentence")), 4096, rng.random() < 0.5
            ).check_units()
        ]
        texts = [f"Text:\n{u.passage.text}" for u in units]  # the user message starts so
        backend = _seeded_backend(rng, texts, _CHECK_ANSWERS)
        template = load_template()
        build = prompt_builder(rules, template)
        expected = [_ref_check_passage(build(u.passage, u.context), rules, backend) for u in units]
        got = list(compliance_iter(units, rules, backend, template, parallelism=parallelism))
        assert [_fields(f) for f in got] == [_fields(f) for f in expected]
        assert 0.15 < _parse_error_share(got) < 0.6

    @pytest.mark.parametrize("parallelism", [1, 4])
    @pytest.mark.parametrize("stem", [False, True])
    @pytest.mark.parametrize("keyword_only", [False, True])
    def test_classified_provisions_match_the_reference(
        self, fixtures, data_dir, parallelism, stem, keyword_only
    ):
        rng = random.Random(f"{stem}-{keyword_only}")
        model = load_concept_model(data_dir / "food_safety_concepts.jsonl")
        provisions = [
            p
            for name, fmt in (("food_corpus.txt", "structured"), ("food_corpus_plain.txt", "plain"))
            for p in read_doc((fixtures / name).read_text(encoding="utf-8"), fmt, name).table()
        ]
        template = load_classification_template()
        backend = (
            None if keyword_only
            else _seeded_backend(rng, [p.text for p in provisions], _CLASSIFY_ANSWERS)
        )
        prompt = classification_prompter(model, template)
        expected = [_ref_classify_one(p, model, backend, prompt, stem) for p in provisions]
        got = list(classify_iter(provisions, model, backend, template, stem, parallelism))
        assert [_fields(r) for r in got] == [_fields(r) for r in expected]
        if keyword_only:
            assert all(r.usage is None for r in got)
        else:
            assert 0.15 < _parse_error_share(got) < 0.6
        assert any(r.labels.labels for r in got)


# Provision text: keywords, stems and folded letters that reach them, other non-ASCII
# text, and characters that JSON escapes.
_LINE_PIECES = (
    "Salmonella", "ſalmonella", "softened", "SOFTENING", "water content", "\u212aelvin",
    "İstanbul", "colours", "Données", "个人数据", "„Auftrag“", "é", '"', "\\", "/", "\t",
    "the operator shall keep the records", "traced to its supplier",
)


def _line_corpus(rng: random.Random) -> str:
    """A plain document of 40 paragraphs of random sentences made of `_LINE_PIECES`."""
    sentence = lambda: " ".join(rng.choice(_LINE_PIECES) for _ in range(rng.randint(1, 6)))
    return "\n\n".join(
        " ".join(sentence() + "." for _ in range(rng.randint(1, 3))) for _ in range(40)
    )


class TestClassifyRecordLines:
    """Record-line law: each line that `classify` writes is `jsonl_line(r.to_record())` of
    the reference result `r` of its provision (`_ref_classify_one`)."""

    @pytest.mark.parametrize("parallelism", [1, 4])
    @pytest.mark.parametrize("mode", ["model", "model-stem", "keyword-only-stem", "keyword-only"])
    def test_written_lines_are_the_reference_records(self, tmp_path, data_dir, parallelism, mode):
        rng = random.Random(mode)
        corpus = tmp_path / "corpüs.txt"  # its stem, a non-ASCII doc_id, starts each prov_id
        corpus.write_text(_line_corpus(rng), encoding="utf-8")
        concepts = data_dir / "food_safety_concepts.jsonl"
        model = load_concept_model(concepts)
        text = corpus.read_text(encoding="utf-8")
        provisions = list(read_doc(text, "plain", doc_id="corpüs").table())
        stem = mode.endswith("stem")
        argv = [
            "classify", "--input", str(corpus), "--format", "plain", "--concepts", str(concepts),
            "--parallelism", str(parallelism), "--out", str(tmp_path / "labels.jsonl"),
            *(["--stem"] if stem else []),
        ]
        if mode.startswith("keyword-only"):
            backend = None
            argv.append("--keyword-only")
        else:
            script = _seeded_script(rng, [p.text for p in provisions], _CLASSIFY_ANSWERS)
            dump_jsonl(tmp_path / "script.jsonl", [dataclasses.asdict(e) for e in script])
            backend = StubBackend(script)
            argv += ["--stub-script", str(tmp_path / "script.jsonl")]
        prompt = classification_prompter(model, load_classification_template())
        expected = [_ref_classify_one(p, model, backend, prompt, stem) for p in provisions]
        assert main(argv) == 0
        want = [jsonl_line(r.to_record()) for r in expected]
        assert (tmp_path / "labels.jsonl").read_text(encoding="utf-8") == "".join(want)
        assert [r.to_line() for r in expected] == want  # label sets built outside the run
        assert any(r.labels.labels for r in expected)
        assert not all(map(str.isascii, want))
        if backend is not None:
            assert 0.15 < _parse_error_share(expected) < 0.6


class _Failure(Exception):
    """Raised by `_Counting` for a failing unit; carries the unit's index."""


# How long a unit waits for an event before it fails: with a correct scheduler each
# event comes within milliseconds, so only a broken one waits this long.
_WAIT_S = 10


class _Counting:
    """A unit function that counts its calls, driven by events rather than sleeps.

    Unit `i` waits for each event that `hold` gave it, then returns `i * i`, or raises
    `error(i)` when `i` is in `failing`; `done(i)` is set once it has returned or raised.
    A wait longer than `_WAIT_S` fails the unit.
    """

    def __init__(self, failing=(), error: type = _Failure):
        self.failing, self.error = set(failing), error
        self.waits: dict[int, list[threading.Event]] = {}
        self.finished: dict[int, threading.Event] = {}
        self.lock = threading.Lock()
        self.started = 0
        self.in_flight = 0
        self.max_in_flight = 0

    def done(self, i: int) -> threading.Event:
        with self.lock:
            return self.finished.setdefault(i, threading.Event())

    def hold(self, i: int, *events: threading.Event) -> None:
        self.waits.setdefault(i, []).extend(events)

    def shuffle(self, seed: int, units: range, width: int) -> None:
        """Make `units`, in aligned blocks of `width`, finish in an order drawn from `seed`
        within each block: each unit waits for the one before it in that order. The
        scheduler starts units in input order, `width` at a time, and takes more only as
        the oldest finish, so the unit a waiting one needs has started or will."""
        rng = random.Random(seed)
        for start in range(units.start, units.stop - width + 1, width):
            order = rng.sample(range(start, start + width), width)
            for before, unit in zip(order, order[1:]):
                self.hold(unit, self.done(before))

    def __call__(self, i: int) -> int:
        with self.lock:
            self.started += 1
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            for event in self.waits.get(i, ()):
                if not event.wait(_WAIT_S):
                    raise TimeoutError(f"unit {i} waited {_WAIT_S} s for an event")
            if i in self.failing:
                raise self.error(i)
            return i * i
        finally:
            with self.lock:
                self.in_flight -= 1
            self.done(i).set()


def _counted(
    n: int, consumed: list, reached: threading.Event | None = None, at: int = 0
) -> Iterator[int]:
    """`range(n)`, appending each unit to `consumed` as the scheduler takes it, and setting
    `reached` once it has taken `at` units."""
    for i in range(n):
        consumed.append(i)
        if reached is not None and len(consumed) == at:
            reached.set()
        yield i


def _answers(fn, units, parallelism: int) -> Iterator[tuple]:
    """`answers` over `units` with `fn` as the backend: unit i's prompt is i, its response
    `fn(i)`, and its answer the response as it is."""

    class Backend:
        def complete(self, i):
            return fn(i), None

    return answers(units, lambda i: i, lambda response: response, Backend(), parallelism)


class TestOrderedMap:
    @pytest.mark.parametrize("parallelism", [1, 2, 4, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_input_order_and_at_most_parallelism_in_flight(self, parallelism, seed):
        fn = _Counting()
        fn.shuffle(seed, range(150), parallelism)
        assert list(_ordered_map(fn, range(150), parallelism)) == [i * i for i in range(150)]
        assert fn.started == 150
        assert 1 <= fn.max_in_flight <= parallelism

    @pytest.mark.parametrize("parallelism", [1, 2, 4, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_raises_the_first_failure_in_input_order(self, parallelism, seed):
        # Units 37, 41 and 90 fail. From parallelism 4 on, unit 41 runs beside 37, and 37
        # fails only after it: the first failure in time comes later in input order.
        fn = _Counting(failing={37, 41, 90})
        fn.shuffle(seed, range(32), parallelism)
        if parallelism >= 4:
            fn.hold(37, fn.done(41))
        with pytest.raises(_Failure) as err:
            list(_ordered_map(fn, range(150), parallelism))
        assert err.value.args == (37,)
        assert fn.max_in_flight <= parallelism

    @pytest.mark.parametrize("parallelism", [2, 4, 8])
    def test_at_most_queued_per_worker_units_submitted(self, parallelism):
        # While unit i runs, the caller waits on a unit no later than i, so it has
        # taken at most the queue's worth of units beyond i, plus the next one. Unit 0
        # runs until the caller has taken that many.
        most = _QUEUED_PER_WORKER * parallelism + 1
        consumed: list[int] = []
        lead: list[int] = []
        taken = threading.Event()
        fn = _Counting()
        fn.hold(0, taken)
        fn.shuffle(0, range(parallelism, 200), parallelism)

        def watched(i: int) -> int:
            value = fn(i)
            lead.append(len(consumed) - i)
            return value

        assert list(_ordered_map(watched, _counted(200, consumed, taken, most), parallelism)) == [
            i * i for i in range(200)
        ]
        assert max(lead) <= most

    def test_an_interrupted_caller_cancels_the_queue(self):
        # An exception in the caller, such as KeyboardInterrupt, reaches it while
        # units 0 and 1 run and 2 and 3 wait in the queue: those two never start.
        interrupted = threading.Event()

        def units():
            yield from range(4)
            interrupted.set()
            raise KeyboardInterrupt

        fn = _Counting()
        for i in range(4):
            fn.hold(i, interrupted)
        with pytest.raises(KeyboardInterrupt):
            list(_ordered_map(fn, units(), 2))
        assert fn.started == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_failures_under_frequent_thread_switches(self, seed):
        # More workers than cores, a thread switch every microsecond and no waits:
        # the failure raised is still the first in input order, and a run without
        # failures still returns every result in order.
        failing = set(random.Random(seed).sample(range(20, 400), 5))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.raises(_Failure) as err:
                list(_ordered_map(_Counting(failing), range(400), 16))
            results = list(_ordered_map(_Counting(), range(400), 16))
        finally:
            sys.setswitchinterval(interval)
        assert err.value.args == (min(failing),)
        assert results == [i * i for i in range(400)]


def _sent_after_the_failure(timeline: list, results: list, failing: int) -> list[int]:
    """The units of `results` that made a call though their task started to run after the
    task of the unit `failing`, whose call failed, was done."""
    sent = {unit for unit, _, answer in results if str(answer) != NOT_SENT}
    after = timeline[timeline.index(("done", failing)):]
    return [unit for event, unit in after if event == "start" and unit in sent]


class TestAnswers:
    """A failed call is its unit's result, and no unit is sent after it."""

    @pytest.mark.parametrize("parallelism", [2, 4, 8])
    def test_no_call_starts_after_a_failed_call_returns(self, pool_tasks, parallelism):
        # Unit 1 fails once the caller's queue is full; unit 0 holds the caller back until
        # then. No unit whose task starts after the failed one's is done makes a call, and
        # every unit comes back once, in input order: answered, with its own error, or not
        # sent, caused by the failed call's error.
        most = _QUEUED_PER_WORKER * parallelism + 1
        full = threading.Event()
        fn = _Counting(failing={1}, error=BackendError)
        fn.hold(1, full)
        fn.hold(0, fn.done(1))
        results = list(_answers(fn, _counted(200, [], full, most), parallelism))
        assert _sent_after_the_failure(pool_tasks.timeline, results, 1) == []
        assert fn.started <= most
        assert [unit for unit, _, _ in results] == list(range(200))
        failure = results[1][2]
        assert isinstance(failure, BackendError) and failure.args == (1,)
        answered = [unit for unit, parsed, _ in results if parsed is not None]
        assert answered[0] == 0 and len(answered) == fn.started - 1
        for unit, parsed, answer in results[2:]:
            if parsed is None:
                assert (str(answer), answer.attempts, answer.__cause__) == (NOT_SENT, 0, failure)
            else:
                assert answer == (unit * unit, None, None)

    def test_no_queued_unit_after_a_failed_call_is_sent(self, pool_tasks):
        # At parallelism 2 one worker waits on unit 0; the other runs unit 1, which fails
        # once units 2 and 3 are queued, then takes them from the pool: they must not be
        # sent. Unit 0 runs until the pool has run their tasks.
        full = threading.Event()
        fn = _Counting(failing={1}, error=BackendError)
        fn.hold(1, full)
        fn.hold(0, pool_tasks.done(2), pool_tasks.done(3))
        results = list(_answers(fn, _counted(200, [], full, 5), 2))
        assert fn.started == 2
        assert [str(answer) for _, _, answer in results[1:4]] == ["1", NOT_SENT, NOT_SENT]
        assert all(parsed is None for _, parsed, _ in results[1:])

    @pytest.mark.parametrize("parallelism", [1, 2, 16])
    def test_a_failed_call_and_the_units_after_it_under_frequent_thread_switches(
        self, pool_tasks, parallelism
    ):
        # A thread switch every microsecond and no waits. Each unit comes back once, in input
        # order; no unit whose task starts after the failed one's is done makes a call; and
        # every unit not sent names the failed call's error as its cause.
        failing = 137
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            fn = _Counting(failing={failing}, error=BackendError)
            results = list(_answers(fn, range(400), parallelism))
        finally:
            sys.setswitchinterval(interval)
        assert [unit for unit, _, _ in results] == list(range(400))
        failure = results[failing][2]
        not_sent = [answer for _, _, answer in results if str(answer) == NOT_SENT]
        assert len(not_sent) == 400 - fn.started
        assert all(answer.__cause__ is failure for answer in not_sent)
        if parallelism == 1:
            assert fn.started == failing + 1
        else:
            assert _sent_after_the_failure(pool_tasks.timeline, results, failing) == []
            assert fn.started <= failing + 1 + _QUEUED_PER_WORKER * parallelism
