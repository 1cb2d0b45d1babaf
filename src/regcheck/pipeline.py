"""The model stage of both pipelines; the caller makes the units (see `corpus`) and the backend.

Every model call of both pipelines is made here, one unit at a time, by `answers`, which
keeps the text and usage of an answer the grammar rejects: it was paid for. A failed call is
its unit's result, and no unit is sent after it. It runs at most `parallelism` requests at a
time and queues at most 2·`parallelism` units. Results come in input order, so runs with a
deterministic backend are byte-reproducible. `classify_iter` and `compliance_iter` yield
each result once it and every earlier one are done, so a caller can write it out and drop it
while later calls run; `classify_provisions` and `run_compliance` are their results as lists.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from json.encoder import encode_basestring as _encode_str  # the C encoder of ensure_ascii=False
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .compliance import NOT_SENT, Finding, parse_response, prompt_builder
from .corpus import CheckUnit, SourceDocument, Unit, UnitTable
from .errors import BackendError, ParseError
from .llm import Backend, Usage
from .taxonomy import ConceptModel, Ruleset

if TYPE_CHECKING:  # `classify` is imported by `classify_iter`: `check` never loads it
    from .classify import ClassificationTemplate, LabelSet

_QUEUED_PER_WORKER = 2  # units submitted per worker thread: one running, one waiting


def answers(
    units: Iterable, prompt: Callable, parse: Callable, backend: Backend, parallelism: int
) -> Iterator[tuple]:
    """`(unit, parse(response), (response, usage, None))` per unit, in input order (see
    `_ordered_map`), for the response to the messages `prompt(unit)`. When `parse` raises
    `ParseError` it is `(unit, None, (response, usage, message))`: a rejected answer was
    still paid for. A call that raises `BackendError` gives `(unit, None, error)`; each unit
    that starts after it gives `(unit, None, error)` with no call, its error `NOT_SENT`
    caused by the failed call's. Every other exception propagates."""
    failed: list[BackendError] = []  # the run's failed calls: once one is in, no unit is sent

    def ask(unit) -> tuple:
        if failed:
            error = BackendError(NOT_SENT, attempts=0)
            error.__cause__ = failed[0]
            return unit, None, error
        try:
            response, usage = backend.complete(prompt(unit))
        except BackendError as exc:
            failed.append(exc)
            return unit, None, exc
        try:
            return unit, parse(response), (response, usage, None)
        except ParseError as exc:
            return unit, None, (response, usage, str(exc))

    return _ordered_map(ask, units, parallelism)


@dataclass(frozen=True, slots=True)
class ClassifiedProvision:
    provision: Unit
    labels: LabelSet
    raw_response: str = ""
    usage: Usage | None = None
    parse_error: str | None = None

    def to_record(self) -> dict:
        return {
            "prov_id": self.provision.unit_ref,
            "text": self.provision.text,
            "labels": sorted(self.labels.provenance),
            "provenance": dict(sorted(self.labels.provenance.items())),
            "raw_response": self.raw_response,
            "parse_error": self.parse_error,
        }

    def to_line(self) -> str:
        """`jsonl_line(self.to_record())`, with the label fields that its label set renders
        once (`LabelSet.json_fields`)."""
        p, error = self.provision, self.parse_error
        return (
            f'{{"prov_id": {_encode_str(p.unit_ref)}, "text": {_encode_str(p.text)}, '
            f'{self.labels.json_fields}, "raw_response": {_encode_str(self.raw_response)}, '
            f'"parse_error": {"null" if error is None else _encode_str(error)}}}\n'
        )


def classify_provisions(*args, **kwargs) -> list[ClassifiedProvision]:
    """The results of `classify_iter(*args, **kwargs)`, as a list."""
    return list(classify_iter(*args, **kwargs))


def classify_iter(
    provisions: Iterable[Unit],
    model: ConceptModel,
    backend: Backend | None,
    template: ClassificationTemplate | None = None,
    stem: bool = False,
    parallelism: int = 1,
) -> Iterator[ClassifiedProvision]:
    """Run the classification steps over a provision stream, yielding in input order.

    The model branch and the keyword branch are independent; their label sets are fused per
    provision, once per distinct pair of label sets (see `fused_labels`). Without a backend
    the model branch is skipped entirely (the keyword-search baseline) and no thread starts.
    The first unit left unanswered (see `answers`) raises the failed call's `BackendError`.
    The caller closes the iterator if it stops early, which cancels the queued units (see
    `_ordered_map`).
    """
    from .classify import _keyword_index, classification_prompter, fused_labels, parse_concept_response
    keywords = _keyword_index(model, stem).match
    if backend is None:
        answered = ((p, None, ()) for p in provisions)
    else:
        prompt = classification_prompter(model, template)
        parse = partial(parse_concept_response, model=model)
        answered = answers(provisions, prompt, parse, backend, parallelism)

    def classified(p: Unit, ids, answer) -> ClassifiedProvision:
        if isinstance(answer, BackendError):
            answered.close()  # cancels the queued units before the error propagates
            raise answer.__cause__ if str(answer) == NOT_SENT else answer
        # A rejected answer (`ids` None) adds no label to the keyword labels.
        return ClassifiedProvision(p, fused_labels(ids or frozenset(), keywords(p.text)), *answer)

    return (classified(*result) for result in answered)


def compliance_units(
    doc: SourceDocument,
    granularity: str,
    budget: int,
    context_on: bool = False,
) -> list[CheckUnit]:
    """The check units of `doc` (see `UnitTable`), as a list."""
    return list(UnitTable(doc.blocks, doc.doc_id, granularity, budget, context_on).check_units())


def run_compliance(*args, **kwargs) -> list[Finding]:
    """The findings of `compliance_iter(*args, **kwargs)`, as a list."""
    return list(compliance_iter(*args, **kwargs))


def compliance_iter(
    units: Iterable[CheckUnit],
    rules: Ruleset,
    backend: Backend,
    template: str | None = None,
    parallelism: int = 1,
) -> Iterator[Finding]:
    """One finding per unit, yielded in input order as it completes. A response the grammar
    rejects becomes a finding with `parse_error` set and no rule ids, and a unit left
    unanswered one with `error` set and no response (see `answers`). The caller closes the
    iterator if it stops early, which cancels the queued units."""
    build = prompt_builder(rules, template)
    parse = partial(parse_response, rules=rules)
    rejected = (rules.id_set(()), "")  # the rule ids and rationale of a rejected answer

    def finding(unit: CheckUnit, parsed, answer) -> Finding:
        if isinstance(answer, BackendError):
            return Finding(unit.passage.unit_ref, *rejected, "", error=str(answer))
        return Finding(unit.passage.unit_ref, *(parsed or rejected), *answer)

    answered = answers(
        units, lambda u: build(u.passage, u.context).messages, parse, backend, parallelism
    )
    return (finding(*result) for result in answered)


def _ordered_map(fn: Callable, items: Iterable, parallelism: int) -> Iterator:
    """`fn` over `items`, yielded in input order, at most `parallelism` calls at a time, at
    most `_QUEUED_PER_WORKER * parallelism` units submitted. An exception that `fn` raises
    is raised in its unit's turn, so the first in input order is. Closing the iterator, or
    an error raised through it, cancels the queued units and waits for the running ones. At
    parallelism 1 the calls run one by one in the calling thread, each when its result is
    asked for."""
    if parallelism <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor  # imported here: parallel runs only
    pending = deque()
    pool = ThreadPoolExecutor(max_workers=parallelism)
    try:
        for item in items:
            if len(pending) == _QUEUED_PER_WORKER * parallelism:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)  # waits for the running calls
