"""End-to-end runners tying segmentation, classification and checking together.

Every model call of both pipelines is made here, one unit at a time, by `_ask`.
Model-bound stages fan out across passages/provisions with at most `parallelism` requests
in flight and 2·`parallelism` units queued; after a unit fails no further unit starts.
Results come in input order, so runs with a deterministic backend are byte-reproducible.
`classify_iter` yields each result as soon as it and every earlier one are done, so a
caller can write it out and drop it while later calls run; `run_compliance` and
`classify_provisions` return lists, since a report needs every finding.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .compliance import Finding, PromptBundle, parse_response, prompt_builder
from .corpus import (  # the granularities are re-exported for library callers
    PARAGRAPH_LEVEL,
    SENTENCE,
    Passage,
    Provision,
    SourceDocument,
    block_length,
    block_text,
    chunk_paragraphs,
    estimate_tokens,
    extract_provisions,
)
from .errors import ParseError, UnchunkableText
from .llm import Backend, BackendConfig, ChatMessage, ModelPrice, Usage, make_backend, price_of
from .taxonomy import ConceptModel, Ruleset

if TYPE_CHECKING:  # `classify` is imported by `classify_iter`: `check` never loads it
    from .classify import ClassificationTemplate, LabelSet

_QUEUED_PER_WORKER = 2  # units submitted per worker thread: one running, one waiting


def _ask(backend: Backend, messages: Sequence[ChatMessage], parse: Callable, grammar) -> tuple:
    """One unit's model call: `(parse(answer, grammar), answer, usage, None)`, or
    `(None, answer, usage, message)` when `parse` raises `ParseError`, since a rejected
    answer was still paid for. Every other exception, `BackendError` included, propagates."""
    response, usage = backend.complete(messages)
    try:
        return parse(response, grammar), response, usage, None
    except ParseError as exc:
        return None, response, usage, str(exc)


@dataclass(frozen=True, slots=True)
class ClassifiedProvision:
    provision: Provision
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


def classify_provisions(*args, **kwargs) -> list[ClassifiedProvision]:
    """The results of `classify_iter(*args, **kwargs)`, as a list."""
    return list(classify_iter(*args, **kwargs))


def classify_iter(
    provisions: Sequence[Provision],
    model: ConceptModel,
    backend: Backend | None,
    template: ClassificationTemplate | None = None,
    stem: bool = False,
    parallelism: int = 1,
) -> Iterator[ClassifiedProvision]:
    """Run the classification steps over a provision stream, yielding in input order.

    The model branch and the keyword branch are independent; their label
    sets are fused per provision. Without a backend the model branch is
    skipped entirely (the keyword-search baseline). The caller closes the
    iterator if it stops early, which cancels the queued units (see `_ordered_map`).
    """
    from .classify import (
        FROM_LLM,
        LabelSet,
        classification_prompter,
        classify_keywords,
        fuse_labels,
        parse_concept_response,
    )
    prompt = classification_prompter(model, template) if backend is not None else None

    def classify_one(p: Provision) -> ClassifiedProvision:
        labels = classify_keywords(p, model, stem=stem)
        if backend is None:
            return ClassifiedProvision(p, labels)
        ids, response, usage, error = _ask(backend, prompt(p), parse_concept_response, model)
        if error is None:
            labels = fuse_labels(LabelSet.of(ids, FROM_LLM), labels)
        return ClassifiedProvision(p, labels, response, usage, error)

    return _ordered_map(classify_one, provisions, parallelism)


@dataclass(frozen=True, slots=True)
class CheckUnit:
    """One unit submitted for compliance checking, with optional context."""

    passage: Passage
    context: str | None = None


def compliance_units(
    doc: SourceDocument,
    granularity: str,
    budget: int,
    context_on: bool = False,
) -> list[CheckUnit]:
    """Build check units at the requested granularity.

    Paragraph granularity chunks blocks to the token budget; sentence
    granularity uses one provision per unit. Context, when enabled, is the
    enclosing block's text and is attached only when it adds anything beyond
    the unit text itself. It is built once per block, and at paragraph
    granularity only for a block split to fit the budget.
    """
    if granularity == PARAGRAPH_LEVEL:
        passages = chunk_paragraphs(doc, budget)
    elif granularity == SENTENCE:
        passages = []
        for seq, prov in enumerate(extract_provisions(doc)):
            tokens = estimate_tokens(prov.text)
            if tokens > budget:
                raise UnchunkableText(
                    f"provision {prov.unit_ref} (~{tokens} tokens) exceeds the "
                    f"budget of {budget}"
                )
            block = (prov.block_index, prov.block_index)
            passages.append(Passage(doc.doc_id, seq, prov.text, tokens, block, prov.unit_ref))
    else:
        raise ValueError(f"unknown granularity {granularity!r}")
    if not context_on:
        return [CheckUnit(passage) for passage in passages]
    units, blocks, block = [], iter(doc.blocks), None
    for passage in passages:  # a block's units are consecutive, in block order
        if block is None or block.index != passage.parent_block[0]:
            block = next(b for b in blocks if b.index == passage.parent_block[0])
            # A block that fits the budget is its one passage; each passage of a split
            # block fits the budget, so it is shorter than the block.
            split = granularity == SENTENCE or len(passage.text) < block_length(block)
            context = block_text(block) if split else None
        units.append(CheckUnit(passage, None if context == passage.text else context))
    return units


def check_passage(bundle: PromptBundle, rules: Ruleset, backend: Backend) -> Finding:
    """Send one bundle and parse the determination. A response the grammar rejects
    becomes a finding with `parse_error` set and no rule ids (see `_ask`)."""
    parsed, response, usage, error = _ask(backend, bundle.messages, parse_response, rules)
    rule_ids, rationale = parsed or (rules.id_set(()), "")
    return Finding(bundle.passage_ref, rule_ids, rationale, response, usage, error)


def run_compliance(
    units: Sequence[CheckUnit],
    rules: Ruleset,
    backend: Backend,
    template: str | None = None,
    parallelism: int = 1,
) -> list[Finding]:
    """Check every unit with `check_passage`, keeping input order."""
    build = prompt_builder(rules, template)
    return list(
        _ordered_map(
            lambda u: check_passage(build(u.passage, u.context), rules, backend),
            units,
            parallelism,
        )
    )


def model_runs(
    cfg: BackendConfig, prices: dict[str, ModelPrice], runs: int, run: Callable[..., list]
) -> Iterator[list]:
    """The results of `run(backend, parallelism=...)`, once per run, lazily.

    An unpriced model fails before the backend is built, so before any paid
    call. Repeated runs bypass the cache so that they are independent samples.
    """
    price_of(prices, cfg.model_name)
    backend = make_backend(cfg if runs == 1 else replace(cfg, cache_dir=None))
    return (run(backend, parallelism=cfg.parallelism) for _ in range(runs))


def _ordered_map(fn: Callable, items: Iterable, parallelism: int) -> Iterator:
    """`fn` over `items`, yielded in input order, at most `parallelism` calls at a time, at
    most `_QUEUED_PER_WORKER * parallelism` units submitted. Once a unit's failure is seen, no
    unit is submitted and none after it in input order calls `fn`; the first failure in
    input order is raised. Closing the iterator, or an error raised through it, cancels the
    queued units and waits for the running ones. At parallelism 1 the calls run one by one
    in the calling thread, each when its result is asked for."""
    if parallelism <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor  # imported here: parallel runs only
    failed: list[int] = []  # indices of the units that raised

    def unit(index: int, item):
        if failed and index > min(failed):
            return None  # never read: the caller meets an earlier unit's failure first
        try:
            return fn(item)
        except BaseException:
            failed.append(index)
            raise

    pending = deque()
    pool = ThreadPoolExecutor(max_workers=parallelism)
    try:
        for index, item in enumerate(items):
            if len(pending) == _QUEUED_PER_WORKER * parallelism:
                yield pending.popleft().result()
            if failed:
                break
            pending.append(pool.submit(unit, index, item))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)  # waits for the running calls
