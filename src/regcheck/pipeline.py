"""End-to-end runners tying segmentation, classification and checking together.

Model-bound stages fan out across passages/provisions with bounded
parallelism (at most `parallelism` requests in flight); everything else is a
pure fold. Results keep input order, so runs with a deterministic backend
are byte-reproducible.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

from .classify import (
    FROM_LLM,
    ClassificationTemplate,
    LabelSet,
    build_classification_prompt,
    classify_keywords,
    fuse_labels,
    parse_concept_response,
)
from .compliance import Finding, build_prompt, check_passage
from .corpus import (
    Passage,
    Provision,
    SourceDocument,
    block_text,
    chunk_paragraphs,
    estimate_tokens,
    extract_provisions,
)
from .errors import ParseError, UnchunkableText
from .llm import Backend, Usage
from .taxonomy import ConceptModel, Ruleset

SENTENCE = "sentence"
PARAGRAPH_LEVEL = "paragraph"


@dataclass(frozen=True)
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
            "labels": sorted(self.labels.labels),
            "provenance": {k: self.labels.provenance[k] for k in sorted(self.labels.labels)},
            "raw_response": self.raw_response,
            "parse_error": self.parse_error,
        }


def classify_provisions(
    provisions: Sequence[Provision],
    model: ConceptModel,
    backend: Backend | None,
    template: ClassificationTemplate | None = None,
    stem: bool = False,
    parallelism: int = 1,
) -> list[ClassifiedProvision]:
    """Run the classification steps over a provision stream.

    The model branch and the keyword branch are independent; their label
    sets are fused per provision. Without a backend the model branch is
    skipped entirely (the keyword-search baseline).
    """

    def llm_branch(p: Provision) -> tuple[LabelSet, str, Usage | None, str | None]:
        if backend is None:
            return LabelSet.empty(), "", None, None
        messages = build_classification_prompt(p, model, template)
        response, usage = backend.complete(messages)
        try:
            labels = parse_concept_response(response, model)
        except ParseError as exc:
            return LabelSet.empty(), response, usage, str(exc)
        return LabelSet.of(labels, FROM_LLM), response, usage, None

    with ThreadPoolExecutor(max_workers=max(1, parallelism)) as pool:
        llm_results = list(pool.map(llm_branch, provisions))

    out = []
    for p, (llm_labels, raw, usage, err) in zip(provisions, llm_results):
        fused = fuse_labels(llm_labels, classify_keywords(p, model, stem=stem))
        out.append(ClassifiedProvision(p, fused, raw, usage, err))
    return out


@dataclass(frozen=True)
class CheckUnit:
    """One unit submitted for compliance checking, with optional context."""

    passage: Passage
    context: str | None = None


def compliance_units(
    doc: SourceDocument,
    granularity: str,
    budget: int,
    counter: Callable[[str], int] = estimate_tokens,
    context_on: bool = False,
) -> list[CheckUnit]:
    """Build check units at the requested granularity.

    Paragraph granularity chunks blocks to the token budget; sentence
    granularity uses one provision per unit. Context, when enabled, is the
    enclosing block's text and is attached only when it adds anything beyond
    the unit text itself.
    """
    parents = {b.index: block_text(b) for b in doc.blocks}
    units: list[CheckUnit] = []
    if granularity == PARAGRAPH_LEVEL:
        for passage in chunk_paragraphs(doc, budget, counter):
            parent = parents[passage.parent_block[0]]
            context = parent if context_on and parent != passage.text else None
            units.append(CheckUnit(passage, context))
    elif granularity == SENTENCE:
        for seq, prov in enumerate(extract_provisions(doc)):
            tokens = counter(prov.text)
            if tokens > budget:
                raise UnchunkableText(
                    f"provision {prov.unit_ref} (~{tokens} tokens) exceeds the "
                    f"budget of {budget}"
                )
            passage = Passage(
                doc_id=doc.doc_id,
                sequence=seq,
                text=prov.text,
                token_estimate=tokens,
                parent_block=(prov.block_index, prov.block_index),
                unit_ref=prov.unit_ref,
            )
            parent = parents[prov.block_index]
            context = parent if context_on and parent != prov.text else None
            units.append(CheckUnit(passage, context))
    else:
        raise ValueError(f"unknown granularity {granularity!r}")
    return units


def run_compliance(
    units: Sequence[CheckUnit],
    rules: Ruleset,
    backend: Backend,
    template: str | None = None,
    parallelism: int = 1,
) -> list[Finding]:
    """Check every unit with `check_passage`, keeping input order."""
    bundles = [build_prompt(u.passage, rules, template, u.context) for u in units]
    with ThreadPoolExecutor(max_workers=max(1, parallelism)) as pool:
        return list(pool.map(lambda b: check_passage(b, rules, backend), bundles))
