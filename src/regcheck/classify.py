"""Concept classification of provisions: model-based, keyword-based, and fusion.

The model branch covers the non-scarce concepts via a role-structured prompt;
the keyword branch covers scarce concepts by case-insensitive whole-word
lookup. Fusion is a set union with provenance tracking, so the two branches
can run in either order or concurrently.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .corpus import Provision, sentence_spans
from .errors import ParseError, TemplateError
from .llm import ChatMessage
from .storage import read_text_or_bundled
from .taxonomy import ConceptModel, render_concepts

FROM_LLM = "llm"
FROM_KEYWORD = "keyword"
FROM_BOTH = "both"

NO_CONCEPT = "NONE"

_NONE_TOKEN = re.compile(r"\bNONE\b")


@dataclass(frozen=True)
class LabelSet:
    """Concept labels for one provision with per-label provenance."""

    labels: frozenset[str]
    provenance: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "labels", frozenset(self.labels))
        object.__setattr__(self, "provenance", MappingProxyType(dict(self.provenance)))
        if set(self.provenance) != set(self.labels):
            raise ValueError("provenance keys must exactly equal labels")

    @classmethod
    def empty(cls) -> "LabelSet":
        return cls(frozenset(), {})

    @classmethod
    def of(cls, labels, source: str) -> "LabelSet":
        labels = frozenset(labels)
        return cls(labels, {label: source for label in labels})


@dataclass(frozen=True)
class ClassificationTemplate:
    """Role-structured prompt template for the classification task."""

    system: str
    user: str

    def __post_init__(self):
        if "{concept_list}" not in self.system + self.user:
            raise TemplateError("classification template is missing {concept_list}")
        if "{text}" not in self.user:
            raise TemplateError("classification template user part is missing {text}")


def load_classification_template(
    path: str | Path | None = None,
) -> ClassificationTemplate:
    """The role-structured template JSON at `path`, or the bundled one."""
    body = json.loads(read_text_or_bundled(path, "classification_prompt.json"))
    return ClassificationTemplate(system=body["system"], user=body["user"])


def default_classification_template() -> ClassificationTemplate:
    """The bundled classification prompt template."""
    return load_classification_template()


def build_classification_prompt(
    p: Provision, model: ConceptModel, template: ClassificationTemplate | None = None
) -> list[ChatMessage]:
    """Embed the provision into the classification prompt.

    Only non-scarce concepts are offered; scarce ones belong to the keyword
    branch. Substitution is pure text replacement.
    """
    template = template or default_classification_template()
    listing = render_concepts([c for c in model.concepts if not c.scarce])
    system = template.system.replace("{concept_list}", listing)
    user = template.user.replace("{concept_list}", listing).replace("{text}", p.text)
    return [ChatMessage("system", system), ChatMessage("user", user)]


def parse_concept_response(raw: str, model: ConceptModel) -> frozenset[str]:
    """Extract concept ids from a model response.

    Same shape as the compliance grammar: ids must appear before or in the
    first sentence; the literal token NONE is the no-concept sentinel and is
    exclusive. Recognized vocabulary is the non-scarce concept ids,
    case-insensitive on match but canonical in the result.
    """
    vocab = {cid.lower(): cid for cid in model.non_scarce_ids()}
    if not raw.strip():
        raise ParseError("empty classification response", raw=raw)
    if _NONE_TOKEN.search(raw):
        return frozenset()
    spans = sentence_spans(raw)
    first_end = spans[0][1] if spans else len(raw)
    found = set()
    for m in re.finditer(r"[A-Za-z][A-Za-z0-9_]*", raw[:first_end]):
        cid = vocab.get(m.group(0).lower())
        if cid is not None:
            found.add(cid)
    if not found:
        raise ParseError(
            f"no concept id or {NO_CONCEPT} marker found in response", raw=raw
        )
    return frozenset(found)


# --------------------------------------------------------------------------
# Keyword branch
# --------------------------------------------------------------------------

_LIGHT_SUFFIXES = ("ing", "ed", "es", "s")


def _light_stem(word: str) -> str:
    for suffix in _LIGHT_SUFFIXES:
        if word.endswith(suffix) and len(word) - len(suffix) >= 3:
            return word[: -len(suffix)]
    return word


def _keyword_pattern(keyword: str) -> re.Pattern[str]:
    # Lookarounds instead of \b so keywords may start/end with punctuation.
    return re.compile(r"(?<!\w)" + re.escape(keyword.strip()) + r"(?!\w)", re.IGNORECASE)


def _matches(text: str, keyword: str, stem: bool) -> bool:
    if _keyword_pattern(keyword).search(text):
        return True
    if not stem:
        return False
    want = [_light_stem(w.lower()) for w in re.findall(r"\w+", keyword)]
    have = [_light_stem(w.lower()) for w in re.findall(r"\w+", text)]
    n = len(want)
    return n > 0 and any(have[i : i + n] == want for i in range(len(have) - n + 1))


def classify_keywords(
    p: Provision, model: ConceptModel, stem: bool = False
) -> LabelSet:
    """Keyword lookup for the scarce concepts.

    A concept labels the provision iff its text contains at least one of the
    concept's keywords, matched case-insensitively on whole words (optionally
    after light suffix stemming).
    """
    hits = {
        c.concept_id
        for c in model.scarce_concepts()
        if any(_matches(p.text, kw, stem) for kw in c.keywords)
    }
    return LabelSet.of(hits, FROM_KEYWORD)


def fuse_labels(a: LabelSet, b: LabelSet) -> LabelSet:
    """Set union of two label sets; provenance joins to "both" on overlap.

    Commutative, associative and idempotent: the provenance values form a
    join-semilattice with "both" on top.
    """
    labels = a.labels | b.labels
    provenance = {}
    for label in labels:
        pa, pb = a.provenance.get(label), b.provenance.get(label)
        if pa is None:
            provenance[label] = pb
        elif pb is None or pa == pb:
            provenance[label] = pa
        else:
            provenance[label] = FROM_BOTH
    return LabelSet(frozenset(labels), provenance)
