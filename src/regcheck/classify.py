"""Concept classification of provisions: model-based, keyword-based, and fusion.

The model branch covers the non-scarce concepts via a role-structured prompt;
the keyword branch covers scarce concepts by case-insensitive whole-word
lookup. Fusion is a set union with provenance tracking, so the two branches
can run in either order or concurrently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Mapping

from .corpus import Provision, first_sentence_end
from .errors import ParseError, TemplateError
from .llm import ChatMessage
from .storage import read_json
from .taxonomy import CONCEPT_ID, NO_CONCEPT, ConceptModel, render_concepts

FROM_LLM = "llm"
FROM_KEYWORD = "keyword"
FROM_BOTH = "both"

_NONE_TOKEN = re.compile(rf"\b{NO_CONCEPT}\b")


@dataclass(frozen=True)
class LabelSet:
    """Concept labels for one provision, each mapped to its provenance."""

    provenance: Mapping[str, str]

    @property
    def labels(self) -> frozenset[str]:
        return frozenset(self.provenance)

    @classmethod
    def of(cls, labels, source: str) -> "LabelSet":
        return cls(dict.fromkeys(labels, source))


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
    """The role-structured template JSON at `path`, or the bundled one: an
    object with string `system` and `user` fields."""
    body = read_json(path, "classification_prompt.json")
    if not isinstance(body, dict) or not all(
        isinstance(body.get(k), str) for k in ("system", "user")
    ):
        raise TemplateError(
            f"classification template {path} must be a JSON object with string "
            "'system' and 'user' fields"
        )
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
    return classification_prompter(model, template)(p)


def classification_prompter(
    model: ConceptModel, template: ClassificationTemplate | None = None
) -> Callable[[Provision], list[ChatMessage]]:
    """`build_classification_prompt` for one model and template, with the
    concept listing rendered and the template loaded once."""
    template = template or default_classification_template()
    listing = render_concepts([c for c in model.concepts if not c.scarce])
    system = template.system.replace("{concept_list}", listing)
    user = template.user.replace("{concept_list}", listing)
    return lambda p: [
        ChatMessage("system", system),
        ChatMessage("user", user.replace("{text}", p.text)),
    ]


@lru_cache(maxsize=8)
def _vocabulary(model: ConceptModel) -> dict[str, str]:
    """Lower-cased non-scarce concept id -> canonical id, built once per model."""
    return {cid.lower(): cid for cid in model.non_scarce_ids()}


def parse_concept_response(raw: str, model: ConceptModel) -> frozenset[str]:
    """Extract concept ids from a model response.

    Same shape as the compliance grammar: ids must appear before or in the
    first sentence; the literal token NONE is the no-concept sentinel and is
    exclusive. Recognized vocabulary is the non-scarce concept ids,
    case-insensitive on match but canonical in the result.
    """
    vocab = _vocabulary(model)
    if not raw.strip():
        raise ParseError("empty classification response")
    if _NONE_TOKEN.search(raw):
        return frozenset()
    found = set()
    for m in CONCEPT_ID.finditer(raw, 0, first_sentence_end(raw)):
        cid = vocab.get(m.group(0).lower())
        if cid is not None:
            found.add(cid)
    if not found:
        raise ParseError(f"no concept id or {NO_CONCEPT} marker found in response")
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


_WORD = re.compile(r"\w+")


# Keyed by the raw token, so each distinct word is lower-cased and stemmed once
# per process. An entry costs ~200 bytes, so the bound caps the cache at ~3 MB.
# A 15k-provision food corpus has ~3k distinct tokens; a larger vocabulary only
# evicts rare words, since word frequencies are heavily skewed. lru_cache is
# thread-safe, so classify's worker threads share it.
@lru_cache(maxsize=1 << 14)
def _stem_token(word: str) -> str:
    return _light_stem(word.lower())


def _stemmed_words(text: str) -> tuple[str, ...]:
    return tuple(map(_stem_token, _WORD.findall(text)))


def _whole_words(keywords) -> re.Pattern[str]:
    """One case-insensitive alternation of `keywords`, each a whole word."""
    alternation = "|".join(re.escape(kw.strip()) for kw in keywords)
    return re.compile(r"(?<!\w)(?:" + alternation + r")(?!\w)", re.IGNORECASE)


class _KeywordIndex:
    """The scarce concepts of one model, compiled for matching.

    Each concept gets one case-insensitive alternation of its keywords, with
    lookarounds instead of \\b so keywords may start or end with punctuation.
    One more alternation over every concept's keywords gates them: where no
    keyword matches, no concept's pattern can, since the alternation tries
    each keyword at each position. Most provisions name no scarce concept, so
    one search rejects them.
    With stemming, each keyword's stemmed word n-gram is also filed under its
    first word, so a text is tokenised and stemmed once and each of its words
    costs one dict lookup: a word-level Aho-Corasick lookup (Aho & Corasick,
    CACM 18(6), 1975) that verifies each candidate n-gram directly. The walk
    runs only when the text holds some n-gram's first word.
    """

    def __init__(self, model: ConceptModel, stem: bool):
        scarce = [c for c in model.scarce_concepts() if c.keywords]
        self.patterns = [(c.concept_id, _whole_words(c.keywords)) for c in scarce]
        self.gate = _whole_words(kw for c in scarce for kw in c.keywords)
        self.ngrams: dict[str, list[tuple[tuple[str, ...], str]]] = {}
        if stem:
            for c in scarce:
                for kw in c.keywords:
                    want = _stemmed_words(kw)
                    if want:
                        self.ngrams.setdefault(want[0], []).append((want, c.concept_id))
        self.first_words = frozenset(self.ngrams)

    def match(self, text: str) -> set[str]:
        hits: set[str] = set()
        if self.ngrams:
            have = _stemmed_words(text)
            if not self.first_words.isdisjoint(have):
                for i, word in enumerate(have):
                    for want, cid in self.ngrams.get(word, ()):
                        if cid not in hits and have[i : i + len(want)] == want:
                            hits.add(cid)
        if not self.gate.search(text):
            return hits
        for cid, pattern in self.patterns:
            if cid not in hits and pattern.search(text):
                hits.add(cid)
        return hits


@lru_cache(maxsize=8)
def _keyword_index(model: ConceptModel, stem: bool) -> _KeywordIndex:
    return _KeywordIndex(model, stem)


def classify_keywords(
    p: Provision, model: ConceptModel, stem: bool = False
) -> LabelSet:
    """Keyword lookup for the scarce concepts.

    A concept labels the provision iff its text contains at least one of the
    concept's keywords, matched case-insensitively on whole words (optionally
    after light suffix stemming).
    """
    return LabelSet.of(_keyword_index(model, stem).match(p.text), FROM_KEYWORD)


def fuse_labels(a: LabelSet, b: LabelSet) -> LabelSet:
    """Set union of two label sets; provenance joins to "both" on overlap.

    Commutative, associative and idempotent: the provenance values form a
    join-semilattice with "both" on top.
    """
    provenance = dict(b.provenance)
    for label, pa in a.provenance.items():
        pb = provenance.get(label)
        provenance[label] = pa if pb is None or pb == pa else FROM_BOTH
    return LabelSet(provenance)
