"""Label spaces: the food-safety concept model and compliance rulesets.

Both are data, loaded from line-delimited JSON files, validated on load and
immutable afterwards. Rule identifier "R99" is reserved as the
not-applicable sentinel and may never appear in a ruleset; concept id "NONE"
is reserved as the no-concept sentinel, in any case.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import SchemaError
from .storage import numbered_jsonl

NOT_APPLICABLE = "R99"
NO_CONCEPT = "NONE"

_RULE_ID = re.compile(r"^R\d+$")
# The word a classification answer names a non-scarce concept by, matched ignoring case.
CONCEPT_ID = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Concept:
    concept_id: str
    name: str
    scarce: bool = False
    keywords: tuple[str, ...] = ()


@dataclass(frozen=True)
class ConceptModel:
    concepts: tuple[Concept, ...]
    version: str = ""

    def __post_init__(self):
        # classify keeps per-model tables keyed by the model; hashing every
        # concept on each lookup would cost as much as rebuilding them.
        object.__setattr__(self, "_hash", hash((self.concepts, self.version)))

    def __hash__(self) -> int:
        return self._hash

    def scarce_concepts(self) -> tuple[Concept, ...]:
        return tuple(c for c in self.concepts if c.scarce)

    def non_scarce_ids(self) -> tuple[str, ...]:
        return tuple(c.concept_id for c in self.concepts if not c.scarce)


@dataclass(frozen=True)
class RuleSpec:
    rule_id: str
    text: str
    source_ref: str = ""


@dataclass(frozen=True)
class Ruleset:
    rules: tuple[RuleSpec, ...]
    name: str = ""

    def __post_init__(self):
        # The ruleset is frozen, so its id set is computed once, not per response.
        object.__setattr__(self, "_ids", frozenset(r.rule_id for r in self.rules))
        object.__setattr__(self, "_id_sets", {})  # each set `id_set` has handed out, by itself

    def ids(self) -> frozenset[str]:
        return self._ids

    def id_set(self, ids: Iterable[str]) -> frozenset[str]:
        """`frozenset(ids)`, as one object per distinct set for this ruleset, so that the
        findings of a run share a few sets; `setdefault` keeps that so across threads."""
        ids = frozenset(ids)
        return self._id_sets.setdefault(ids, ids)

    def ordered_ids(self) -> tuple[str, ...]:
        return tuple(r.rule_id for r in self.rules)


def load_concept_model(path: str | Path) -> ConceptModel:
    """Load and validate a concept model from a JSONL file.

    One record per line: ``{"concept_id", "name", "scarce", "keywords"}``.
    Scarce concepts must carry keywords, none of them blank; non-scarce ones
    must not, and at least one non-scarce concept must exist. A non-scarce id
    is what a model answer names, so it must match `CONCEPT_ID`, differ from
    every other id ignoring case, and not be the sentinel NONE.
    """
    concepts: list[Concept] = []
    seen: set[str] = set()
    folded: dict[str, tuple[str, bool]] = {}  # lower-cased id -> (first such id, scarce)
    version = ""
    for i, (line, rec) in enumerate(numbered_jsonl(path)):
        where = f"{path}:{line}: concepts[{i}]"
        if "concept_id" not in rec and "version" in rec:
            version = str(rec["version"])
            continue
        cid = _require_str(rec, "concept_id", where)
        name = _require_str(rec, "name", where)
        scarce = rec.get("scarce", False)
        if not isinstance(scarce, bool):
            raise SchemaError("scarce must be a boolean", f"{where}.scarce")
        keywords = rec.get("keywords", [])
        if not isinstance(keywords, list) or not all(isinstance(k, str) for k in keywords):
            raise SchemaError("keywords must be a list of strings", f"{where}.keywords")
        if cid in seen:
            raise SchemaError(f"duplicate concept_id {cid!r}", f"{where}.concept_id")
        seen.add(cid)
        if scarce and not keywords:
            raise SchemaError(
                f"scarce concept {cid!r} must define keywords", f"{where}.keywords"
            )
        if not all(k.strip() for k in keywords):
            raise SchemaError(f"keywords of {cid!r} must not be blank", f"{where}.keywords")
        if not scarce and keywords:
            raise SchemaError(
                f"non-scarce concept {cid!r} must not define keywords",
                f"{where}.keywords",
            )
        _fold_case(cid, scarce, folded, f"{where}.concept_id")
        concepts.append(Concept(cid, name, scarce, tuple(keywords)))
    if not concepts:
        raise SchemaError("concept model is empty", f"{path}: concepts")
    if all(c.scarce for c in concepts):
        raise SchemaError("at least one non-scarce concept is required", f"{path}: concepts")
    return ConceptModel(tuple(concepts), version)


def load_ruleset(path: str | Path) -> Ruleset:
    """Load and validate a ruleset from a JSONL file, named after the file's stem.

    One record per line: ``{"rule_id", "text", "source_ref"}``. Identifiers
    must match ``R<digits>``, be unique, and must not use the reserved
    sentinel R99.
    """
    rules: list[RuleSpec] = []
    seen: set[str] = set()
    for i, (line, rec) in enumerate(numbered_jsonl(path)):
        where = f"{path}:{line}: rules[{i}]"
        rid = _require_str(rec, "rule_id", where)
        text = _require_str(rec, "text", where)
        source_ref = rec.get("source_ref", "")
        if not isinstance(source_ref, str):
            raise SchemaError("source_ref must be a string", f"{where}.source_ref")
        if not _RULE_ID.match(rid):
            raise SchemaError(
                f"rule_id {rid!r} must match R<digits>", f"{where}.rule_id"
            )
        if rid == NOT_APPLICABLE:
            raise SchemaError(
                f"{NOT_APPLICABLE} is reserved as the not-applicable sentinel",
                f"{where}.rule_id",
            )
        if rid in seen:
            raise SchemaError(f"duplicate rule_id {rid!r}", f"{where}.rule_id")
        seen.add(rid)
        rules.append(RuleSpec(rid, text, source_ref))
    if not rules:
        raise SchemaError("ruleset is empty", f"{path}: rules")
    return Ruleset(tuple(rules), Path(path).stem)


def render_rules(rs: Ruleset) -> str:
    """Canonical rule listing for prompts: "R<k>: <text>", one per line, file order."""
    return "\n".join(f"{r.rule_id}: {r.text}" for r in rs.rules)


def render_concepts(concepts: tuple[Concept, ...] | list[Concept]) -> str:
    """Canonical concept listing for prompts: "id: name", one per line, model order."""
    return "\n".join(f"{c.concept_id}: {c.name}" for c in concepts)


def _fold_case(cid: str, scarce: bool, folded: dict[str, tuple[str, bool]], where: str) -> None:
    """File `cid` under its lower case. Answers name non-scarce ids ignoring case, so a
    non-scarce id must be nameable alone, and no id may equal a non-scarce one ignoring case."""
    if not scarce and not CONCEPT_ID.fullmatch(cid):
        raise SchemaError(f"non-scarce concept_id {cid!r} must match {CONCEPT_ID.pattern}", where)
    if not scarce and cid.lower() == NO_CONCEPT.lower():
        raise SchemaError(f"{cid!r} is reserved as the no-concept sentinel {NO_CONCEPT}", where)
    other, other_scarce = folded.setdefault(cid.lower(), (cid, scarce))
    if other != cid and not (scarce and other_scarce):
        kind = "scarce" if scarce else "non-scarce"
        raise SchemaError(f"{kind} concept_id {cid!r} equals {other!r} ignoring case", where)


def _require_str(rec: dict, key: str, where: str) -> str:
    value = rec.get(key)
    if not isinstance(value, str) or not value.strip():
        raise SchemaError(f"{key} must be a non-empty string", f"{where}.{key}")
    return value
