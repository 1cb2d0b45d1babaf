"""Label spaces: the food-safety concept model and compliance rulesets.

Both are data, loaded from line-delimited JSON files, validated on load and
immutable afterwards. Rule identifier "R99" is reserved as the
not-applicable sentinel and may never appear in a ruleset.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .errors import SchemaError
from .storage import read_jsonl

NOT_APPLICABLE = "R99"

_RULE_ID = re.compile(r"^R\d+$")


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

    def ids(self) -> frozenset[str]:
        return self._ids

    def ordered_ids(self) -> tuple[str, ...]:
        return tuple(r.rule_id for r in self.rules)


def load_concept_model(path: str | Path) -> ConceptModel:
    """Load and validate a concept model from a JSONL file.

    One record per line: ``{"concept_id", "name", "scarce", "keywords"}``.
    Scarce concepts must carry keywords, non-scarce ones must not, and at
    least one non-scarce concept must exist.
    """
    concepts: list[Concept] = []
    seen: set[str] = set()
    version = ""
    for i, rec in enumerate(read_jsonl(path)):
        where = f"concepts[{i}]"
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
        if not scarce and keywords:
            raise SchemaError(
                f"non-scarce concept {cid!r} must not define keywords",
                f"{where}.keywords",
            )
        concepts.append(Concept(cid, name, scarce, tuple(keywords)))
    if not concepts:
        raise SchemaError("concept model is empty", "concepts")
    if not any(not c.scarce for c in concepts):
        raise SchemaError("at least one non-scarce concept is required", "concepts")
    return ConceptModel(tuple(concepts), version)


def load_ruleset(path: str | Path, name: str = "") -> Ruleset:
    """Load and validate a ruleset from a JSONL file.

    One record per line: ``{"rule_id", "text", "source_ref"}``. Identifiers
    must match ``R<digits>``, be unique, and must not use the reserved
    sentinel R99.
    """
    rules: list[RuleSpec] = []
    seen: set[str] = set()
    for i, rec in enumerate(read_jsonl(path)):
        where = f"rules[{i}]"
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
        raise SchemaError("ruleset is empty", "rules")
    return Ruleset(tuple(rules), name or Path(path).stem)


def render_rules(rs: Ruleset) -> str:
    """Canonical rule listing for prompts: "R<k>: <text>", one per line, file order."""
    return "\n".join(f"{r.rule_id}: {r.text}" for r in rs.rules)


def render_concepts(concepts: tuple[Concept, ...] | list[Concept]) -> str:
    """Canonical concept listing for prompts: "id: name", one per line, model order."""
    return "\n".join(f"{c.concept_id}: {c.name}" for c in concepts)


def _require_str(rec: dict, key: str, where: str) -> str:
    value = rec.get(key)
    if not isinstance(value, str) or not value.strip():
        raise SchemaError(f"{key} must be a non-empty string", f"{where}.{key}")
    return value
