"""Seeded input generator for the regcheck benchmark.

One call to `generate` writes a complete input set for one workload into a
directory and returns the plan the program's outputs are checked against:

- the document (plain corpus or structured DPA) with paragraphs, enumerated
  lists (some with "(i)"/"(ii)" sub-items), and optional oversize paragraphs
  wrapped over many lines without blank lines (PDF-extracted stretches);
- a concept model, a ruleset, one stub script per pipeline and the gold
  labels for the check units.

Every planted label is carried by a marker word or a keyword form that the
filler text can never contain, so the expected output of every unit is known
without running the program:

- filler words are consonant-vowel syllables over letters that no keyword and
  no marker word can be built from in that pattern (no "x", "h", "l", "c", ...);
- marker words contain an "x" at a fixed position, so one marker never occurs
  inside another word or another marker;
- sentences start with a capital and end with a period, and carry no other
  sentence terminator, so the splitter's boundaries are the generator's.

Stub scripts use only `match` rules (no FIFO entries), so responses depend on
the request alone and outputs are the same at any parallelism.
"""

from __future__ import annotations

import json
import math
import random
import textwrap
from dataclasses import dataclass, field
from pathlib import Path

CONSONANTS = "bdfgkmnprstvz"
VOWELS = "aeiou"
# Filler words that the splitter would read as a citation abbreviation.
ABBREVIATION_LIKE = frozenset({"para"})

NON_SCARCE = (
    ("Traceability", "Traceability"),
    ("RecordKeeping", "Record Keeping"),
    ("Temperature", "Temperature Control"),
    ("Labelling", "Labelling"),
    ("Sanitation", "Sanitation and Hygiene"),
    ("Licensing", "Licensing"),
    ("Packaging", "Packaging"),
    ("Inspection", "Inspection"),
)
SCARCE = (
    ("Colour", ["colour", "color", "discolouration", "discoloration"]),
    ("Firmness", ["firmness", "texture", "tenderness", "softening"]),
    ("Pathogen", ["pathogen", "pathogens", "pathogenic", "listeria", "salmonella"]),
    ("WaterContent", ["water content", "moisture", "humidity", "water activity"]),
)
# Forms planted in provisions. Multi-word and inflected forms are included;
# "colours" matches the keyword "colour" only under --stem.
PLANTED_FORMS = {
    "Colour": ("colour", "colours", "color", "discolouration"),
    "Firmness": ("firmness", "texture", "softening", "tenderness"),
    "Pathogen": ("pathogen", "pathogens", "listeria", "salmonella"),
    "WaterContent": ("water content", "moisture", "humidity", "water activity"),
}

CLASSIFY_UNPARSEABLE = "The provision is ambiguous and cannot be mapped."
CHECK_UNPARSEABLE = "The passage is unclear and no determination is made."
CLASSIFY_FALLBACK = "NONE. No candidate concept applies to this provision."
CHECK_FALLBACK = "R99. Nothing in the passage matches a rule."

FAIL_SHARE = 0.01  # planted unparseable responses, per pipeline
TOPIC_SHARE = 0.55  # provisions carrying a concept topic marker
KEYWORD_SHARE = 0.08  # provisions carrying a scarce-concept keyword form
TRIGGER_SHARE = 0.55  # check blocks carrying a rule trigger
DECOY_SHARE = 0.04  # check blocks whose stub answer disagrees with gold
N_TOPICS = 16


@dataclass(frozen=True)
class Spec:
    """Shape of one generated document. Counts are fixed; only content is seeded."""

    fmt: str  # "plain" or "structured"
    doc_name: str
    paragraphs: int
    lists: int
    oversize: int  # paragraphs wrapped over many lines with no blank lines
    oversize_sentences: int
    rules: int
    budget: int  # token budget of check passages


@dataclass
class Plan:
    """Paths of the generated files and the expected output of every unit."""

    doc: Path
    one_block: Path
    prefill: Path
    concepts: Path
    rules: Path
    classify_stub: Path
    check_stub: Path
    gold: Path
    # prov_id -> (labels, provenance, parse_error expected)
    provisions: dict[str, tuple[list[str], dict[str, str], bool]] = field(default_factory=dict)
    # unit_ref -> (predicted labels, gold labels, parse_error expected)
    passages: dict[str, tuple[list[str], list[str], bool]] = field(default_factory=dict)
    prefilled: int = 0  # passages of the prefill document

    def provision_ok(self, rec: dict) -> bool:
        """Whether one `labels.jsonl` record equals the plan for its provision."""
        want = self.provisions.get(rec.get("prov_id"))
        got = (rec.get("labels"), rec.get("provenance"), rec.get("parse_error") is not None)
        return want is not None and got == want

    def finding_ok(self, rec: dict) -> bool:
        """Whether one `findings.jsonl` record equals the plan for its passage."""
        want = self.passages.get(rec.get("unit_ref"))
        return want is not None and (rec.get("labels"), rec.get("parse_error") is not None) == (want[0], want[2])


@dataclass
class _Slot:
    """One provision: its words, and the phrases planted into it."""

    words: list[str]
    topic: int | None = None  # index into topics; -1 = unparseable
    keywords: list[tuple[str, str]] = field(default_factory=list)  # (concept, form)

    def text(self) -> str:
        return " ".join(self.words)


def _syllables(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(n))


def _lexicon(rng: random.Random, size: int = 1500) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        word = _syllables(rng, rng.randint(2, 4))
        if word not in ABBREVIATION_LIKE:
            words.add(word)
    return sorted(words)


def _markers(rng: random.Random, n: int) -> list[str]:
    out: list[str] = []
    while len(out) < n:
        word = _syllables(rng, 2) + "x" + _syllables(rng, 2)
        if word not in out:
            out.append(word)
    return out


def _insert(rng: random.Random, words: list[str], phrase: str) -> None:
    words.insert(rng.randint(1, len(words)), phrase)


def _passage_texts(sentences: list[str], budget: int) -> list[str]:
    """Passages of one block under the documented bisection at sentence boundaries."""
    joined = " ".join(sentences)
    if math.ceil(len(joined) / 4) <= budget:
        return [joined]
    mid = (len(sentences) + 1) // 2
    return _passage_texts(sentences[:mid], budget) + _passage_texts(sentences[mid:], budget)


def generate(spec: Spec, seed: int, out_dir: Path) -> Plan:
    rng = random.Random(seed)
    lex = _lexicon(rng)
    markers = _markers(rng, N_TOPICS + 3 * spec.rules)
    topic_markers = markers[:N_TOPICS]
    trigger_markers = markers[N_TOPICS : N_TOPICS + spec.rules]
    decoy_markers = markers[N_TOPICS + spec.rules : N_TOPICS + 2 * spec.rules]
    fail_markers = markers[N_TOPICS + 2 * spec.rules :]

    def filler(lo: int, hi: int) -> list[str]:
        return [rng.choice(lex) for _ in range(rng.randint(lo, hi))]

    def sentence_slot() -> _Slot:
        words = filler(8, 15)
        words[0] = words[0].capitalize()
        return _Slot(words)

    # Topics: the model branch's answer for provisions carrying each marker.
    topics: list[tuple[str, list[str]]] = []
    for k in range(N_TOPICS):
        if k == 0:
            topics.append(("NONE. The provision states no listed requirement.", []))
            continue
        ids = sorted(rng.sample([cid for cid, _ in NON_SCARCE], rng.choice((1, 1, 2))))
        topics.append((", ".join(ids) + ". The provision states this requirement.", ids))

    # Pass 1: block shapes, so the unit counts are known before any planting.
    blocks: list[dict] = []
    for _ in range(spec.paragraphs):
        blocks.append({"kind": "para", "slots": [sentence_slot() for _ in range(rng.randint(1, 6))]})
    for _ in range(spec.lists):
        items = []
        for _ in range(rng.randint(3, 5)):
            n_subs = rng.choice((0, 0, 2, 3))
            items.append({"inner": filler(3, 6), "subs": [_Slot(filler(4, 9)) for _ in range(n_subs)],
                          "slot": _Slot(filler(4, 10)) if not n_subs else None})
        blocks.append({"kind": "list", "header": filler(5, 9), "items": items})
    for _ in range(spec.oversize):
        blocks.append({"kind": "para", "oversize": True,
                       "slots": [sentence_slot() for _ in range(spec.oversize_sentences)]})
    # Oversize stretches sit among the ordinary blocks, never first.
    head, tail = blocks[:1], blocks[1:]
    rng.shuffle(tail)
    blocks = head + tail

    def block_slots(block: dict) -> list[_Slot]:
        if block["kind"] == "para":
            return block["slots"]
        return [s for it in block["items"] for s in (it["subs"] or [it["slot"]])]

    # Pass 2: classification plants.
    slots = [s for b in blocks for s in block_slots(b)]
    n_fail = round(FAIL_SHARE * len(slots))
    failing = set(rng.sample(range(len(slots)), n_fail))
    for i, slot in enumerate(slots):
        if i in failing:
            slot.topic = -1
        elif rng.random() < TOPIC_SHARE:
            slot.topic = rng.randrange(N_TOPICS)
        if rng.random() < KEYWORD_SHARE:
            concepts = rng.sample(list(PLANTED_FORMS), rng.choice((1, 1, 1, 2)))
            slot.keywords = [(c, rng.choice(PLANTED_FORMS[c])) for c in sorted(concepts)]
        phrases = [form for _, form in slot.keywords]
        if slot.topic is not None:
            phrases.append(fail_markers[0] if slot.topic == -1 else topic_markers[slot.topic])
        for phrase in phrases:
            _insert(rng, slot.words, phrase)

    # Pass 3: check plants, one per ordinary block; oversize blocks carry none,
    # because every chunk of one sees the whole block as context.
    ordinary = [b for b in blocks if not b.get("oversize")]
    oversize_passages = sum(
        len(_passage_texts([s.text() + "." for s in b["slots"]], spec.budget))
        for b in blocks if b.get("oversize")
    )
    n_check_fail = round(FAIL_SHARE * (len(ordinary) + oversize_passages))
    check_failing = set(rng.sample(range(len(ordinary)), n_check_fail))
    for i, block in enumerate(ordinary):
        rule = rng.randrange(spec.rules)
        roll = rng.random()
        if i in check_failing:
            block["check"] = ("fail", rule)
            marker = fail_markers[1]
        elif roll < TRIGGER_SHARE:
            block["check"] = ("trigger", rule)
            marker = trigger_markers[rule]
        elif roll < TRIGGER_SHARE + DECOY_SHARE:
            block["check"] = ("decoy", rule)
            marker = decoy_markers[rule]
        else:
            block["check"] = ("none", rule)
            continue
        _insert(rng, rng.choice(block_slots(block)).words, marker)

    # Render.
    plan = Plan(
        doc=out_dir / f"{spec.doc_name}.txt",
        one_block=out_dir / f"{spec.doc_name}_one.txt",
        prefill=out_dir / f"{spec.doc_name}_prefill.txt",
        concepts=out_dir / "concepts.jsonl",
        rules=out_dir / "rules.jsonl",
        classify_stub=out_dir / "classify_stub.jsonl",
        check_stub=out_dir / "check_stub.jsonl",
        gold=out_dir / "gold.jsonl",
    )
    doc_id = spec.doc_name
    rendered: list[str] = []
    prefill: list[str] = []
    seq = 0
    seen_passages: set[str] = set()
    for bi, block in enumerate(blocks):
        if block["kind"] == "para":
            sentences = [s.text() + "." for s in block["slots"]]
            for si, slot in enumerate(block["slots"]):
                _plan_provision(plan, f"{doc_id}:b{bi}:s{si}", slot, topics)
            text = " ".join(sentences)
            if block.get("oversize"):
                body = textwrap.fill(text, 90, break_long_words=False, break_on_hyphens=False)
                chunks = _passage_texts(sentences, spec.budget)
            else:
                body = textwrap.fill(text, 90, break_long_words=False, break_on_hyphens=False) \
                    if rng.random() < 0.3 else text
                chunks = [text]
            source = ("¶ " + body) if spec.fmt == "structured" else body
        else:
            header = " ".join(block["header"]).capitalize() + ":"
            lines = [("* " if spec.fmt == "structured" else "") + header]
            items = []
            si = 0
            for k, item in enumerate(block["items"]):
                letter = "abcdefgh"[k]
                last = k == len(block["items"]) - 1
                end = "." if last else ";"
                if item["subs"]:
                    inner = f"({letter}) " + " ".join(item["inner"]) + ":"
                    subs = [f"({roman}) {s.text()}{end if j == len(item['subs']) - 1 else ';'}"
                            for j, (roman, s) in enumerate(zip(("i", "ii", "iii"), item["subs"]))]
                    for sub_text, slot in zip(subs, item["subs"]):
                        _plan_provision(plan, f"{doc_id}:b{bi}:s{si}", slot, topics)
                        si += 1
                    text = inner + " " + " ".join(subs)
                else:
                    text = f"({letter}) {item['slot'].text()}{end}"
                    _plan_provision(plan, f"{doc_id}:b{bi}:s{si}", item["slot"], topics)
                    si += 1
                items.append(text)
                lines.append(("- " if spec.fmt == "structured" else "") + text)
            source = "\n".join(lines)
            chunks = [" ".join([header, *items])]
        kind, rule = block.get("check", ("none", 0))
        for chunk in chunks:
            if math.ceil(len(chunk) / 4) > spec.budget:
                raise AssertionError("generated block does not fit the check budget")
            if chunk in seen_passages:
                raise AssertionError("generated passage texts must be unique")
            seen_passages.add(chunk)
            rid = f"R{rule + 1}"
            pred = [rid] if kind in ("trigger", "decoy") else []
            gold = [rid] if kind in ("trigger", "fail") else []
            plan.passages[f"{doc_id}:p{seq}"] = (pred, gold, kind == "fail")
            seq += 1
            if bi % 2 == 0:
                plan.prefilled += 1
        rendered.append(source)
        if bi % 2 == 0:
            prefill.append(source)

    title = "# " + " ".join(filler(3, 6)).capitalize() + "\n\n" if spec.fmt == "structured" else ""
    out_dir.mkdir(parents=True, exist_ok=True)
    plan.doc.write_text(title + "\n\n".join(rendered) + "\n", encoding="utf-8")
    plan.prefill.write_text(title + "\n\n".join(prefill) + "\n", encoding="utf-8")
    plan.one_block.write_text(title + rendered[0] + "\n", encoding="utf-8")

    concept_lines = [{"version": f"bench-{seed}"}]
    concept_lines += [{"concept_id": cid, "name": name, "scarce": False} for cid, name in NON_SCARCE]
    concept_lines += [{"concept_id": cid, "name": cid, "scarce": True, "keywords": kws} for cid, kws in SCARCE]
    _write_jsonl(plan.concepts, concept_lines)
    _write_jsonl(plan.rules, [
        {"rule_id": f"R{k + 1}", "text": "The processor shall " + " ".join(filler(10, 24)) + ".",
         "source_ref": f"Schedule {k // 8 + 1}({'abcdefgh'[k % 8]})"}
        for k in range(spec.rules)
    ])
    classify_stub = [{"match": topic_markers[k], "response": topics[k][0]} for k in range(N_TOPICS)]
    classify_stub.append({"match": fail_markers[0], "response": CLASSIFY_UNPARSEABLE})
    classify_stub.append({"match": "Provision:", "response": CLASSIFY_FALLBACK})
    _write_jsonl(plan.classify_stub, classify_stub)
    check_stub = []
    for k in range(spec.rules):
        check_stub.append({"match": trigger_markers[k], "response": f"R{k + 1}. The passage sets out this duty."})
        check_stub.append({"match": decoy_markers[k], "response": f"R{k + 1}. The passage appears to touch this duty."})
    check_stub.append({"match": fail_markers[1], "response": CHECK_UNPARSEABLE})
    check_stub.append({"match": "Text:", "response": CHECK_FALLBACK})
    _write_jsonl(plan.check_stub, check_stub)
    _write_jsonl(plan.gold, [{"unit_ref": ref, "labels": gold} for ref, (_, gold, _) in plan.passages.items()])
    return plan


def _plan_provision(plan: Plan, ref: str, slot: _Slot, topics: list[tuple[str, list[str]]]) -> None:
    llm = set() if slot.topic in (None, -1) else set(topics[slot.topic][1])
    kw = {c for c, _ in slot.keywords}
    provenance = {c: "both" if c in llm and c in kw else ("llm" if c in llm else "keyword")
                  for c in sorted(llm | kw)}
    plan.provisions[ref] = (sorted(llm | kw), provenance, slot.topic == -1)


def _write_jsonl(path: Path, records: list[dict]) -> None:
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")
