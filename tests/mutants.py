"""Mutation check: each mutant breaks one law in a copy of `src/`, and its tests must fail.

Each entry of `MUTANTS` names a file under `src/regcheck/`, an exact snippet of it
that must occur once, the snippet's replacement, the law the edit breaks and the
pytest arguments that must kill it. For each mutant this copies `src/` into a
temporary directory, applies the edit there, and runs `pytest -x -q` with the
copy first on `PYTHONPATH` and pytest's temporary files inside the copy. The copy
is also named in `MUTANT_SRC`, and `tests/conftest.py` stops the session with a
usage error when the tests import another one. A mutant is killed when its tests
fail. A mutant that survives, or a snippet that is no
longer in its file, fails the run. The tests first run once on the unmutated
source, one set at a time; then the mutants run on one worker per CPU this process
may use, and their results are printed in table order. Last come the run's wall time
and the three test selections whose runs took longest in total.

Run from anywhere, all mutants or the named ones:

    python tests/mutants.py [NAME ...]
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# A mutant whose tests run this long is counted as killed: they would never pass.
TIMEOUT_S = 120


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/regcheck/
    old: str
    new: str
    law: str
    pytest_args: tuple[str, ...]


_ORDERED_MAP = ("tests/test_pipeline.py", "-k", "TestOrderedMap")
_ANSWERS = ("tests/test_pipeline.py", "-k", "TestAnswers")
_STARTUP = ("tests/test_startup.py",)
_PARSE_REFERENCE = ("tests/test_corpus.py", "-k", "TestParseDocumentAgainstReference")
_ONE_COPY = "tests/test_one_copy.py"
_STREAM = "tests/test_stream.py"
_EVALUATION = "tests/test_evaluation.py"
_UNWRITABLE = ("tests/test_cli.py", "-k", "unwritable_output_location")
_LAWS = "tests/test_laws.py"
_CHECK_LAW = (_LAWS, "-k", "check_law")
_CHECK_UNITS = (
    "    units = _units(args.artifact, cfg, doc_id, cfg.granularity, cfg.budget, context_on)\n"
)
_CHECK_TABLE = "    units = UnitTable(blocks, doc_id, cfg.granularity, cfg.budget, context_on)\n"
_CLASSIFY_UNITS = "    provisions = _units(args.input, cfg, doc_id, SENTENCE)\n"
_UNITS_MEMORY = (_STREAM, "-k", "units_in_little_more")
_UNIT_TABLE_GROWTH = ("tests/test_growth.py", "-m", "growth", "-k", "unit_table_is_linear")
_KEYWORDS_GROWTH = ("tests/test_growth.py", "-m", "growth", "-k", "classify_keywords")
_SEGMENT_UNITS = "        for u in _units(args.input, cfg, doc_id, cfg.granularity, budget)\n"
_SENTENCE_INDEX = "            i = i + 1 if block == last else 0\n"
_GATE = "        if self.walk_covers and text.isascii() or not self.gate.search(text):\n"
_FUSED_MEMO = "@lru_cache(maxsize=1 << 10)\ndef fused_labels("
_RECORD_LINES = ("tests/test_pipeline.py", "-k", "RecordLines")

MUTANTS = (
    Mutant(
        "unit-sent-after-a-failed-call",
        "pipeline.py",
        "        if failed:\n",
        "        if False:\n",
        "no unit is sent after a failed call",
        _ANSWERS,
    ),
    Mutant(
        "scheduler-unbounded-queue",
        "pipeline.py",
        "            if len(pending) == _QUEUED_PER_WORKER * parallelism:\n",
        "            if False:\n",
        "at most 2 x parallelism units are submitted",
        _ORDERED_MAP,
    ),
    Mutant(
        "scheduler-no-cancel",
        "pipeline.py",
        "pool.shutdown(cancel_futures=True)",
        "pool.shutdown()",
        "the queue is cancelled on the way out",
        _ORDERED_MAP,
    ),
    Mutant(
        "scheduler-completion-order",
        "pipeline.py",
        "        for item in items:\n"
        "            if len(pending) == _QUEUED_PER_WORKER * parallelism:\n"
        "                yield pending.popleft().result()\n"
        "            pending.append(pool.submit(fn, item))\n"
        "        while pending:\n"
        "            yield pending.popleft().result()\n",
        "        from concurrent.futures import as_completed\n"
        "        for item in items:\n"
        "            if len(pending) == _QUEUED_PER_WORKER * parallelism:\n"
        "                pending.remove(done := next(as_completed(pending)))\n"
        "                yield done.result()\n"
        "            pending.append(pool.submit(fn, item))\n"
        "        for future in as_completed(pending):\n"
        "            yield future.result()\n",
        "results keep input order at any parallelism",
        _ORDERED_MAP,
    ),
    Mutant(
        "split-no-lookbehind",
        "corpus.py",
        '_BOUNDARY = re.compile(r"([.!?](?<![.!?].)[.!?]*)',
        '_BOUNDARY = re.compile(r"([.!?][.!?]*)',
        "segmentation is linear time on a terminator run",
        ("tests/test_growth.py", "-m", "growth", "-k", "split_text"),
    ),
    Mutant(
        "list-item-join-per-line",
        "corpus.py",
        "                items[-1].append(line.strip())",
        '                items[-1] = [" ".join([*items[-1], line.strip()])]',
        "segmentation is linear time on a wrapped list item",
        ("tests/test_growth.py", "-m", "growth", "-k", "parse_document"),
    ),
    Mutant(
        "rule-ids-joined-one-by-one",
        "compliance.py",
        '    items = ",\\n        ".join(map(_encode_str, ordered))\n',
        '    items = ""\n'
        "    for rid in map(_encode_str, ordered):\n"
        '        items = f"{items},\\n        {rid}" if items else rid\n',
        "report.json's items are written in time linear in a finding's rule ids",
        ("tests/test_growth.py", "-m", "growth", "-k", "json_finding"),
    ),
    Mutant(
        "block-text-per-unit",
        "corpus.py",
        "            context = block_text(block) if context_on else None\n"
        "            for text in self._texts(block, budget):\n",
        "            for text in self._texts(block, budget):\n"
        "                context = block_text(block) if context_on else None\n",
        "check units are made in time linear in a long block",
        _UNIT_TABLE_GROWTH,
    ),
    Mutant(
        "write-joins-all-chunks",
        "storage.py",
        "        fh.writelines(chunks)\n",
        '        fh.write("".join(chunks))\n',
        "writing a file holds one chunk, not the file",
        ("tests/test_storage.py", "tests/test_outputs.py"),
    ),
    Mutant(
        "reader-accepts-a-value-ending-early",
        "storage.py",
        "                    if end != len(line):  # not one whole value: `json.loads` raises its error\n",
        "                    if end < 0:\n",
        "a JSONL reader accepts exactly what `json.loads` accepts: not a line's first value",
        ("tests/test_storage.py", "-k", "codec_law"),
    ),
    Mutant(
        "line-encoder-escapes-non-ascii",
        "storage.py",
        "from json.encoder import c_make_encoder, encode_basestring\n",
        "from json.encoder import c_make_encoder, encode_basestring_ascii as encode_basestring\n",
        "each JSONL line is `json.dumps(record, ensure_ascii=False)`",
        ("tests/test_storage.py", "-k", "codec_law"),
    ),
    Mutant(
        "jsonl-read-eagerly",
        "storage.py",
        "def numbered_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:\n",
        "def numbered_jsonl(path):\n"
        "    return iter(list(_numbered_jsonl(path)))\n\n\n"
        "def _numbered_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:\n",
        "a loader reports the first problem in file order",
        ("tests/test_storage.py", "tests/test_cli.py", "-k", "numbered_jsonl or file_order"),
    ),
    Mutant(
        "blank-keyword-accepted",
        "taxonomy.py",
        "        if not all(k.strip() for k in keywords):\n",
        "        if False:\n",
        "validation that can fail runs before the first call",
        ("tests/test_cli.py", "-k", "rejected_jsonl_record"),
    ),
    Mutant(
        "scarce-id-case-collision",
        "taxonomy.py",
        "    if other != cid and not (scarce and other_scarce):\n",
        "    if other != cid and not scarce and not other_scarce:\n",
        "a concept is labelled once: no id equals a non-scarce one ignoring case",
        ("tests/test_cli.py", "-k", "rejected_jsonl_record"),
    ),
    Mutant(
        "price-checked-after-backend",
        "cli.py",
        "    price_of(prices, cfg.model_name)\n    return make_backend(cfg)\n",
        "    backend = make_backend(cfg)\n    price_of(prices, cfg.model_name)\n    return backend\n",
        "a rejected run makes nothing, not even its cache directory",
        ("tests/test_config.py", "-k", "probe"),
    ),
    Mutant(
        "runs-share-the-cache",
        "cli.py",
        "_backend(cfg.backend if cfg.runs == 1 else replace(cfg.backend, cache_dir=None), prices)",
        "_backend(cfg.backend, prices)",
        "repeated runs are independent samples, not cache hits",
        (_LAWS,),
    ),
    Mutant(
        "keyword-only-reads-prices",
        "cli.py",
        "    backend = None if args.keyword_only else _backend(",
        "    backend = _backend(cfg.backend, load_price_table(cfg.price_table))\n"
        "    backend = None if args.keyword_only else _backend(",
        "the keyword baseline makes no call, so it reads no price table",
        ("tests/test_cli.py", "-k", "unpriced_model_exits_2"),
    ),
    Mutant(
        "classify-runs-bypass-cache",
        "cli.py",
        "_backend(cfg.backend, load_price_table(cfg.price_table))",
        "_backend(\n        cfg.backend if cfg.runs == 1 else replace(cfg.backend, cache_dir=None),\n"
        "        load_price_table(cfg.price_table),\n    )",
        "classify ignores runs: its cache serves every run",
        (_LAWS, "-k", "ignores_runs"),
    ),
    Mutant(
        "summary-keeps-last-prompt-tokens",
        "llm.py",
        '        counts["prompt_tokens"] += row["prompt_tokens"]\n',
        '        counts["prompt_tokens"] = row["prompt_tokens"]\n',
        "out-dir audit: costs_summary.json is the fold of costs.jsonl",
        _CHECK_LAW,
    ),
    Mutant(
        "per-rule-passages-reversed",
        "compliance.py",
        "            self.per_rule.setdefault(rid, []).append(finding.passage_ref)\n",
        "            self.per_rule.setdefault(rid, []).insert(0, finding.passage_ref)\n",
        "out-dir audit: report.json's per_rule is a recount of its findings",
        _CHECK_LAW,
    ),
    Mutant(
        "rules-covered-counts-passages",
        "compliance.py",
        '"rules_covered": len(ordered)',
        '"rules_covered": sum(map(len, ordered.values()))',
        "out-dir audit: report.json's totals are a recount of its findings",
        _CHECK_LAW,
    ),
    Mutant(
        "findings-jsonl-raw-rationale",
        "compliance.py",
        '                    "rationale": f.rationale,\n',
        '                    "rationale": f.raw_response,\n',
        "out-dir audit: findings.jsonl is report.json's findings, projected",
        _CHECK_LAW,
    ),
    Mutant(
        "ledger-skips-cache-hits",
        "compliance.py",
        "                if f.usage is not None:  # each ledger row",
        "                if f.usage is not None and not f.usage.cached:  # each ledger row",
        "out-dir audit: one ledger row per finding that has a usage",
        _CHECK_LAW,
    ),
    Mutant(
        "cache-key-drops-max-tokens",
        "llm.py",
        '            "max_tokens": max_output_tokens,\n',
        "",
        "the cache changes only cost and latency: another output cap is another answer",
        ("tests/test_llm.py",),
    ),
    Mutant(
        "cost-row-ignores-cached",
        "llm.py",
        "    if usage.cached:\n        cost = 0.0\n",
        "    if False:\n        cost = 0.0\n",
        "a cache hit costs nothing",
        ("tests/test_llm.py",),
    ),
    Mutant(
        "report-md-no-final-rstrip",
        "compliance.py",
        '    yield last.rstrip() + "\\n"\n',
        "    yield last\n",
        "report.md gives the one-shot bytes",
        ("tests/test_outputs.py",),
    ),
    Mutant(
        "report-json-no-empty-findings",
        "compliance.py",
        '("\\n  ]" if count else "[]")',
        '"\\n  ]"',
        "report.json gives the one-shot bytes with no findings",
        ("tests/test_outputs.py",),
    ),
    Mutant(
        "statistics-imported-eagerly",
        "evaluation.py",
        "from collections import Counter\n",
        "import statistics\nfrom collections import Counter\n",
        "a subcommand loads only the modules it runs: statistics is for eval --runs-dir",
        _STARTUP,
    ),
    Mutant(
        "root-imports-pipeline-eagerly",
        "__init__.py",
        '__version__ = "0.1.0"\n',
        'from .pipeline import run_compliance\n\n__version__ = "0.1.0"\n',
        "importing the package loads no submodule",
        _STARTUP,
    ),
    Mutant(
        "rejected-answer-loses-usage",
        "pipeline.py",
        "            return unit, None, (response, usage, str(exc))\n",
        "            return unit, None, (response, None, str(exc))\n",
        "paid calls are never thrown away: a rejected answer keeps its usage",
        (
            "tests/test_compliance.py", "tests/test_pipeline.py",
            "-k", "parse_error or parse_failures",
        ),
    ),
    Mutant(
        "keyword-only-uses-the-pool",
        "pipeline.py",
        "        answered = ((p, None, ()) for p in provisions)\n",
        "        answered = _ordered_map(lambda p: (p, None, ()), provisions, parallelism)\n",
        "keyword-only classify starts no thread pool, whatever the parallelism",
        (*_STARTUP, "-k", "keyword and only"),
    ),
    Mutant(
        "pipeline-imports-classify",
        "pipeline.py",
        "from .compliance import NOT_SENT, Finding,",
        "from .classify import classify_keywords\nfrom .compliance import NOT_SENT, Finding,",
        "a subcommand loads only the modules it runs: check never classifies",
        _STARTUP,
    ),
    Mutant(
        "array-imported-eagerly",
        "corpus.py",
        "import math\n",
        "import math\nfrom array import array\n",
        "only the subcommands that list units load the shared library of the unit table",
        _STARTUP,
    ),
    Mutant(
        "hashlib-imported-eagerly",
        "llm.py",
        "import json\nimport os\n",
        "import hashlib\nimport json\nimport os\n",
        "only a cached run loads OpenSSL, for its cache key",
        ("tests/test_llm.py", "-k", "openssl"),
    ),
    Mutant(
        "title-check-is-not-none",
        "corpus.py",
        "                if self.title or self.count or kind is not None:\n",
        "                if self.title is not None or self.count or kind is not None:\n",
        "one parse loop gives the documents of the two parsers it replaced: an empty title",
        _PARSE_REFERENCE,
    ),
    Mutant(
        "plain-no-prose-flag",
        "corpus.py",
        "        if not starts or starts[0] == 0:\n",
        "        if not starts:\n",
        "one parse loop gives the documents of the two parsers it replaced: prose opening "
        "with a marker",
        _PARSE_REFERENCE,
    ),
    Mutant(
        "always-no-blocks",
        "corpus.py",
        '"empty document" if self.title is None else "document contains no blocks"',
        '"document contains no blocks"',
        "one parse loop gives the errors of the two parsers it replaced",
        _PARSE_REFERENCE,
    ),
    Mutant(
        "plain-marker-on-stripped-line",
        "corpus.py",
        "if _ENUM_LINE.match(line)]\n",
        "if _ENUM_LINE.match(line.strip())]\n",
        "one parse loop gives the documents of the two parsers it replaced: a bare marker",
        _PARSE_REFERENCE,
    ),
    Mutant(
        "structured-run-cut-at-blank-only",
        "corpus.py",
        "        self.cuts = (PARAGRAPH_MARK, HEADER_MARK) if structured else ()\n",
        "        self.cuts = ()\n",
        "a structured text without blank lines is still read one block at a time",
        (_ONE_COPY, "-k", "no_copy"),
    ),
    Mutant(
        "plain-items-by-rescan",
        "corpus.py",
        '        items = tuple(" ".join(parts[a:b]) for a, b in zip(starts, ends))\n',
        "        items = tuple(\n"
        '            " ".join(p for k, p in enumerate(parts) if a <= k < b) for a, b in zip(starts, ends)\n'
        "        )\n",
        "the reader runs Python lines linear in its input (no clock)",
        ("tests/test_growth.py", "-k", "reader_runs_python_lines"),
    ),
    Mutant(
        "reader-reads-whole-file",
        "cli.py",
        "_Builder(cfg.format).blocks(text_lines(path))",
        '_Builder(cfg.format).blocks(Path(path).read_text(encoding="utf-8").splitlines())',
        "reading a document holds no copy of the whole file",
        (_ONE_COPY, "-k", "no_copy"),
    ),
    Mutant(
        "reader-splits-at-newline-only",
        "storage.py",
        "            yield from text.splitlines()\n",
        '            yield text.rstrip("\\r\\n")\n',
        "the reader gives the lines of `read_text().splitlines()`",
        (_ONE_COPY, "-k", "lines_and_document"),
    ),
    Mutant(
        "reader-drops-an-unterminated-last-line",
        "storage.py",
        "            yield from text.splitlines()\n",
        '            ended = text.endswith(("\\n", "\\r"))\n'
        "            yield from text.splitlines()[: None if ended else -1]\n",
        "input law: a file without a final newline gives the outputs of the file with one",
        (_LAWS, "-k", "input_law"),
    ),
    Mutant(
        "check-keeps-the-document",
        "cli.py",
        _CHECK_UNITS,
        "    blocks = list(_Builder(cfg.format).blocks(text_lines(args.artifact)))\n" + _CHECK_TABLE,
        "check holds no block of its artifact in the model stage",
        (_ONE_COPY, "-k", "freed"),
    ),
    Mutant(
        "check-builds-the-document",
        "cli.py",
        _CHECK_UNITS,
        "    from .corpus import parse_document\n"
        '    text = Path(args.artifact).read_text(encoding="utf-8")\n'
        "    blocks = parse_document(text, cfg.format).blocks\n" + _CHECK_TABLE,
        "check builds no document: each block becomes its units as it is read",
        (_ONE_COPY, "-k", "freed"),
    ),
    Mutant(
        "classify-keeps-the-document",
        "cli.py",
        _CLASSIFY_UNITS,
        "    from .corpus import extract_provisions, parse_document\n"
        '    doc = parse_document(Path(args.input).read_text(encoding="utf-8"), cfg.format)\n'
        "    provisions = extract_provisions(doc)\n",
        "classify builds no document and holds no block in the model stage",
        (_ONE_COPY, "-k", "freed"),
    ),
    Mutant(
        "document-error-without-path",
        "cli.py",
        '        raise type(exc)(f"{path}: {exc}") from exc\n',
        "        raise\n",
        "every document error names its file",
        ("tests/test_cli.py", "-k", "malformed_document or unchunkable"),
    ),
    Mutant(
        "closed-stdout-is-an-input-error",
        "cli.py",
        "    except BrokenPipeError:\n"
        "        # The reader of stdout is gone, which is no input error. Python's last flush of\n"
        "        # stdout at exit goes to devnull (the \"Note on SIGPIPE\" of the `signal` docs).\n"
        "        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())\n"
        "        return EXIT_CLOSED_STDOUT\n",
        "",
        "a stdout closed by its reader ends the run quietly, with exit 141",
        (_STREAM, "-k", "closed_stdout"),
    ),
    Mutant(
        "classify-lists-its-results",
        "cli.py",
        "for r in results), args.out)",
        "for r in list(results)), args.out)",
        "classify's memory beyond its provisions does not grow with the corpus",
        (_STREAM, "-k", "memory"),
    ),
    Mutant(
        "classify-no-explicit-close",
        "cli.py",
        "    with closing(results):\n",
        "    if True:\n",
        "a writer that stops classify cancels the queued calls before the error propagates",
        (_STREAM, "-k", "interrupted_writer"),
    ),
    Mutant(
        "stdout-written-after-the-run",
        "cli.py",
        "        sys.stdout.writelines(chunks)\n",
        '        sys.stdout.write("".join(chunks))\n',
        "on exit 3, classify's stdout holds the records before the failing unit",
        (_STREAM, "-k", "failing_unit"),
    ),
    Mutant(
        "check-out-dir-after-first-call",
        "cli.py",
        "    for target in targets:  # an out-dir that cannot be made fails before the first call\n"
        "        target.mkdir(parents=True, exist_ok=True)\n"
        "        # A killed run leaves its temp files; one that ends by an error or signal does not.\n"
        "        remove_stale_temps(target / name for name in CHECK_FILES)\n",
        "",
        "validation that can fail runs before the first call: check's out-dir",
        _UNWRITABLE,
    ),
    Mutant(
        "write-pulls-before-path-check",
        "storage.py",
        "    with atomic_files([Path(path)]) as (fh,):\n",
        '    chunks = iter(chunks)\n    chunks = chain([next(chunks, "")], chunks)\n'
        "    with atomic_files([Path(path)]) as (fh,):\n",
        "validation that can fail runs before the first call: classify's --out",
        _UNWRITABLE,
    ),
    Mutant(
        "paragraph-context-never-built",
        "corpus.py",
        "            context = block_text(block) if context_on else None\n",
        "            context = block_text(block) if context_on and not self.passages else None\n",
        "check units give the context of a dict of every block's text",
        ("tests/test_pipeline.py", "-k", "reference"),
    ),
    Mutant(
        "check-lists-its-findings",
        "cli.py",
        "write_check_outputs(target, findings, rules, doc_id, prices)",
        "write_check_outputs(target, list(findings), rules, doc_id, prices)",
        "check's memory beyond its units does not grow with the artifact",
        (_STREAM, "-k", "memory_independent_of_the_artifact"),
    ),
    Mutant(
        "check-lists-its-units",
        "cli.py",
        "            units.check_units(release=last), rules, backend, template,",
        "            list(units.check_units(release=last)), rules, backend, template,",
        "check lists its units in little more than their text",
        _UNITS_MEMORY,
    ),
    Mutant(
        "table-keeps-each-passage",
        "corpus.py",
        "                self.blocks.append(block.index)\n",
        "                self.blocks.append(block.index)\n"
        "        self.units = list(self)\n",
        "a unit table holds little more than its units' text",
        _UNITS_MEMORY,
    ),
    Mutant(
        "check-no-explicit-close",
        "cli.py",
        "        with closing(findings):\n",
        "        if True:\n",
        "a writer that stops check cancels the queued calls before the error propagates",
        (_STREAM, "-k", "failed_check_writer"),
    ),
    Mutant(
        "spool-written-without-head",
        "compliance.py",
        "chain(_json_head(report), spooled(json_spool), [tail])",
        "chain(spooled(json_spool), [tail])",
        "report.json is its head followed by its spool: the one-shot bytes",
        ("tests/test_outputs.py", "-k", "written_run"),
    ),
    Mutant(
        "temp-left-on-failed-write",
        "storage.py",
        "                os.unlink(tmp)\n",
        "                pass\n",
        "a run whose writer fails or is interrupted leaves no file, temporary ones included",
        (_STREAM, "-k", "failed_check_writer"),
    ),
    Mutant(
        "unanswered-unit-in-the-findings",
        "compliance.py",
        "                        failure = f.error\n                    continue\n",
        "                        failure = f.error\n",
        "an unanswered unit reaches errors.jsonl alone: no finding, ledger row or coverage",
        (_STREAM, "-k", "failing_check_unit"),
    ),
    Mutant(
        "unanswered-run-exits-0",
        "compliance.py",
        "    if unanswered:\n",
        "    if False:\n",
        "a check run with an unanswered unit exits 3",
        (_STREAM, "-k", "failing_check_unit"),
    ),
    Mutant(
        "closed-connection-not-retried",
        "llm.py",
        "            resp = conn.getresponse()\n",
        "            try:\n"
        "                resp = conn.getresponse()\n"
        "            except self._transport_errors as exc:\n"
        '                raise BackendError(f"connection lost: {exc}") from exc\n',
        "a connection closed after the request was sent is retried",
        _CHECK_LAW,
    ),
    Mutant(
        "fresh-id-set-per-answer",
        "taxonomy.py",
        "        return self._id_sets.setdefault(ids, ids)\n",
        "        return ids\n",
        "findings with equal rule-id sets share one set",
        (_ONE_COPY, "-k", "share"),
    ),
    Mutant(
        "eval-lists-the-gold",
        "cli.py",
        "    counts = confusion(predicted, load_gold(args.gold))",
        "    counts = confusion(predicted, list(load_gold(args.gold)))",
        "eval reads the gold file as a stream and holds no list of its records",
        (_STREAM, "-k", "holds_no_list"),
    ),
    Mutant(
        "overlap-misses-two-empty-sets",
        "evaluation.py",
        "        overlap += bool(hits) or not (pred_labels or gold_labels)\n",
        "        overlap += bool(hits)\n",
        "a unit whose prediction and gold are both empty matches with any overlap",
        (_EVALUATION, "-k", "match_mode or brute_force"),
    ),
    Mutant(
        "subset-accuracy-from-overlap",
        "evaluation.py",
        "        subset_accuracy=c.share(c.exact),\n",
        "        subset_accuracy=c.share(c.overlap),\n",
        "subset accuracy is the share of units predicted exactly",
        (_EVALUATION, "-k", "subset_accuracy"),
    ),
    Mutant(
        "no-backend-not-checked",
        "cli.py",
        "    if cfg.kind == STUB and not cfg.script_path and not cfg.cache_dir:\n"
        '        raise ValueError("no backend: give --stub-script or --endpoint")\n',
        "",
        "a model stage with nothing to answer it exits 2 before any output location is made",
        ("tests/test_cli.py", "-k", "no_backend"),
    ),
    Mutant(
        "cache-alone-is-no-backend",
        "cli.py",
        "    if cfg.kind == STUB and not cfg.script_path and not cfg.cache_dir:\n",
        "    if cfg.kind == STUB and not cfg.script_path:\n",
        "with a cache and no script, the stub replays the cached answers",
        ("tests/test_cli.py", "-k", "cache_alone"),
    ),
    Mutant(
        "read-json-drops-the-path",
        "storage.py",
        "    except json.JSONDecodeError as exc:  # `read_text_or_bundled` names the file itself\n"
        '        raise ValueError(f"{path or bundled}: {exc}") from exc\n',
        "    except json.JSONDecodeError as exc:\n        raise\n",
        "a JSON document that does not parse names its file",
        ("tests/test_cli.py", "-k", "does_not_parse"),
    ),
    Mutant(
        "read-text-drops-the-path",
        "storage.py",
        "    except UnicodeDecodeError as exc:\n"
        '        raise ValueError(f"{path or bundled}: {exc}") from exc\n',
        "    except UnicodeDecodeError as exc:\n        raise\n",
        "a compliance template that is not UTF-8 names its file",
        ("tests/test_cli.py", "-k", "template_that_is_not_utf8"),
    ),
    Mutant(
        "per-rule-in-first-finding-order",
        "compliance.py",
        "        ordered = {rid: self.per_rule[rid] for rid in order if rid in self.per_rule}\n",
        "        ordered = dict(self.per_rule)\n",
        "rules-order law: per_rule follows the order of the rules file",
        (_LAWS, "-k", "rules_order"),
    ),
    Mutant(
        "rule-ids-sentence-end-per-token",
        "compliance.py",
        "        leading = {tok for pos, tok in tokens if pos < end}\n",
        "        leading = {tok for pos, tok in tokens if pos < first_sentence_end(raw)}\n",
        "parse_response is linear time in a long answer",
        ("tests/test_growth.py", "-m", "growth", "-k", "parse_response"),
    ),
    Mutant(
        "concept-ids-sentence-end-per-match",
        "classify.py",
        "    for m in CONCEPT_ID.finditer(raw, 0, first_sentence_end(raw)):\n",
        "    for m in (m for m in CONCEPT_ID.finditer(raw) if m.start() < first_sentence_end(raw)):\n",
        "parse_concept_response is linear time in a long answer",
        ("tests/test_growth.py", "-m", "growth", "-k", "parse_concept_response"),
    ),
    Mutant(
        "rule-token-no-word-start",
        "compliance.py",
        '_RULE_TOKEN = re.compile(r"R(?<!\\wR)(\\d+)\\b")',
        '_RULE_TOKEN = re.compile(r"R(\\d+)\\b")',
        "a rule token starts a word: XR5 is not a rule id",
        ("tests/test_compliance.py", "-k", "inside_a_word"),
    ),
    Mutant(
        "keyword-gate-skipped-for-non-ascii",
        "classify.py",
        _GATE,
        "        if self.walk_covers or not self.gate.search(text):\n",
        "under --stem, skipping the gate changes no label",
        ("tests/test_classify.py", "-k", "gate_path"),
    ),
    Mutant(
        "keyword-gate-from-each-word",
        "classify.py",
        _GATE,
        "        gated = any(self.gate.search(text, m.start()) for m in _WORD.finditer(text))\n"
        "        if self.walk_covers and text.isascii() or not gated:\n",
        "classify_keywords is linear time in a long text, without --stem",
        _KEYWORDS_GROWTH,
    ),
    Mutant(
        "fused-labels-by-model-ids",
        "classify.py",
        _FUSED_MEMO,
        "@(lambda fuse: lambda m, k, _by={}: _by.setdefault(m, fuse(m, k)))\ndef fused_labels(",
        "each provision gets the fused labels of its own (model ids, keyword ids) pair",
        _RECORD_LINES,
    ),
    Mutant(
        "fused-labels-by-keyword-ids",
        "classify.py",
        _FUSED_MEMO,
        "@(lambda fuse: lambda m, k, _by={}: _by.setdefault(k, fuse(m, k)))\ndef fused_labels(",
        "each provision gets the fused labels of its own (model ids, keyword ids) pair",
        _RECORD_LINES,
    ),
    Mutant(
        "word-starts-drop-a-first-word",
        "classify.py",
        "        self.starts = _word_starts(sorted(self.ngrams))\n",
        "        self.starts = _word_starts(sorted(self.ngrams)[1:])\n",
        "under --stem, a text is tokenised wherever a keyword's first word may start a word",
        ("tests/test_classify.py", "-k", "KeywordIndexAgainstReference"),
    ),
    Mutant(
        "ngram-compared-to-the-rest",
        "classify.py",
        "                        if cid not in hits and have[i : i + len(want)] == want:\n",
        "                        if cid not in hits and have[i:][: len(want)] == want:\n",
        "classify_keywords is linear time in a long text, with --stem",
        _KEYWORDS_GROWTH,
    ),
    Mutant(
        "provisions-copied-per-item",
        "corpus.py",
        "        return [text for item in block.items for text in _expand_item(block.header, item)]\n",
        "        return sum((_expand_item(block.header, item) for item in block.items), [])\n",
        "block_sentences is linear time in a long list",
        ("tests/test_growth.py", "-m", "growth", "-k", "block_sentences"),
    ),
    Mutant(
        "segment-lists-its-units",
        "cli.py",
        _SEGMENT_UNITS,
        _SEGMENT_UNITS.replace("in _units(", "in list(_units(").replace("budget)", "budget))"),
        "segment lists its units in little more than their text",
        (_STREAM, "-k", "segment_lists"),
    ),
    Mutant(
        "classify-lists-its-units",
        "cli.py",
        _CLASSIFY_UNITS,
        _CLASSIFY_UNITS.replace("= _units(", "= list(_units(").replace("SENTENCE)", "SENTENCE))"),
        "classify lists its provisions in little more than their text",
        (_STREAM, "-k", "classify_lists"),
    ),
    Mutant(
        "sentence-index-not-reset",
        "corpus.py",
        _SENTENCE_INDEX,
        "            i = i + 1 if last is not None else 0\n",
        "a provision's ref counts the provisions of its own block",
        ("tests/test_corpus.py", "-k", "ProvisionIds"),
    ),
    Mutant(
        "list-units-labelled-plain",
        "corpus.py",
        "            origin = LIST_EXPANDED if block in self.lists else PLAIN\n",
        "            origin = PLAIN\n",
        "an expanded list item's origin is list_expanded",
        ("tests/test_corpus.py", "-k", "ExpandListItems"),
    ),
    Mutant(
        "sentence-index-by-search",
        "corpus.py",
        "        i, last = 0, None\n"
        "        for text, block in zip(texts, self.blocks):\n"
        + _SENTENCE_INDEX
        + "            last = block\n",
        "        for n, (text, block) in enumerate(zip(texts, self.blocks)):\n"
        "            i = sum(1 for prior in self.blocks[:n] if prior == block)\n",
        "a unit table runs Python lines linear in its input (no clock)",
        ("tests/test_growth.py", "-k", "python_lines"),
    ),
    Mutant(
        "cache-read-error-ends-the-run",
        "llm.py",
        '        except OSError as exc:\n            _warn("%s: unreadable',
        '        except ValueError as exc:\n            _warn("%s: unreadable',
        "the cache changes only cost and latency: an entry that cannot be read is a miss",
        ("tests/test_llm.py", "-k", "unreadable_entry"),
    ),
    Mutant(
        "cache-dir-entry-stops-writes",
        "llm.py",
        "            except IsADirectoryError as exc:",
        "            except NotADirectoryError as exc:",
        "the cache changes only cost and latency: an entry that is a directory is the only one "
        "not written",
        ("tests/test_llm.py", "-k", "directory_skips"),
    ),
    Mutant(
        "interrupt-ends-in-a-traceback",
        "cli.py",
        "    except KeyboardInterrupt:\n",
        "    except SystemExit:\n",
        "Ctrl-C ends a run with exit 130 and one line on stderr, not a traceback",
        (_STREAM, "-k", "sigint"),
    ),
    Mutant(
        "cache-write-error-ends-the-run",
        "llm.py",
        "            except OSError as exc:\n                with self._lock:\n",
        "            except ValueError as exc:\n                with self._lock:\n",
        "the cache changes only cost and latency: a failed write stops the writes, not the run",
        ("tests/test_llm.py", "-k", "failed_write"),
    ),
    Mutant(
        "last-run-keeps-its-texts",
        "cli.py",
        "        last = k == len(targets)\n",
        "        last = False\n",
        "check's peak is its units' text plus a constant: the last run frees each text as the "
        "model stage takes it",
        (_STREAM, "-k", "streamed_findings"),
    ),
    Mutant(
        "a-set-per-record",
        "evaluation.py",
        "        yield ref, label_sets.setdefault(labels, labels), rec\n",
        "        yield ref, labels, rec\n",
        "eval holds one label set per distinct set, not one per unit",
        (_STREAM, "-k", "one_set_per_distinct"),
    ),
    Mutant(
        "sigterm-left-to-its-default",
        "cli.py",
        "    previous = signal.signal(signal.SIGTERM, _terminate) if handles else None\n",
        "    previous = signal.getsignal(signal.SIGTERM) if handles else None\n",
        "SIGTERM ends a run with exit 143 and one line, leaving no file in the out-dir",
        (_STREAM, "-k", "sigterm"),
    ),
    Mutant(
        "stale-temp-files-kept",
        "storage.py",
        "                    os.unlink(entry.path)\n",
        "                    pass\n",
        "check removes the temp files that a killed run left for its six names",
        (_STREAM, "-k", "temp_files_a_killed_run_left"),
    ),
    Mutant(
        "split-text-lists-its-spans",
        "corpus.py",
        "    return [text[s:e] for s, e in _spans(text)]\n",
        "    return [text[s:e] for s, e in sentence_spans(text)]\n",
        "splitting a paragraph holds nothing beside its input and its sentences",
        (_ONE_COPY, "-k", "split_text_holds"),
    ),
)


def _apply(mutant: Mutant, src: Path) -> None:
    path = src / "regcheck" / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise LookupError(f"its snippet occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def pytest_exit(pytest_args: tuple[str, ...], mutant: Mutant | None = None) -> int | None:
    """pytest's exit code for `pytest_args` on a copy of `src/` with `mutant` applied,
    or None when the tests time out."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            _apply(mutant, src)
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        env = {
            **os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1", "MUTANT_SRC": str(src)
        }
        argv = [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            f"--basetemp={Path(tmp) / 'pytest'}",
        ]
        try:
            done = subprocess.run(
                [*argv, *pytest_args], env=env, cwd=ROOT, capture_output=True, text=True,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None
    # 0: passed; 1: tests failed; anything else means the table is wrong.
    if done.returncode not in (0, 1):
        output = (done.stdout + done.stderr)[-2000:]
        raise RuntimeError(f"pytest exited {done.returncode}:\n{output}")
    return done.returncode


def outcome(mutant: Mutant) -> tuple[str, float]:
    """The mutant's result and the seconds it took."""
    start = time.monotonic()
    try:
        code = pytest_exit(mutant.pytest_args, mutant)
        result = "SURVIVED" if code == 0 else "killed" if code == 1 else "killed (timeout)"
    except (LookupError, RuntimeError) as exc:
        result = f"ERROR: {exc}"
    return result, time.monotonic() - start


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    start = time.monotonic()
    spent: dict[tuple[str, ...], float] = {}  # seconds of pytest runs, per selection
    # A kill means something only if the same tests pass on the unmutated source. They
    # run one set at a time, so that no timed law fails for the load of the others.
    for args in dict.fromkeys(m.pytest_args for m in chosen):
        began = time.monotonic()
        if pytest_exit(args) != 0:
            print(f"the unmutated source fails: pytest {' '.join(args)}", file=sys.stderr)
            return 1
        spent[args] = time.monotonic() - began
    failed = 0
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        for mutant, (result, took) in zip(chosen, pool.map(outcome, chosen)):
            failed += not result.startswith("killed")
            spent[mutant.pytest_args] += took
            print(f"{mutant.name:32} {result:18} {took:5.1f}s  {mutant.law}", flush=True)
    print(f"{failed} of {len(chosen)} mutants not killed" if failed else "every mutant was killed")
    print(f"wall time {time.monotonic() - start:.0f}s; the slowest selections, summed over runs:")
    for args, took in sorted(spent.items(), key=lambda item: -item[1])[:3]:
        print(f"  {took:6.1f}s  pytest {' '.join(args)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
