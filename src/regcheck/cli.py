"""Command-line interface: segment, classify, check, eval.

Every stage reads and writes plain files so pipelines can be run and audited
step by step. Configuration precedence is env < config file < flags.

Exit codes: 0 success, 2 input/validation error, 3 backend error,
4 parse-failure threshold exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .classify import load_classification_template
from .compliance import (
    assemble_report,
    load_template,
    report_to_dict,
    report_to_markdown,
)
from .corpus import chunk_paragraphs, extract_provisions, parse_document
from .errors import BackendError, RegcheckError
from .evaluation import (
    ANY_OVERLAP,
    EXACT,
    MetricsReport,
    aggregate_runs,
    confusion,
    load_gold,
    load_predictions,
    match_accuracy,
    metrics,
)
from .llm import (
    STUB,
    BackendConfig,
    CostLedger,
    RetryPolicy,
    load_price_table,
    load_stub_script,
    make_backend,
    price_of,
)
from .pipeline import classify_provisions, compliance_units, run_compliance
from .storage import atomic_write_text, write_json, write_jsonl
from .taxonomy import load_concept_model, load_ruleset

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BACKEND = 3
EXIT_PARSE_THRESHOLD = 4

_ENV_KEYS = {
    "endpoint": "REGCHECK_ENDPOINT",
    "model": "REGCHECK_MODEL",
    "cache_dir": "REGCHECK_CACHE_DIR",
    "price_table": "REGCHECK_PRICE_TABLE",
}

_DEFAULTS = {
    "backend": "stub",
    "endpoint": "",
    "model": "stub-model",
    "temperature": 0.0,
    "max_output_tokens": 512,
    "parallelism": 1,
    "retry_max_attempts": 3,
    "retry_base_backoff_s": 0.5,
    "cache_dir": None,
    "price_table": None,
    "stub_script": None,
    "budget": 4096,
    "format": "plain",
    "granularity": "paragraph",
    "context": "off",
    "runs": 1,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regcheck",
        description="Classify regulatory provisions and check artifacts against compliance rules.",
    )
    parser.add_argument(
        "--version", action="version", version=f"regcheck {__version__}"
    )
    parser.add_argument("--config", help="JSON config file (flags override it)")
    sub = parser.add_subparsers(dest="command", required=True)

    seg = sub.add_parser("segment", help="split a document into provisions or passages")
    seg.add_argument("--input", required=True, help="document file")
    seg.add_argument("--format", choices=["plain", "structured"], default=None)
    seg.add_argument(
        "--granularity", choices=["sentence", "paragraph"], default=None
    )
    seg.add_argument("--budget", type=int, default=None, help="token budget per passage")
    seg.add_argument("--out", help="output JSONL (default: stdout)")

    cls = sub.add_parser("classify", help="label provisions with concepts")
    cls.add_argument("--input", required=True, help="document file")
    cls.add_argument("--format", choices=["plain", "structured"], default=None)
    cls.add_argument("--concepts", required=True, help="concept model JSONL")
    cls.add_argument("--prompt-template", help="classification template JSON")
    cls.add_argument("--keyword-only", action="store_true", help="keyword baseline: skip the model branch")
    cls.add_argument("--stem", action="store_true", help="light suffix stemming for keyword matching")
    cls.add_argument("--out", help="labels JSONL (default: stdout)")
    _backend_flags(cls)

    chk = sub.add_parser("check", help="check an artifact against compliance rules")
    chk.add_argument("--artifact", required=True, help="artifact file, e.g. a DPA")
    chk.add_argument("--format", choices=["plain", "structured"], default=None)
    chk.add_argument("--rules", required=True, help="ruleset JSONL")
    chk.add_argument(
        "--granularity", choices=["sentence", "paragraph"], default=None
    )
    chk.add_argument("--context", choices=["on", "off"], default=None)
    chk.add_argument("--budget", type=int, default=None)
    chk.add_argument("--template", help="prompt template file (default: bundled)")
    chk.add_argument("--out-dir", required=True, help="directory for report and ledger files")
    chk.add_argument("--runs", type=int, default=None, help="repeat the run N times (cache bypassed)")
    chk.add_argument(
        "--max-parse-failures",
        type=int,
        default=None,
        help="exit 4 when more responses than this fail to parse",
    )
    _backend_flags(chk)

    ev = sub.add_parser("eval", help="score predictions against gold labels")
    ev.add_argument("--gold", help="gold JSONL")
    ev.add_argument("--pred", help="prediction JSONL")
    ev.add_argument(
        "--averaging", choices=["micro", "macro", "per-label"], default="macro"
    )
    ev.add_argument("--match", choices=["exact", "overlap"], default="overlap")
    ev.add_argument("--runs-dir", help="aggregate metrics.json files across run directories")
    ev.add_argument("--out", help="metrics/aggregate JSON (default: stdout)")
    return parser


def _backend_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", choices=["http", "stub"], default=None)
    p.add_argument("--endpoint", default=None, help="chat-completions URL (http backend)")
    p.add_argument("--model", default=None, help="model name sent on the wire / priced in the ledger")
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--parallelism", type=int, default=None)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--price-table", default=None, help="per-1K-token price JSON")
    p.add_argument("--stub-script", default=None, help="stub script JSONL (stub backend)")


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, environment, config file and explicit flags, in that order."""
    cfg = dict(_DEFAULTS)
    for key, env in _ENV_KEYS.items():
        value = os.environ.get(env)
        if value:
            cfg[key] = value
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        unknown = sorted(set(file_cfg) - set(_DEFAULTS))
        if unknown:
            raise ValueError(f"unknown config keys {unknown} in {config_path}")
        cfg.update(file_cfg)
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    # A stub script implies the stub backend; an endpoint implies http.
    if getattr(args, "stub_script", None):
        cfg["backend"] = "stub"
    elif getattr(args, "endpoint", None):
        cfg["backend"] = "http"
    return cfg


def backend_config(cfg: dict) -> BackendConfig:
    return BackendConfig(
        kind=cfg["backend"],
        endpoint=cfg["endpoint"],
        model_name=cfg["model"],
        temperature=float(cfg["temperature"]),
        max_output_tokens=int(cfg["max_output_tokens"]),
        parallelism=int(cfg["parallelism"]),
        retry=RetryPolicy(
            max_attempts=int(cfg["retry_max_attempts"]),
            base_backoff_s=float(cfg["retry_base_backoff_s"]),
        ),
        cache_dir=cfg["cache_dir"],
        script_path=cfg["stub_script"],
    )


def _emit(records: list[dict], out: str | None) -> None:
    if out:
        write_jsonl(out, records)
    else:
        for rec in records:
            print(json.dumps(rec, ensure_ascii=False))


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def cmd_segment(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    raw = Path(args.input).read_text(encoding="utf-8")
    doc = parse_document(raw, cfg["format"], doc_id=Path(args.input).stem)
    if cfg["granularity"] == "sentence":
        records = [
            {
                "unit_ref": p.unit_ref,
                "kind": "provision",
                "text": p.text,
                "origin": p.origin,
                "block_index": p.block_index,
            }
            for p in extract_provisions(doc)
        ]
    else:
        records = [
            {
                "unit_ref": p.unit_ref,
                "kind": "passage",
                "text": p.text,
                "token_estimate": p.token_estimate,
                "parent_block": list(p.parent_block),
            }
            for p in chunk_paragraphs(doc, int(cfg["budget"]))
        ]
    _emit(records, args.out)
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    raw = Path(args.input).read_text(encoding="utf-8")
    doc = parse_document(raw, cfg["format"], doc_id=Path(args.input).stem)
    model = load_concept_model(args.concepts)
    template = load_classification_template(args.prompt_template)
    backend = None if args.keyword_only else make_backend(backend_config(cfg))
    results = classify_provisions(
        extract_provisions(doc),
        model,
        backend,
        template=template,
        stem=bool(args.stem),
        parallelism=int(cfg["parallelism"]),
    )
    _emit([r.to_record() for r in results], args.out)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    raw = Path(args.artifact).read_text(encoding="utf-8")
    doc = parse_document(raw, cfg["format"], doc_id=Path(args.artifact).stem)
    rules = load_ruleset(args.rules)
    template = load_template(args.template)
    prices = load_price_table(cfg["price_table"])
    price_of(prices, cfg["model"])  # an unpriced model fails before any paid call
    out_dir = Path(args.out_dir)
    runs = int(cfg["runs"])
    units = compliance_units(
        doc,
        cfg["granularity"],
        int(cfg["budget"]),
        context_on=(cfg["context"] == "on"),
    )
    run_cfg = backend_config(cfg)
    if runs > 1:
        run_cfg = replace(run_cfg, cache_dir=None)  # independent samples per run
    script = (
        load_stub_script(run_cfg.script_path)
        if run_cfg.kind == STUB and run_cfg.script_path
        else None
    )

    worst_failures = 0
    for run in range(1, runs + 1):
        backend = make_backend(run_cfg, script)  # a fresh stub queue per run
        findings = run_compliance(
            units, rules, backend, template, parallelism=int(cfg["parallelism"])
        )
        report = assemble_report(findings, rules, doc.doc_id)
        ledger = CostLedger(prices)
        for finding in findings:
            if finding.usage is not None:
                ledger.record(finding.usage)

        target = out_dir if runs == 1 else out_dir / f"run_{run:02d}"
        write_json(target / "report.json", report_to_dict(report))
        atomic_write_text(target / "report.md", report_to_markdown(report))
        write_jsonl(
            target / "findings.jsonl",
            (
                {
                    "unit_ref": f.passage_ref,
                    "labels": sorted(f.rule_ids),
                    "rationale": f.rationale,
                    "parse_error": f.parse_error,
                }
                for f in findings
            ),
        )
        atomic_write_text(target / "costs.jsonl", ledger.to_jsonl())
        write_json(target / "costs_summary.json", ledger.aggregate())
        worst_failures = max(worst_failures, report.totals["parse_failures"])

    limit = args.max_parse_failures
    if limit is not None and worst_failures > limit:
        print(
            f"parse failures ({worst_failures}) exceed the allowed maximum ({limit})",
            file=sys.stderr,
        )
        return EXIT_PARSE_THRESHOLD
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    if args.runs_dir:
        reports = _load_run_reports(Path(args.runs_dir))
        aggregate = aggregate_runs(reports)
        body = aggregate.to_dict()
        if args.out:
            write_json(args.out, body)
        else:
            print(json.dumps(body, ensure_ascii=False, indent=2))
        _print_box_table(aggregate)
        return EXIT_OK

    if not args.gold or not args.pred:
        raise ValueError("eval needs --gold and --pred (or --runs-dir)")
    gold = load_gold(args.gold)
    predicted, parse_failures = load_predictions(args.pred)
    averaging = args.averaging.replace("-", "_")
    counts = confusion(predicted, gold)
    report = metrics(counts, averaging=averaging, parse_failure_count=parse_failures)
    report.subset_accuracy = match_accuracy(predicted, gold, EXACT)
    mode = EXACT if args.match == "exact" else ANY_OVERLAP
    body = report.to_dict()
    body["match_accuracy"] = {
        "mode": mode,
        "value": match_accuracy(predicted, gold, mode),
    }
    if args.out:
        write_json(args.out, body)
    else:
        print(json.dumps(body, ensure_ascii=False, indent=2))
    return EXIT_OK


def _load_run_reports(runs_dir: Path) -> list[MetricsReport]:
    candidates = sorted(runs_dir.glob("*/metrics.json")) + sorted(
        runs_dir.glob("*.json")
    )
    if not candidates:
        raise ValueError(f"no metrics files under {runs_dir}")
    reports = []
    for path in candidates:
        body = json.loads(path.read_text(encoding="utf-8"))
        reports.append(MetricsReport.from_dict(body))
    return reports


def _print_box_table(aggregate) -> None:
    cols = ["metric", "mean", "median", "q1", "q3", "min", "max", "wlow", "whigh"]
    print("\t".join(cols))
    for name, stats in aggregate.per_metric.items():
        row = [name] + [
            f"{v:.4f}"
            for v in (
                stats.mean,
                stats.median,
                stats.q1,
                stats.q3,
                stats.min,
                stats.max,
                stats.whisker_low,
                stats.whisker_high,
            )
        ]
        print("\t".join(row))


_COMMANDS = {
    "segment": cmd_segment,
    "classify": cmd_classify,
    "check": cmd_check,
    "eval": cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (RegcheckError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
