"""Command-line interface: segment, classify, check, eval.

Every stage reads and writes plain files so pipelines can be run and audited
step by step. Configuration precedence is env < config file < flags.

Exit codes: 0 success, 2 input/validation error, 3 backend error,
4 parse-failure threshold exceeded, 130 (128 + SIGINT) interrupted, 141 (128 + SIGPIPE)
stdout closed by its reader, 143 (128 + SIGTERM) terminated.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from contextlib import closing
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

# Modules every subcommand loads anyway; each `cmd_*` imports those only it runs.
from . import __version__
from .corpus import PARAGRAPH_LEVEL, PASSAGE, SENTENCE, UnitTable, _Builder, estimate_tokens
from .errors import BackendError, MalformedInput, RegcheckError, UnchunkableText
from .llm import (
    HTTP, STUB, Backend, BackendConfig, RetryPolicy, load_price_table, make_backend, price_of,
)
from .storage import (
    atomic_write_chunks, json_chunks, jsonl_line, read_json, remove_stale_temps, text_lines,
)

if TYPE_CHECKING:
    from .evaluation import MetricsReport

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BACKEND = 3
EXIT_PARSE_THRESHOLD = 4
EXIT_INTERRUPTED = 130
EXIT_CLOSED_STDOUT = 141
EXIT_TERMINATED = 143

_ENV_KEYS = {
    "endpoint": "REGCHECK_ENDPOINT",
    "model": "REGCHECK_MODEL",
    "cache_dir": "REGCHECK_CACHE_DIR",
    "price_table": "REGCHECK_PRICE_TABLE",
}

# Every config key with its JSON type. A float key also takes an integer, no
# key takes a boolean, and a path key also takes null (unset). The defaults are
# the field defaults of RunConfig, BackendConfig and RetryPolicy.
_PATH_KEYS = ("cache_dir", "stub_script", "price_table")
_KEY_TYPES = {
    **dict.fromkeys(("endpoint", "model", "format", "granularity", "context"), str),
    **dict.fromkeys(_PATH_KEYS, str),
    **dict.fromkeys(("temperature", "retry_base_backoff_s"), float),
    **dict.fromkeys(("max_output_tokens", "parallelism", "retry_max_attempts"), int),
    **dict.fromkeys(("budget", "runs"), int),
}
# Config keys named otherwise in BackendConfig or RetryPolicy.
_FIELD_NAMES = {
    "model": "model_name",
    "stub_script": "script_path",
    "retry_max_attempts": "max_attempts",
    "retry_base_backoff_s": "base_backoff_s",
}
_CHOICES = {
    "format": ("plain", "structured"),
    "granularity": (SENTENCE, PARAGRAPH_LEVEL),
    "context": ("on", "off"),
}


@dataclass(frozen=True)
class RunConfig:
    """The settings of one invocation, typed and range-checked when built.

    `BackendConfig` and `RetryPolicy` check the backend fields; this class
    checks the rest.
    """

    backend: BackendConfig
    price_table: str | None = None
    budget: int = 4096
    format: str = "plain"
    granularity: str = PARAGRAPH_LEVEL
    context: str = "off"
    runs: int = 1
    max_parse_failures: int | None = None

    def __post_init__(self):
        for key, choices in _CHOICES.items():
            if getattr(self, key) not in choices:
                raise ValueError(f"{key} must be one of {choices}, got {getattr(self, key)!r}")
        for key in ("budget", "runs"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        if self.max_parse_failures is not None and self.max_parse_failures < 0:
            raise ValueError("max_parse_failures must be >= 0")


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
    seg.add_argument("--format", choices=_CHOICES["format"])
    seg.add_argument("--granularity", choices=_CHOICES["granularity"])
    seg.add_argument("--budget", type=int, help="token budget per passage")
    seg.add_argument("--out", help="output JSONL (default: stdout)")

    cls = sub.add_parser("classify", help="label provisions with concepts")
    cls.add_argument("--input", required=True, help="document file")
    cls.add_argument("--format", choices=_CHOICES["format"])
    cls.add_argument("--concepts", required=True, help="concept model JSONL")
    cls.add_argument("--prompt-template", help="classification template JSON")
    cls.add_argument("--keyword-only", action="store_true", help="keyword baseline: skip the model branch")
    cls.add_argument("--stem", action="store_true", help="light suffix stemming for keyword matching")
    cls.add_argument("--out", help="labels JSONL (default: stdout)")
    _backend_flags(cls)

    chk = sub.add_parser("check", help="check an artifact against compliance rules")
    chk.add_argument("--artifact", required=True, help="artifact file, e.g. a DPA")
    chk.add_argument("--format", choices=_CHOICES["format"])
    chk.add_argument("--rules", required=True, help="ruleset JSONL")
    chk.add_argument("--granularity", choices=_CHOICES["granularity"])
    chk.add_argument("--context", choices=_CHOICES["context"])
    chk.add_argument("--budget", type=int)
    chk.add_argument("--template", help="prompt template file (default: bundled)")
    chk.add_argument("--out-dir", required=True, help="directory for report and ledger files")
    chk.add_argument("--runs", type=int, help="repeat the run N times (cache bypassed)")
    chk.add_argument(
        "--max-parse-failures", type=int, help="exit 4 when more responses than this fail to parse"
    )
    _backend_flags(chk)

    ev = sub.add_parser("eval", help="score predictions against gold labels")
    ev.add_argument("--gold", help="gold JSONL")
    ev.add_argument("--pred", help="prediction JSONL")
    ev.add_argument("--runs-dir", help="aggregate metrics.json files across run directories")
    ev.add_argument("--out", help="metrics/aggregate JSON (default: stdout)")
    return parser


def _backend_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--endpoint", help="chat-completions URL: selects the http backend")
    p.add_argument("--model", help="model name sent on the wire / priced in the ledger")
    p.add_argument("--temperature", type=float)
    p.add_argument("--parallelism", type=int)
    p.add_argument("--cache-dir")
    p.add_argument("--price-table", help="per-1K-token price JSON")
    p.add_argument("--stub-script", help="stub script JSONL: selects the stub backend")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge environment, config file and explicit flags, in that order, over
    the defaults, and check every value whatever its source."""
    values = {key: os.environ[env] for key, env in _ENV_KEYS.items() if os.environ.get(env)}
    if args.config:
        file_cfg = read_json(args.config)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(_KEY_TYPES))
        if unknown:
            raise ValueError(f"unknown config keys {unknown} in {args.config}")
        values.update(file_cfg)
    for key in _KEY_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            values[key] = value
    given = {_FIELD_NAMES.get(key, key): _typed(key, value) for key, value in values.items()}
    # The backend follows from the inputs, whatever their source: a stub
    # script selects the stub, else an endpoint selects http, else the stub.
    given["kind"] = HTTP if "endpoint" in given and given.get("script_path") is None else STUB
    retry = {f: given.pop(f) for f in ("max_attempts", "base_backoff_s") if f in given}
    run = {f: given.pop(f) for f in ("price_table", "budget", *_CHOICES, "runs") if f in given}
    return RunConfig(
        backend=BackendConfig(retry=RetryPolicy(**retry), **given),
        max_parse_failures=getattr(args, "max_parse_failures", None),
        **run,
    )


def _typed(key: str, value):
    """`value` as config key `key`'s type; a value of another JSON type is an error."""
    kind = _KEY_TYPES[key]
    if type(value) is kind or (value is None and key in _PATH_KEYS):
        return value
    if kind is float and type(value) is int:
        return float(value)
    raise ValueError(f"config key {key!r} must be {kind.__name__}, got {value!r}")


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Stream `chunks` into the file `out`, or to stdout when no file is given."""
    if out:
        atomic_write_chunks(out, chunks)
    else:
        sys.stdout.writelines(chunks)


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def _units(path: str, cfg: RunConfig, *args) -> UnitTable:
    """`UnitTable(blocks, *args)` for the blocks of the document at `path`, each yielded as the
    file is read: no copy of the whole text, of its lines or of its blocks is built. Every
    input error is raised here, and names `path`."""
    try:
        return UnitTable(_Builder(cfg.format).blocks(text_lines(path)), *args)
    except (MalformedInput, UnchunkableText) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def cmd_segment(args: argparse.Namespace, cfg: RunConfig) -> int:
    doc_id = Path(args.input).stem
    # The units are all made, and every input error raised, before the first record is written.
    # Provisions are bounded by no budget.
    budget = None if cfg.granularity == SENTENCE else cfg.budget
    records = (
        {
            "unit_ref": u.unit_ref,
            "kind": "passage",
            "text": u.text,
            "token_estimate": estimate_tokens(u.text),
            "parent_block": [u.block, u.block],
        }
        if u.origin == PASSAGE
        else {
            "unit_ref": u.unit_ref,
            "kind": "provision",
            "text": u.text,
            "origin": u.origin,
            "block_index": u.block,
        }
        for u in _units(args.input, cfg, doc_id, cfg.granularity, budget)
    )
    _emit(map(jsonl_line, records), args.out)
    return EXIT_OK


def _backend(cfg: BackendConfig, prices: dict) -> Backend:
    """The backend `cfg` describes. A run with nothing to answer it, or an unpriced model,
    fails before it is built, so before any paid call and before any directory is made."""
    if cfg.kind == STUB and not cfg.script_path and not cfg.cache_dir:
        raise ValueError("no backend: give --stub-script or --endpoint")
    price_of(prices, cfg.model_name)
    return make_backend(cfg)


def cmd_classify(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .classify import load_classification_template
    from .pipeline import classify_iter
    from .taxonomy import load_concept_model

    doc_id = Path(args.input).stem
    # No document is built: each block is dropped once its provisions' rows are made.
    provisions = _units(args.input, cfg, doc_id, SENTENCE)
    model = load_concept_model(args.concepts)
    template = load_classification_template(args.prompt_template)
    # The keyword baseline makes no call, so it reads no price table.
    backend = None if args.keyword_only else _backend(cfg.backend, load_price_table(cfg.price_table))
    results = classify_iter(provisions, model, backend, template, args.stem, cfg.backend.parallelism)
    # Each label is written as its provision completes. `--out` is checked before the
    # first call, and a failed write cancels the queued calls before the error propagates.
    with closing(results):
        _emit((r.to_line() for r in results), args.out)
    return EXIT_OK


def cmd_check(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .compliance import CHECK_FILES, load_template, write_check_outputs
    from .pipeline import compliance_iter
    from .taxonomy import load_ruleset

    doc_id = Path(args.artifact).stem
    # Each block becomes its units' rows in a table as it is read, so no document is built;
    # every row is made, and every input error raised, before the first call. Each run makes
    # the units from the table as it takes them.
    context_on = cfg.context == "on"
    units = _units(args.artifact, cfg, doc_id, cfg.granularity, cfg.budget, context_on)
    rules = load_ruleset(args.rules)
    template = load_template(args.template)
    prices = load_price_table(cfg.price_table)
    out_dir = Path(args.out_dir)
    # Repeated runs bypass the cache so that they are independent samples.
    backend = _backend(cfg.backend if cfg.runs == 1 else replace(cfg.backend, cache_dir=None), prices)
    targets = (
        [out_dir / f"run_{k:02d}" for k in range(1, cfg.runs + 1)] if cfg.runs > 1 else [out_dir]
    )
    for target in targets:  # an out-dir that cannot be made fails before the first call
        target.mkdir(parents=True, exist_ok=True)
        # A killed run leaves its temp files; one that ends by an error or signal does not.
        remove_stale_temps(target / name for name in CHECK_FILES)
    worst_failures = 0
    for k, target in enumerate(targets, start=1):
        # The last run takes each unit's text and context from the table, which drops them,
        # so the writer's growth reuses the memory that the texts free (see `check_units`).
        last = k == len(targets)
        findings = compliance_iter(
            units.check_units(release=last), rules, backend, template, cfg.backend.parallelism
        )
        # A failed write cancels the queued calls before the error propagates.
        with closing(findings):
            totals = write_check_outputs(target, findings, rules, doc_id, prices)
        worst_failures = max(worst_failures, totals["parse_failures"])

    limit = cfg.max_parse_failures
    if limit is not None and worst_failures > limit:
        print(
            f"parse failures ({worst_failures}) exceed the allowed maximum ({limit})",
            file=sys.stderr,
        )
        return EXIT_PARSE_THRESHOLD
    return EXIT_OK


def cmd_eval(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .evaluation import aggregate_runs, confusion, load_gold, load_predictions, metrics

    if args.runs_dir:
        reports = _load_run_reports(Path(args.runs_dir))
        aggregate = aggregate_runs(reports)
        _emit(json_chunks(aggregate.to_dict()), args.out)
        _print_box_table(aggregate)
        return EXIT_OK

    if not args.gold or not args.pred:
        raise ValueError("eval needs --gold and --pred (or --runs-dir)")
    predicted, parse_failures = load_predictions(args.pred)
    counts = confusion(predicted, load_gold(args.gold))  # the gold file is read once, as a stream
    body = metrics(counts, parse_failure_count=parse_failures).to_dict()
    body["match_accuracy"] = {"mode": "any_overlap", "value": counts.share(counts.overlap)}
    _emit(json_chunks(body), args.out)
    return EXIT_OK


def _load_run_reports(runs_dir: Path) -> list[MetricsReport]:
    """The `eval` metrics of each run: `<runs_dir>/<run>/metrics.json`."""
    from .evaluation import MetricsReport
    paths = sorted(runs_dir.glob("*/metrics.json"))
    if not paths:
        raise ValueError(f"no <run>/metrics.json files under {runs_dir}")
    reports = []
    for path in paths:
        body = read_json(path)  # its own errors name `path`
        try:
            reports.append(MetricsReport.from_dict(body))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return reports


def _print_box_table(aggregate) -> None:
    """The aggregate as TSV on stderr, so that stdout stays one JSON document."""
    header = ["metric", "mean", "median", "q1", "q3", "min", "max", "wlow", "whigh"]
    print("\t".join(header), file=sys.stderr)
    for name, stats in aggregate.per_metric.items():
        print("\t".join([name, *(f"{v:.4f}" for v in astuple(stats))]), file=sys.stderr)


_COMMANDS = {
    "segment": cmd_segment,
    "classify": cmd_classify,
    "check": cmd_check,
    "eval": cmd_eval,
}


class _Terminated(BaseException):
    """SIGTERM, raised in the main thread: like Ctrl-C's `KeyboardInterrupt`, no `except
    Exception` stops it, so a run ends through the same clean-up."""


def _terminate(signum, frame):
    raise _Terminated


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # SIGTERM, as `timeout`, CI cancellation and service managers send it, takes the
    # interrupt path. Only the main thread can handle a signal; the caller's handler is
    # put back on return, since `main` can be called in-process.
    handles = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _terminate) if handles else None
    try:
        return _run(args)
    finally:
        if handles:
            signal.signal(signal.SIGTERM, previous)


def _run(args: argparse.Namespace) -> int:
    try:
        return _COMMANDS[args.command](args, resolve_config(args))
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except BrokenPipeError:
        # The reader of stdout is gone, which is no input error. Python's last flush of
        # stdout at exit goes to devnull (the "Note on SIGPIPE" of the `signal` docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except KeyboardInterrupt:
        # By then each output file's temp file is deleted, and its path left as it was.
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except _Terminated:  # as after an interrupt
        print("terminated", file=sys.stderr)
        return EXIT_TERMINATED
    except (RegcheckError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
