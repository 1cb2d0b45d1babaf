"""Traced run: per-layer metrics from spans recorded around public calls.

The program is not modified or patched. Spans are recorded by this file
around calls into `corpus`, `taxonomy`, `classify`, `compliance`, `llm`,
`pipeline`, `evaluation` and `storage`, and inside proxies of objects the
public API accepts: a `Backend`, a `ResponseCache` and the `requests.Session`
of an `HttpBackend`. A span holds its name, start, end, parent and the run id
shared by the spans of one pass; spans are kept in memory and written out when
the run ends.

Every pass runs every layer on the workload's own generated inputs, so each
per-layer metric is measured on every workload. The workload's own pipeline
runs on all of its units; the other pipelines run on a capped prefix, enough
to time their layers.

Derived figures:

- `*.self_s`: a pipeline span minus the union of its child spans (backend,
  cache and HTTP calls made from worker threads);
- `*.growth`: the log-log slope of a layer's time between 1x and 4x input;
  1 is linear, 2 quadratic;
- `trace.overhead_ratio`: the traced pass of the workload's own pipeline
  divided by the same calls made untraced in this process.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import statistics
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import requests

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from regcheck import storage  # noqa: E402
from regcheck.classify import (  # noqa: E402
    LabelSet,
    build_classification_prompt,
    classify_keywords,
    default_classification_template,
    fuse_labels,
    parse_concept_response,
)
from regcheck.compliance import (  # noqa: E402
    assemble_report,
    build_prompt,
    default_template,
    parse_response,
    report_to_dict,
    report_to_markdown,
)
from regcheck.corpus import (  # noqa: E402
    PARAGRAPH,
    chunk_paragraphs,
    expand_list_items,
    extract_provisions,
    parse_document,
    split_text,
)
from regcheck.errors import ParseError  # noqa: E402
from regcheck.evaluation import confusion, load_gold, metrics  # noqa: E402
from regcheck.llm import (  # noqa: E402
    BackendConfig,
    CachingBackend,
    CostLedger,
    HttpBackend,
    ResponseCache,
    RetryPolicy,
    StubBackend,
    cache_key,
    default_price_table,
    load_stub_script,
)
from regcheck.pipeline import classify_provisions, compliance_units, run_compliance  # noqa: E402
from regcheck.taxonomy import (  # noqa: E402
    Concept,
    ConceptModel,
    RuleSpec,
    Ruleset,
    load_concept_model,
    load_ruleset,
    render_rules,
)

# Units of the workloads that are not the workload's own pipeline.
CAP_PROVISIONS = 2000
CAP_UNITS = 1500
CAP_HTTP_UNITS = 300
SWEEP = (1, 4)
# Paragraph texts are cut to this many characters before the split sweep, which
# keeps the 4x split of a long PDF-style stretch to about a second.
SWEEP_CHARS = 150_000

PER_LAYER_UNITS = {
    "corpus.parse_document.s": "s",
    "corpus.split_text.s": "s",
    "corpus.split_text.growth": "slope",
    "corpus.expand_list_items.s": "s",
    "corpus.chunk_paragraphs.s": "s",
    "corpus.provisions": "count",
    "corpus.passages": "count",
    "taxonomy.load.s": "s",
    "taxonomy.render_rules.us": "us",
    "classify.build_classification_prompt.s": "s",
    "classify.parse_concept_response.s": "s",
    "classify.classify_keywords.s": "s",
    "classify.classify_keywords.growth": "slope",
    "classify.fuse_labels.s": "s",
    "classify.keyword_hit_ratio": "ratio",
    "classify.parse_errors": "count",
    "compliance.build_prompt.s": "s",
    "compliance.build_prompt.growth": "slope",
    "compliance.parse_response.s": "s",
    "compliance.parse_errors": "count",
    "compliance.assemble_report.s": "s",
    "compliance.report_emit.s": "s",
    "llm.calls": "count",
    "llm.stub.complete.s": "s",
    "llm.http.complete.s": "s",
    "llm.http.client_overhead_p50_ms": "ms",
    "llm.http.client_overhead_p99_ms": "ms",
    "llm.http.requests": "count",
    "llm.http.retries": "count",
    "llm.http.useful_ratio": "ratio",
    "llm.cache_key.s": "s",
    "llm.cache.get.s": "s",
    "llm.cache.put.s": "s",
    "llm.cache.hits": "count",
    "llm.cache.misses": "count",
    "llm.cache.hit_ratio": "ratio",
    "llm.ledger.record.s": "s",
    "pipeline.classify_provisions.s": "s",
    "pipeline.classify_provisions.self_s": "s",
    "pipeline.compliance_units.s": "s",
    "pipeline.run_compliance.s": "s",
    "pipeline.run_compliance.self_s": "s",
    "evaluation.confusion.s": "s",
    "evaluation.metrics.s": "s",
    "storage.write.s": "s",
    "trace.overhead_ratio": "ratio",
}


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "thread")

    def __init__(self, sid: int, name: str, parent: int | None):
        self.sid, self.name, self.parent = sid, name, parent
        self.thread = threading.get_ident()
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    def __init__(self, tracer: "Tracer", name: str, ambient: bool):
        self.tracer, self.name, self.ambient = tracer, name, ambient

    def __enter__(self) -> Span:
        t = self.tracer
        stack = t.stack()
        parent = stack[-1].sid if stack else t.ambient
        self.span = span = Span(next(t.ids), self.name, parent)
        stack.append(span)
        if self.ambient:
            self.outer, t.ambient = t.ambient, span.sid
        span.start = time.perf_counter()
        return span

    def __exit__(self, *exc):
        span = self.span
        span.end = time.perf_counter()
        t = self.tracer
        t.stack().pop()
        if self.ambient:
            t.ambient = self.outer
        t.spans.append(span)
        return False


class Tracer:
    """In-memory spans of one run. Spans opened in worker threads with no open
    span of their own take the innermost `ambient` span as parent."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.ids = itertools.count(1)
        self.ambient: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, ambient: bool = False) -> _Open:
        return _Open(self, name, ambient)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_time(self, span: Span) -> float:
        """Span duration minus the part of it that its child spans cover."""
        intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                           for c in self.spans if c.parent == span.sid)
        covered, reach = 0.0, span.start
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        return span.duration - covered

    def records(self) -> list[dict]:
        return [{"run_id": self.run_id, "id": s.sid, "parent": s.parent, "name": s.name,
                 "start": s.start, "end": s.end, "thread": s.thread} for s in self.spans]


class TimedBackend:
    """A `Backend` whose calls are spans."""

    def __init__(self, inner, tracer: Tracer, name: str):
        self.inner, self.tracer, self.name = inner, tracer, name

    def complete(self, messages):
        with self.tracer.span(self.name):
            return self.inner.complete(messages)


class TimedCache:
    """A `ResponseCache` whose get/put are spans, counting hits and misses."""

    def __init__(self, inner: ResponseCache, tracer: Tracer):
        self.inner, self.tracer = inner, tracer

    def get(self, key):
        with self.tracer.span("llm.cache.get"):
            hit = self.inner.get(key)
        self.tracer.count("llm.cache.hits" if hit is not None else "llm.cache.misses")
        return hit

    def put(self, key, response, usage):
        with self.tracer.span("llm.cache.put"):
            self.inner.put(key, response, usage)


class TimedSession(requests.Session):
    """Session that notes the mock's reported service time of every POST."""

    def __init__(self):
        super().__init__()
        self.local = threading.local()

    def post(self, *args, **kwargs):
        resp = super().post(*args, **kwargs)
        posts = getattr(self.local, "posts", None)
        if posts is not None:
            posts.append(float(resp.headers.get("X-Service-Time", "nan")))
        return resp


class TimedHttp:
    """An `HttpBackend` whose calls are spans. Client overhead of a call made
    in one request is its wall time minus the mock's service time; calls that
    were retried also hold backoff sleeps and are left out of it."""

    def __init__(self, inner: HttpBackend, session: TimedSession, tracer: Tracer):
        self.inner, self.session, self.tracer = inner, session, tracer
        self.overhead_ms: list[float] = []
        self._lock = threading.Lock()

    def complete(self, messages):
        self.session.local.posts = posts = []
        with self.tracer.span("llm.http.complete") as span:
            result = self.inner.complete(messages)
        if len(posts) == 1:
            with self._lock:
                self.overhead_ms.append((span.duration - posts[0]) * 1000)
        return result


def slope(times: dict[int, float]) -> float:
    (a, ta), (b, tb) = sorted(times.items())
    return math.log(tb / ta) / math.log(b / a)


def best_time(fn, repeats: int = 2) -> float:
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0] if values else math.nan
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def finding_record(f) -> dict:
    """A finding as the CLI writes it to `findings.jsonl`."""
    return {"unit_ref": f.passage_ref, "labels": sorted(f.rule_ids), "rationale": f.rationale,
            "parse_error": f.parse_error}


class Check:
    """Counts units whose in-process output differs from the generator's plan."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def provisions(self, results, plan) -> None:
        for r in results:
            self.attempted += 1
            if not plan.provision_ok(r.to_record()):
                self.failed += 1

    def findings(self, findings, plan) -> None:
        for f in findings:
            self.attempted += 1
            if not plan.finding_ok(finding_record(f)):
                self.failed += 1

    def equal(self, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failed += 1


class Pass:
    """One traced pass over every layer on one workload's inputs."""

    def __init__(self, w, plan, work: Path, mock, cache_template: Path, http_units: int,
                 nproc: int, http_model: str, backoff_s: float, run_id: str, check: Check):
        self.w, self.plan, self.work, self.mock = w, plan, work, mock
        self.cache_template, self.http_units = cache_template, http_units
        self.nproc, self.http_model, self.backoff_s = nproc, http_model, backoff_s
        self.t = Tracer(run_id)
        self.check = check
        self.m: dict[str, float] = {}

    def http_backend(self, cache_dir: Path, traced: bool):
        cfg = BackendConfig(kind="http", endpoint=self.mock.url, model_name=self.http_model,
                            parallelism=self.nproc, retry=RetryPolicy(3, self.backoff_s))
        shutil.rmtree(cache_dir, ignore_errors=True)
        shutil.copytree(self.cache_template, cache_dir)
        if not traced:
            return CachingBackend(HttpBackend(cfg), ResponseCache(cache_dir), self.http_model, 0.0), None
        session = TimedSession()
        http = TimedHttp(HttpBackend(cfg, session=session), session, self.t)
        return CachingBackend(http, TimedCache(ResponseCache(cache_dir), self.t), self.http_model, 0.0), http

    def run(self) -> dict[str, float]:
        t, m, w, plan = self.t, self.m, self.w, self.plan
        spec = w.spec

        # corpus
        raw = plan.doc.read_text(encoding="utf-8")
        with t.span("corpus.parse_document"):
            doc = parse_document(raw, spec.fmt, doc_id=spec.doc_name)
        for block in doc.blocks:
            if block.kind == PARAGRAPH:
                with t.span("corpus.split_text"):
                    split_text(block.text)
            else:
                with t.span("corpus.expand_list_items"):
                    expand_list_items(block, doc.doc_id)
        with t.span("corpus.chunk_paragraphs"):
            passages = chunk_paragraphs(doc, spec.budget)
        provisions = extract_provisions(doc)
        m["corpus.provisions"] = len(provisions)
        m["corpus.passages"] = len(passages)
        self.check.equal(len(provisions), len(plan.provisions))
        self.check.equal(len(passages), len(plan.passages))
        texts = [b.text for b in doc.blocks if b.kind == PARAGRAPH]
        scaled = {s: [" ".join([x[:SWEEP_CHARS]] * s) for x in texts] for s in SWEEP}
        m["corpus.split_text.growth"] = slope({
            s: best_time(lambda xs=xs: [split_text(x) for x in xs], 1) for s, xs in scaled.items()})

        # taxonomy
        with t.span("taxonomy.load"):
            model = load_concept_model(plan.concepts)
            rules = load_ruleset(plan.rules)
        for _ in range(200):
            with t.span("taxonomy.render_rules"):
                render_rules(rules)
        m["taxonomy.render_rules.us"] = statistics.median(t.durations("taxonomy.render_rules")) * 1e6

        self.classify(model, provisions)
        findings, units = self.compliance(doc, rules)
        self.downstream(doc, rules, findings, units)

        m["llm.calls"] = len(t.durations("llm.stub.complete")) + len(t.durations("llm.http.complete"))
        for name in PER_LAYER_UNITS:
            if name.endswith(".s"):  # busy time: the sum of the spans of that name
                m[name] = t.total(name[:-2])
        for name in ("classify.parse_errors", "compliance.parse_errors", "llm.cache.hits", "llm.cache.misses"):
            m[name] = t.counts[name]
        lookups = m["llm.cache.hits"] + m["llm.cache.misses"]
        m["llm.cache.hit_ratio"] = m["llm.cache.hits"] / lookups if lookups else 0.0
        return m

    def classify(self, model, provisions) -> None:
        t, m, plan = self.t, self.m, self.plan
        own = self.w.pipeline == "classify"
        provs = provisions if own else provisions[:CAP_PROVISIONS]
        template = default_classification_template()
        script = load_stub_script(plan.classify_stub)

        def pipeline(backend):
            return classify_provisions(provs, model, backend, template=template, stem=True, parallelism=1)

        with t.span("pipeline.classify_provisions", ambient=True) as span:
            results = pipeline(TimedBackend(StubBackend(script), t, "llm.stub.complete"))
        m["pipeline.classify_provisions.self_s"] = t.self_time(span)
        if own:
            m["trace.overhead_ratio"] = span.duration / best_time(lambda: pipeline(StubBackend(script)), 1)
        self.check.provisions(results, plan)

        for p in provs:
            with t.span("classify.build_classification_prompt"):
                build_classification_prompt(p, model, template)
        llm_sets = []
        for r in results:
            with t.span("classify.parse_concept_response"):
                try:
                    ids = parse_concept_response(r.raw_response, model)
                except ParseError:
                    ids = frozenset()
                    t.count("classify.parse_errors")
            llm_sets.append(LabelSet.of(ids, "llm"))
        keyword_sets = []
        for p in provs:
            with t.span("classify.classify_keywords"):
                keyword_sets.append(classify_keywords(p, model, stem=True))
        for a, b in zip(llm_sets, keyword_sets):
            with t.span("classify.fuse_labels"):
                fuse_labels(a, b)
        m["classify.keyword_hit_ratio"] = sum(1 for k in keyword_sets if k.labels) / len(provs)

        # Sweep: the concept model with 4x the keywords, none of which occur.
        extra = tuple(
            Concept(f"{c.concept_id}Extra{i}", c.name, True, tuple(k + "zq" for k in c.keywords))
            for i in range(SWEEP[1] - 1) for c in model.scarce_concepts())
        wider = ConceptModel(model.concepts + extra, model.version)
        sample = provs[:1000]
        m["classify.classify_keywords.growth"] = slope({
            s: best_time(lambda mm=mm: [classify_keywords(p, mm, stem=True) for p in sample])
            for s, mm in zip(SWEEP, (model, wider))})
        self.provision_records = [r.to_record() for r in results]

    def compliance(self, doc, rules):
        t, m, w, plan = self.t, self.m, self.w, self.plan
        with t.span("pipeline.compliance_units"):
            units = compliance_units(doc, "paragraph", w.spec.budget, context_on=w.context)
        template = default_template()
        own = w.pipeline == "check"
        findings = None
        if w.backend == "stub":
            stub_units = units if own else units[:CAP_UNITS]
            script = load_stub_script(plan.check_stub)

            def pipeline(backend):
                return run_compliance(stub_units, rules, backend, template, parallelism=1)

            with t.span("pipeline.run_compliance", ambient=True) as span:
                findings = pipeline(TimedBackend(StubBackend(script), t, "llm.stub.complete"))
            m["pipeline.run_compliance.self_s"] = t.self_time(span)
            if own:
                m["trace.overhead_ratio"] = span.duration / best_time(lambda: pipeline(StubBackend(script)), 1)
            self.check.findings(findings, plan)
            checked_units = stub_units

        # The resume path: half of the units answered from the cache.
        http_units = units[: self.http_units]
        prefilled = len(http_units[::2])

        def pipeline_http(backend):
            self.mock.reset()
            return run_compliance(http_units, rules, backend, template, parallelism=self.nproc)

        backend, http = self.http_backend(self.work / "cache_traced", traced=True)
        name = "pipeline.run_compliance" if w.backend == "http" else "probe.run_compliance_http"
        with t.span(name, ambient=True) as span:
            http_findings = pipeline_http(backend)
        stats = self.mock.stats()
        self.check.findings(http_findings, plan)
        self.check.equal(t.counts["llm.cache.hits"], prefilled)
        if w.backend == "http":
            m["pipeline.run_compliance.self_s"] = t.self_time(span)
            untraced, _ = self.http_backend(self.work / "cache_untraced", traced=False)
            m["trace.overhead_ratio"] = span.duration / best_time(lambda: pipeline_http(untraced), 1)
            findings, checked_units = http_findings, http_units
        m["llm.http.client_overhead_p50_ms"] = _percentile(http.overhead_ms, 50)
        m["llm.http.client_overhead_p99_ms"] = _percentile(http.overhead_ms, 99)
        m["llm.http.requests"] = stats["requests"]
        ok = stats["statuses"].get("200", 0)
        m["llm.http.retries"] = stats["requests"] - ok
        m["llm.http.useful_ratio"] = ok / stats["requests"] if stats["requests"] else 0.0
        return findings, checked_units

    def downstream(self, doc, rules, findings, units) -> None:
        t, m, plan = self.t, self.m, self.plan
        template = default_template()
        bundles = []
        for u in units:
            with t.span("compliance.build_prompt"):
                bundles.append(build_prompt(u.passage, rules, template, u.context))
        for b in bundles:
            with t.span("llm.cache_key"):
                cache_key(self.http_model, 0.0, b.messages)
        for f in findings:
            with t.span("compliance.parse_response"):
                try:
                    parse_response(f.raw_response, rules)
                except ParseError:
                    t.count("compliance.parse_errors")
        with t.span("compliance.assemble_report"):
            report = assemble_report(findings, rules, doc.doc_id)
        with t.span("compliance.report_emit"):
            body = report_to_dict(report)
            markdown = report_to_markdown(report)
            records = [finding_record(f) for f in findings]
        ledger = CostLedger(default_price_table())
        for f in findings:
            if f.usage is not None:
                with t.span("llm.ledger.record"):
                    ledger.record(f.usage)
        out = self.work / "traced_out"
        with t.span("storage.write"):
            storage.write_json(out / "report.json", body)
            storage.atomic_write_text(out / "report.md", markdown)
            storage.write_jsonl(out / "findings.jsonl", records)
            storage.atomic_write_text(out / "costs.jsonl", ledger.to_jsonl())
            storage.write_json(out / "costs_summary.json", ledger.aggregate())
            storage.write_jsonl(out / "labels.jsonl", self.provision_records)

        refs = {f.passage_ref for f in findings}
        gold = [g for g in load_gold(plan.gold) if g.unit_ref in refs]
        predicted = {f.passage_ref: f.rule_ids for f in findings}
        with t.span("evaluation.confusion"):
            counts = confusion(predicted, gold)
        with t.span("evaluation.metrics"):
            metrics(counts, averaging="macro")

        # Sweep: the ruleset with 4x the rules.
        n = len(rules.rules)
        wider = Ruleset(rules.rules + tuple(RuleSpec(f"R{n + i + 1}", r.text, r.source_ref)
                                            for i, r in enumerate(rules.rules * (SWEEP[1] - 1))), rules.name)
        sample = units[:500]
        m["compliance.build_prompt.growth"] = slope({
            s: best_time(lambda rs=rs: [build_prompt(u.passage, rs, template, u.context) for u in sample])
            for s, rs in zip(SWEEP, (rules, wider))})


def traced_run(name, w, plan, work: Path, mock, seconds: float, nproc: int, http_model: str,
               backoff_s: float, trace_file: Path) -> dict:
    """Traced passes until `seconds` are used (at least one); medians per metric."""
    check = Check()
    http_units = None if w.backend == "http" else CAP_HTTP_UNITS
    # Fill the resume cache once, untraced: the even-indexed units of the http prefix.
    doc = parse_document(plan.doc.read_text(encoding="utf-8"), w.spec.fmt, doc_id=w.spec.doc_name)
    units = compliance_units(doc, "paragraph", w.spec.budget, context_on=w.context)[:http_units]
    cache_template = work / "cache_prefilled"
    cfg = BackendConfig(kind="http", endpoint=mock.url, model_name=http_model, parallelism=nproc,
                        retry=RetryPolicy(3, backoff_s))
    prefill = CachingBackend(HttpBackend(cfg), ResponseCache(cache_template), http_model, 0.0)
    run_compliance(units[::2], load_ruleset(plan.rules), prefill, default_template(), parallelism=nproc)

    passes, records = [], []
    started = time.perf_counter()
    while True:
        p = Pass(w, plan, work, mock, cache_template, len(units), nproc, http_model, backoff_s,
                 f"{name}-pass{len(passes)}", check)
        passes.append(p.run())
        records += p.t.records()
        elapsed = time.perf_counter() - started
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    missing = sorted(set(PER_LAYER_UNITS) - set(passes[0]))
    if missing:
        raise RuntimeError(f"traced run did not produce {missing}")
    result = {k: statistics.median(p[k] for p in passes) for k in PER_LAYER_UNITS}
    return {"metrics": result, "notes": {k: f"median of {len(passes)} passes" for k in result},
            "attempted": check.attempted, "failed": check.failed, "passes": len(passes),
            "spans": len(records), "trace_file": str(trace_file)}
