#!/usr/bin/env python3
"""Seeded, offline benchmark of the regcheck CLI.

    python3 bench/run.py --workload classify-stem --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each run generates its inputs from --seed (see gen.py), then:

- with --trace 0, times repetitions of the workload's CLI commands, each in a
  fresh subprocess, for --seconds seconds, checks every repetition's output
  against the generator's plan, and reports the end-to-end metrics;
- with --trace 1, calls the library's public functions in-process on the same
  inputs with timing proxies around them (see trace_layers.py) and reports the
  per-layer metrics.

Human-readable lines go to stdout first; the last line is one JSON object
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
every output check passed. Everything runs offline: stub backends, plus an
out-of-process mock chat endpoint (mock_endpoint.py) on localhost.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "regcheck"
sys.path.insert(0, str(BENCH))

from gen import Plan, Spec, generate  # noqa: E402

# Load comes from this one process: at most this many threads or connections.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
HTTP_MODEL = "gpt-3.5-turbo-0125"  # priced in the bundled price table
RETRY_CONFIG = {"retry_base_backoff_s": 0.001}
MIN_REPS = 3
SETUP_REPS = 7


@dataclass(frozen=True)
class Workload:
    spec: Spec
    pipeline: str  # "classify" or "check"
    backend: str  # "stub" or "http"
    context: bool
    why: str


WORKLOADS = {
    "classify-stem": Workload(
        # The splitter is quadratic in a paragraph's sentence count, and the keyword branch
        # linear in provisions: at 14000 sentences the stretch's split is ~1/4 of the wall time.
        Spec("plain", "corpus", paragraphs=250, lists=50, oversize=1, oversize_sentences=14000,
             rules=40, budget=512),
        "classify", "stub", False,
        "sentence-heavy corpus with lists and a PDF-style paragraph of 14000 sentences: "
        "the stemmed keyword branch and the splitter do most of the work; no HTTP, cache or compliance",
    ),
    "check-stub": Workload(
        # Sized so that the two interpreter starts (check, eval) are a small part of a repetition.
        Spec("structured", "dpa", paragraphs=12000, lists=2700, oversize=60, oversize_sentences=48,
             rules=40, budget=512),
        "check", "stub", True,
        "DPA of many short blocks and a few oversize ones, 40 rules, stub backend: prompt build, "
        "response parse, report, file writes and eval dominate",
    ),
    "check-http-resume": Workload(
        Spec("structured", "dpa", paragraphs=400, lists=90, oversize=4, oversize_sentences=48,
             rules=40, budget=512),
        "check", "http", True,
        "mock HTTP endpoint at parallelism nproc with a cache pre-filled for half the passages: "
        "the only workload on the wire and in the cache",
    ),
}

END_TO_END_UNITS = {"units_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "fail_ratio": "ratio"}


def machine_info() -> dict:
    try:
        from importlib.metadata import version

        requests_version = version("requests")
    except Exception:  # metadata missing: report, do not fail the run
        requests_version = "unknown"
    return {"nproc": NPROC, "python": platform.python_version(), "requests": requests_version,
            "machine": platform.machine(), "system": platform.system(),
            "parallelism_sweep": f"capped at nproc: {{1, {NPROC}}}"}


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------


def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REGCHECK_")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """The launch.py helper process, which starts every CLI run (see its docstring)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "launch.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run_cli(self, args: list, log: Path) -> tuple[float, float, int]:
        """Run `regcheck <args>` to exit; return (wall s, peak RSS MB of that child, exit code)."""
        request = {"argv": [sys.executable, "-m", "regcheck.cli", *map(str, args)], "cwd": str(ROOT),
                   "env": cli_env(), "stderr": str(log)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launch helper exited")
        done = json.loads(line)
        return done["wall_s"], done["rss_mb"], done["code"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Mock:
    """The mock endpoint as a child process; stopped and waited for by `close`."""

    def __init__(self, script: Path, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "mock_endpoint.py"), "--script", str(script), "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError("mock endpoint did not start")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"
        self.url = self.base + "/v1/chat/completions"
        self.totals: dict = {}

    def __enter__(self) -> "Mock":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with urllib.request.urlopen(self.base + path, data=data, timeout=10) as resp:
            return json.loads(resp.read())

    def reset(self) -> None:
        self._call("/reset", b"{}")

    def stats(self) -> dict:
        return self._call("/stats")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            out, _ = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        lines = [l for l in (out or "").splitlines() if l.startswith("{")]
        self.totals = json.loads(lines[-1]) if lines else {}


# --------------------------------------------------------------------------
# Output checks
# --------------------------------------------------------------------------


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(l) for l in path.read_text(encoding="utf-8").splitlines() if l.strip()]


def check_classify(plan: Plan, out: Path) -> tuple[int, int]:
    """(units whose record differs from the plan, records with a parse error)."""
    expected = plan.provisions
    try:
        records = read_jsonl(out / "labels.jsonl")
    except (OSError, ValueError):
        return len(expected), len(expected)
    failed = abs(len(records) - len(expected))
    for rec, ref in zip(records, expected):
        if rec.get("prov_id") != ref or not plan.provision_ok(rec):
            failed += 1
    return failed, sum(1 for r in records if r.get("parse_error") is not None)


def expected_report(plan: Plan, n_rules: int) -> tuple[dict, list[str]]:
    per_rule: dict[str, list[str]] = {}
    for ref, (pred, _, fails) in plan.passages.items():
        if not fails:
            for rid in pred:
                per_rule.setdefault(rid, []).append(ref)
    order = [f"R{k}" for k in range(1, n_rules + 1)]
    return {r: per_rule[r] for r in order if r in per_rule}, [r for r in order if r not in per_rule]


def check_check(plan: Plan, out: Path, n_rules: int, cache_hits: int) -> tuple[int, int, dict]:
    """(units differing from the plan, findings with a parse error, ledger summary)."""
    expected = plan.passages
    try:
        findings = read_jsonl(out / "findings.jsonl")
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        summary = json.loads((out / "costs_summary.json").read_text(encoding="utf-8"))
        ledger = read_jsonl(out / "costs.jsonl")
    except (OSError, ValueError):
        return len(expected), len(expected), {"uncached_latency_ms": []}
    failed = abs(len(findings) - len(expected))
    for rec, ref in zip(findings, expected):
        if rec.get("unit_ref") != ref or not plan.finding_ok(rec):
            failed += 1
    per_rule, uncovered = expected_report(plan, n_rules)
    whole_run_ok = (
        report.get("per_rule") == per_rule and list(report.get("per_rule", {})) == list(per_rule)
        and report.get("uncovered_rules") == uncovered
        and report.get("totals", {}).get("parse_failures") == sum(f for _, _, f in expected.values())
        and summary.get("calls") == len(expected) and len(ledger) == len(expected)
        and summary.get("cache_hits") == cache_hits
    )
    if not whole_run_ok:
        failed = len(expected)
    summary["uncached_latency_ms"] = [r["latency_s"] * 1000 for r in ledger if not r.get("cached")]
    return failed, sum(1 for r in findings if r.get("parse_error") is not None), summary


def expected_metrics(plan: Plan) -> dict:
    """Independent oracle of `regcheck eval` (macro averaging, overlap matching)."""
    pairs = [(set(p), set(g)) for p, g, _ in plan.passages.values()]
    labels = sorted(set().union(*(p | g for p, g in pairs)))

    def scores(tp, fp, fn, tn):
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        total = tp + fp + fn + tn
        return {"precision": precision, "recall": recall, "f1": f1,
                "accuracy": (tp + tn) / total if total else 0.0}

    counts = []
    for label in labels:
        tp = sum(1 for p, g in pairs if label in p and label in g)
        fp = sum(1 for p, g in pairs if label in p and label not in g)
        fn = sum(1 for p, g in pairs if label not in p and label in g)
        counts.append((tp, fp, fn, len(pairs) - tp - fp - fn))
    per_label = [scores(*c) for c in counts]
    micro = scores(*(sum(c[i] for c in counts) for i in range(4)))
    macro = {k: sum(s[k] for s in per_label) / len(per_label) for k in micro}
    return {
        "micro": micro,
        "macro": macro,
        "subset_accuracy": sum(1 for p, g in pairs if p == g) / len(pairs),
        "match_accuracy": sum(1 for p, g in pairs if (p & g) or (not p and not g)) / len(pairs),
    }


def check_eval(plan: Plan, out: Path, oracle: dict) -> bool:
    try:
        body = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        got = {"micro": body["micro"], "macro": body["macro"], "subset_accuracy": body["subset_accuracy"],
               "match_accuracy": body["match_accuracy"]["value"]}
    except (OSError, ValueError, KeyError, TypeError):
        return False

    def close(a, b) -> bool:
        if isinstance(a, dict):
            return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
        return abs(a - b) <= 1e-9

    return close(got, oracle)


# --------------------------------------------------------------------------
# End-to-end runs
# --------------------------------------------------------------------------


class Runner:
    """The CLI commands of one workload, and the checks of their outputs."""

    def __init__(self, w: Workload, plan: Plan, work: Path, seed: int, launcher: Launcher):
        self.w, self.plan, self.work, self.seed = w, plan, work, seed
        self.run_cli = launcher.run_cli
        self.log = work / "cli_stderr.log"
        self.mock: Mock | None = None
        self.cache_template = work / "cache_prefilled"
        self.oracle = expected_metrics(plan) if w.pipeline == "check" else None

    def __enter__(self):
        if self.w.backend == "http":
            self.mock = Mock(self.plan.check_stub, self.seed)
            (self.work / "config.json").write_text(json.dumps(RETRY_CONFIG), encoding="utf-8")
        return self

    def __exit__(self, *exc):
        if self.mock is not None:
            self.mock.close()

    def command(self, doc: Path, out: Path, cache: Path | None = None) -> list:
        spec, plan = self.w.spec, self.plan
        if self.w.pipeline == "classify":
            return ["classify", "--input", doc, "--format", spec.fmt, "--concepts", plan.concepts,
                    "--stem", "--stub-script", plan.classify_stub, "--parallelism", 1,
                    "--out", out / "labels.jsonl"]
        args = ["check", "--artifact", doc, "--format", spec.fmt, "--rules", plan.rules,
                "--granularity", "paragraph", "--context", "on" if self.w.context else "off",
                "--budget", spec.budget, "--out-dir", out]
        if self.w.backend == "stub":
            return args + ["--stub-script", plan.check_stub, "--parallelism", 1]
        return ["--config", self.work / "config.json", *args, "--endpoint", self.mock.url,
                "--model", HTTP_MODEL, "--parallelism", NPROC, "--cache-dir", cache]

    def prepare(self) -> None:
        """Untimed: compile the package once, and fill the resume cache."""
        out = self.work / "warmup"
        cache = self.work / "warmup_cache"
        code = self.run_cli(self.command(self.plan.one_block, out, cache), self.log)[2]
        if code != 0:
            raise RuntimeError(f"warm-up command exited {code}; see {self.log}")
        if self.w.backend == "http":
            code = self.run_cli(self.command(self.plan.prefill, self.work / "prefill", self.cache_template),
                                self.log)[2]
            cached = len(list(self.cache_template.glob("*.json")))
            if code != 0 or cached != self.plan.prefilled:
                raise RuntimeError(f"cache prefill wrote {cached} entries, expected {self.plan.prefilled}")

    def setup_time(self) -> list[float]:
        """Wall times of the workload's own command on a one-block input."""
        walls = []
        for i in range(SETUP_REPS):
            cache = self.work / f"setup_cache{i}"
            wall, _, code = self.run_cli(self.command(self.plan.one_block, self.work / "setup", cache), self.log)
            if code != 0:
                raise RuntimeError(f"set-up command exited {code}; see {self.log}")
            walls.append(wall)
        return walls

    def rep(self) -> dict:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        cache = self.work / "cache"
        if self.w.backend == "http":
            shutil.rmtree(cache, ignore_errors=True)
            shutil.copytree(self.cache_template, cache)
            self.mock.reset()
        wall, rss, code = self.run_cli(self.command(self.plan.doc, out, cache), self.log)
        walls, rsss = [wall], [rss]
        if self.w.pipeline == "classify":
            units = len(self.plan.provisions)
            failed, errors = check_classify(self.plan, out)
            extra = {}
        else:
            units = len(self.plan.passages)
            hits = self.plan.prefilled if self.w.backend == "http" else 0
            failed, errors, extra = check_check(self.plan, out, self.w.spec.rules, hits)
            wall, rss, eval_code = self.run_cli(["eval", "--gold", self.plan.gold, "--pred", out / "findings.jsonl",
                                            "--out", out / "metrics.json"], self.log)
            walls.append(wall)
            rsss.append(rss)
            code = code or eval_code
            if not check_eval(self.plan, out, self.oracle):
                failed = units
        if self.mock is not None:
            stats = self.mock.stats()
            extra["mock"] = stats
            # Share of the CLI's worker-thread time that the mock's service delay takes.
            extra["wait_share"] = stats["service_s"] / (NPROC * walls[0])
            if stats["statuses"].get("200") != units - self.plan.prefilled:
                failed = units
        if code != 0:
            failed, errors = units, units
        return {"units": units, "wall_s": sum(walls), "rss_mb": max(rsss), "failed": failed,
                "errors": errors, **extra}


def tail(values: list[float]) -> str:
    """Sample count, and the highest percentile that has at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (1 - p / 100) >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"n={n}, p{p}={q:.4g}"
    return f"n={n}, too few samples for a tail percentile"


def measure(w: Workload, plan: Plan, work: Path, seed: int, seconds: float, launcher: Launcher) -> dict:
    with Runner(w, plan, work, seed, launcher) as runner:
        runner.prepare()
        setup_walls = runner.setup_time()
        reps = []
        started = time.perf_counter()
        while True:
            reps.append(runner.rep())
            elapsed = time.perf_counter() - started
            if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
                break
    mock_totals = runner.mock.totals if runner.mock else None
    rates = [r["units"] / r["wall_s"] for r in reps]
    metrics = {
        # Work done per second of CLI wall time over the whole window: on a host whose
        # speed drifts, this is steadier from run to run than the median of the reps.
        "units_per_s": sum(r["units"] for r in reps) / sum(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        "fail_ratio": statistics.median(r["errors"] / r["units"] for r in reps),
    }
    notes = {"units_per_s": f"all reps; per-rep median {statistics.median(rates):.6g}, {tail(rates)}", "setup_s": f"median of {SETUP_REPS} one-block runs",
             "peak_rss_mb": tail([r["rss_mb"] for r in reps]), "fail_ratio": tail([r["errors"] / r["units"] for r in reps])}
    extras = {}
    if w.pipeline == "check":
        extras["cost_usd"] = (statistics.median(r.get("monetary_cost", 0.0) for r in reps), "USD", f"n={len(reps)}")
    lat = [x for r in reps for x in r.get("uncached_latency_ms", [])]
    if w.backend == "http" and len(lat) >= 2:
        p50, p99 = (statistics.quantiles(lat, n=100, method="inclusive")[i] for i in (49, 98))
        extras["call_latency_p50_ms"] = (p50, "ms", tail(lat))
        extras["call_latency_p99_ms"] = (p99, "ms", f"n={len(lat)}, {len(lat) // 100} samples beyond p99")
        extras["mock_requests"] = (statistics.median(r["mock"]["requests"] for r in reps), "count",
                                   f"statuses of last rep {reps[-1]['mock']['statuses']}")
        extras["mock_wait_share"] = (statistics.median(r["wait_share"] for r in reps), "ratio",
                                     f"mock service time / ({NPROC} workers x check wall), n={len(reps)}")
    samples = {"units_per_s": rates, "wall_s": [r["wall_s"] for r in reps], "rss_mb": [r["rss_mb"] for r in reps],
               "setup_s": setup_walls}
    return {"metrics": metrics, "notes": notes, "extras": extras, "reps": len(reps), "samples": samples,
            "mock_totals": mock_totals,
            "attempted": sum(r["units"] for r in reps), "failed": sum(r["failed"] for r in reps)}


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, launcher: Launcher | None) -> dict:
    w = WORKLOADS[name]
    work = WORK / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        started = time.perf_counter()
        plan = generate(w.spec, seed, work / "inputs")
        gen_s = time.perf_counter() - started
        if trace:
            from trace_layers import traced_run

            with Mock(plan.check_stub, seed) as mock:
                result = traced_run(name, w, plan, work, mock, seconds, NPROC, HTTP_MODEL,
                                    RETRY_CONFIG["retry_base_backoff_s"],
                                    WORK / "traces" / f"{name}-s{seed}.jsonl")
            result["mock_totals"] = mock.totals
        else:
            result = measure(w, plan, work, seed, seconds, launcher)
        result["inputs"] = {"provisions": len(plan.provisions), "passages": len(plan.passages),
                            "prefilled": plan.prefilled, "rules": w.spec.rules, "generate_s": gen_s,
                            "doc_bytes": plan.doc.stat().st_size}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result


def report(name: str, seed: int, result: dict, units: dict) -> dict:
    print(f"== {name} (seed {seed}) inputs {result['inputs']}")
    for key, value in result["metrics"].items():
        note = result.get("notes", {}).get(key, "")
        print(f"  {key:34s} {value:14.6g} {units[key]:6s} {note}")
    for key, (value, unit, note) in result.get("extras", {}).items():
        print(f"  {key:34s} {value:14.6g} {unit:6s} {note} (not gated)")
    print(f"  attempted {result['attempted']} failed {result['failed']}")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "regcheck" / "cli.py").is_file():
        print(f"error: the regcheck sources are missing under {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        from trace_layers import PER_LAYER_UNITS as units
    else:
        units = END_TO_END_UNITS
    # The mock endpoint is local: never route it through a proxy from the environment.
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    print(f"machine {json.dumps(machine_info())}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = {}
    # Started first, while this process is still small.
    launcher = None if args.trace else Launcher()
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), launcher)
            summaries[name] = report(name, args.seed, result, units)
            results_dir = WORK / "results"
            results_dir.mkdir(parents=True, exist_ok=True)
            (results_dir / f"{name}-s{args.seed}-t{args.trace}.json").write_text(
                json.dumps({"machine": machine_info(), **result}, indent=1, default=str), encoding="utf-8")
    finally:
        if launcher is not None:
            launcher.close()
    if len(names) == 1:
        final = summaries[names[0]]
    else:
        final = {"correct": all(s["correct"] for s in summaries.values()),
                 "attempted": sum(s["attempted"] for s in summaries.values()),
                 "failed": sum(s["failed"] for s in summaries.values()),
                 "metrics": {f"{n}.{k}": v for n, s in summaries.items() for k, v in s["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
