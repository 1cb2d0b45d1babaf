"""`classify` and `check` stream their results: each is written as its unit completes.

So the labels' memory does not grow with the corpus; a run whose writer stops makes
no further call once the error reaches the caller; and a run whose backend fails
leaves no `--out` file, or on stdout exactly the records before the failing unit.
A keyword-only run makes no call and gives the same labels at any parallelism.
`check` and `segment` list their units in little more than their text. `check` holds
no list of its findings and stops its calls when its writer does. On a backend failure it
writes every answer it paid for: `findings.jsonl` and `errors.jsonl` partition the units,
and a rerun with the same cache bills exactly the units that `errors.jsonl` lists.
`check`'s last run frees each unit's text as the model stage takes it, so its peak is the
start of that stage plus a constant. SIGTERM ends `check` as Ctrl-C does, with exit 143,
and `check` removes the temp files that a killed run left before its first call.
`eval` reads the gold file once, as a stream, holds no list of its records, and holds one
label set per distinct set of its predictions.
A stdout that its reader closes ends `segment` and `classify` quietly, with exit 141,
and stops `classify`'s calls as an early close does.
"""

from __future__ import annotations

import gc
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest

import regcheck.cli as cli
import regcheck.compliance as compliance
import regcheck.evaluation as evaluation
import regcheck.pipeline as pipeline
from regcheck.cli import main
from regcheck.compliance import NOT_SENT
from regcheck.corpus import extract_provisions, parse_document
from regcheck.errors import BackendError
from regcheck.llm import HttpBackend, StubBackend, Usage
from regcheck.pipeline import classify_iter
from regcheck.storage import numbered_jsonl, write_jsonl
from regcheck.taxonomy import load_concept_model
from test_llm import _child_env, _ScriptedHandler, scripted_server

_UNIT = re.compile(r"Provision (\d+) ")


def _text(i: int) -> str:
    return f"Provision {i} shall keep the tracing records."


def _corpus_text(n: int) -> str:
    """A plain document of `n` one-sentence paragraphs: provision i is unit i."""
    return "".join(_text(i) + "\n\n" for i in range(n))


def _corpus(tmp_path, n: int):
    path = tmp_path / f"corpus_{n}.txt"
    path.write_text(_corpus_text(n), encoding="utf-8")
    return path


def _argv(fixtures, data_dir, corpus, *extra: str) -> list[str]:
    return [
        "classify", "--input", str(corpus), "--format", "plain",
        "--concepts", str(data_dir / "food_safety_concepts.jsonl"),
        "--stub-script", str(fixtures / "stub_classify.jsonl"), *extra,
    ]


def _check_argv(fixtures, data_dir, artifact, out_dir, *extra: str) -> list[str]:
    return [
        "check", "--artifact", str(artifact), "--rules", str(data_dir / "gdpr_art28_demo.jsonl"),
        "--stub-script", str(fixtures / "stub_paragraph_aware.jsonl"),
        "--out-dir", str(out_dir), *extra,
    ]


CHECK_FILES = [
    "costs.jsonl", "costs_summary.json", "errors.jsonl", "findings.jsonl", "report.json",
    "report.md",
]
# A check answer per unit, in turn: both rules, one, not applicable, and a rejected answer.
CHECK_ANSWERS = ("R1, R3. Both apply.", "R2. Confidentiality.", "R99. None.", "No identifier.")


class _Backend:
    """Answers every unit after sleeping `pause` seconds, except `failing`, which
    raises `error`; counts the calls started and those running. `check` answers unit i
    with `CHECK_ANSWERS[i % 4]`."""

    def __init__(
        self, pause: float = 0.0, failing: int | None = None, error: type = BackendError
    ):
        self.pause, self.failing, self.error = pause, failing, error
        self.lock = threading.Lock()
        self.started = self.in_flight = 0

    def complete(self, messages):
        with self.lock:
            self.started += 1
            self.in_flight += 1
        try:
            time.sleep(self.pause)
            unit = int(_UNIT.search(messages[-1].content).group(1))
            if unit == self.failing:
                raise self.error("unit failed")
            if messages[-1].content.startswith("Text:"):  # a check prompt
                return CHECK_ANSWERS[unit % 4], Usage("stub-model", 10, 5)
            return "Traceability. A tracing duty.", Usage("stub-model", 10, 5)
        finally:
            with self.lock:
                self.in_flight -= 1

    def stand_in(self, monkeypatch) -> _Backend:
        """Answer in place of every `StubBackend` the CLI builds."""
        monkeypatch.setattr(StubBackend, "complete", lambda stub, messages: self.complete(messages))
        return self


def test_streamed_labels_take_memory_independent_of_the_corpus(
    monkeypatch, fixtures, data_dir, tmp_path
):
    # Traced from the start of the model stage, when the provisions already exist, to
    # the end of the run: the excess is what the run holds beyond its input.
    _Backend().stand_in(monkeypatch)
    run, starts = pipeline.classify_iter, []

    def measured(*args, **kwargs):
        starts.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return run(*args, **kwargs)

    monkeypatch.setattr(pipeline, "classify_iter", measured)
    excess = {}
    for n in (500, 2000):
        out = tmp_path / f"labels_{n}.jsonl"
        tracemalloc.start()
        try:
            assert main(_argv(fixtures, data_dir, _corpus(tmp_path, n), "--out", str(out))) == 0
            excess[n] = tracemalloc.get_traced_memory()[1] - starts[-1]
        finally:
            tracemalloc.stop()
        assert len(out.read_text(encoding="utf-8").splitlines()) == n
    # A list of the results would hold ~1 kB a provision: 1.5 MB more at 2000 than at 500.
    assert excess[2000] < excess[500] + 100_000, excess


class _Interrupted:
    """A stdout whose `writelines` takes `k` lines, then raises `error`, a KeyboardInterrupt."""

    def __init__(self, k: int):
        self.k, self.lines = k, []
        self.error = KeyboardInterrupt()

    def writelines(self, chunks):
        for chunk in chunks:
            if len(self.lines) == self.k:
                raise self.error
            self.lines.append(chunk)


@pytest.mark.parametrize("parallelism", [1, 4])
def test_an_interrupted_writer_stops_the_calls_before_the_error_propagates(
    monkeypatch, fixtures, data_dir, tmp_path, parallelism
):
    # The writer still holds the error, and with it the frames of the run: the queue is
    # cancelled by an explicit close, not when the garbage collector frees them.
    k = 5
    backend = _Backend(pause=0.02).stand_in(monkeypatch)
    monkeypatch.setattr(cli.sys, "stdout", _Interrupted(k))
    argv = _argv(fixtures, data_dir, _corpus(tmp_path, 200), "--parallelism", str(parallelism))
    assert main(argv) == cli.EXIT_INTERRUPTED
    assert cli.sys.stdout.error.__traceback__ is not None  # it holds the run's frames
    started = backend.started
    assert backend.in_flight == 0
    assert len(cli.sys.stdout.lines) == k
    assert k < started <= k + 2 * parallelism
    time.sleep(0.15)
    assert backend.started == started


@pytest.mark.parametrize("parallelism", [1, 4])
def test_a_consumer_that_stops_early_makes_no_further_call(data_dir, parallelism):
    k = 5
    backend = _Backend(pause=0.02)
    results = classify_iter(
        extract_provisions(parse_document(_corpus_text(200), "plain")),
        load_concept_model(data_dir / "food_safety_concepts.jsonl"),
        backend,
        parallelism=parallelism,
    )
    taken = [next(results).provision.text for _ in range(k)]
    results.close()
    started = backend.started
    assert taken == [_text(i) for i in range(k)]
    assert backend.in_flight == 0
    assert k <= started <= k + 2 * parallelism
    time.sleep(0.15)
    assert backend.started == started


@pytest.mark.parametrize("parallelism", [1, 4])
def test_a_failing_unit_exits_3_leaving_the_records_before_it(
    monkeypatch, capsys, fixtures, data_dir, tmp_path, parallelism
):
    corpus = _corpus(tmp_path, 40)
    _Backend().stand_in(monkeypatch)
    assert main(_argv(fixtures, data_dir, corpus)) == 0
    complete = capsys.readouterr().out.splitlines(keepends=True)
    assert len(complete) == 40

    failing = 23
    _Backend(failing=failing).stand_in(monkeypatch)
    extra = ("--parallelism", str(parallelism))
    assert main(_argv(fixtures, data_dir, corpus, *extra)) == 3
    out, err = capsys.readouterr()
    assert out == "".join(complete[:failing])
    assert err == "backend error: unit failed\n"

    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(_argv(fixtures, data_dir, corpus, *extra, "--out", str(out_dir / "l.jsonl"))) == 3
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("stem", [False, True])
def test_keyword_only_labels_are_the_same_at_any_parallelism(
    monkeypatch, fixtures, data_dir, tmp_path, stem
):
    calls = []
    for backend in (StubBackend, HttpBackend):
        monkeypatch.setattr(backend, "complete", lambda self, messages: calls.append(messages))
    labels = {}
    for parallelism in (1, 8):
        out = tmp_path / f"labels_{parallelism}.jsonl"
        argv = [
            "classify", "--input", str(fixtures / "food_corpus.txt"), "--format", "structured",
            "--concepts", str(data_dir / "food_safety_concepts.jsonl"), "--keyword-only",
            "--parallelism", str(parallelism), "--out", str(out), *(["--stem"] if stem else []),
        ]
        assert main(argv) == 0
        labels[parallelism] = out.read_bytes()
    assert labels[1] == labels[8]
    assert b'"keyword"' in labels[1]
    assert calls == []


def test_streamed_findings_take_memory_independent_of_the_artifact(
    monkeypatch, fixtures, data_dir, tmp_path
):
    # Traced from the start of the model stage, when the units already exist, to the end
    # of the run: the excess is what the run holds beyond its input.
    _Backend().stand_in(monkeypatch)
    run, starts = pipeline.compliance_iter, []

    def measured(*args, **kwargs):
        starts.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return run(*args, **kwargs)

    monkeypatch.setattr(pipeline, "compliance_iter", measured)
    excess = {}
    for n in (500, 2000):
        out = tmp_path / f"out_{n}"
        tracemalloc.start()
        try:
            assert main(_check_argv(fixtures, data_dir, _corpus(tmp_path, n), out)) == 0
            excess[n] = tracemalloc.get_traced_memory()[1] - starts[-1]
        finally:
            tracemalloc.stop()
        assert len((out / "findings.jsonl").read_text(encoding="utf-8").splitlines()) == n
    # The run keeps ~80 B a finding: each ledger row's cost and latency, for
    # costs_summary.json, and each applicable finding's ref in the per-rule lists. The
    # run's only run takes each unit's text (~95 B here) from the table, which drops it, so
    # that growth reuses what the texts free and the peak is the start plus a constant.
    # A table that keeps its texts reads ~120 kB more at 2000 than at 500, and a list of
    # the findings ~450 kB.
    assert excess[2000] < excess[500] + 30_000, excess


class _StageReached(Exception):
    """Raised where a subcommand's stage would start, once its memory is measured."""


def _held_beyond_text(monkeypatch, module, stage: str, texts, argv) -> dict[int, int]:
    """What `main(argv(n))` holds where `module.<stage>` starts, less the text of its units,
    for corpora of 500 and 2000 one-sentence paragraphs. `texts` gives the unit texts of the
    stage's first argument. A first, untraced run loads every module the subcommand imports."""
    held = {}

    def measured(units, *args, **kwargs):
        gc.collect()
        now = tracemalloc.get_traced_memory()[0]
        unit_texts = texts(units)
        held[len(unit_texts)] = now - sum(map(sys.getsizeof, unit_texts))
        raise _StageReached

    monkeypatch.setattr(module, stage, measured)
    with pytest.raises(_StageReached):
        main(argv(100))
    held.clear()
    for n in (500, 2000):
        tracemalloc.start()
        try:
            with pytest.raises(_StageReached):
                main(argv(n))
        finally:
            tracemalloc.stop()
    return held


# What listing the units costs, beyond their text, when the stage that takes them starts.
# A list of records costs 200-300 B a unit: each `Unit` or `CheckUnit` with its ref string.
# The unit table costs ~16 B, a list slot and a block index, and the bound is 64 B.
UNIT_BYTES = 64


@pytest.mark.parametrize("granularity", ["sentence", "paragraph"])
def test_check_lists_its_units_in_little_more_than_their_text(
    monkeypatch, fixtures, data_dir, tmp_path, granularity
):
    def argv(n):
        artifact, out = _corpus(tmp_path, n), tmp_path / f"out_{n}"
        return _check_argv(fixtures, data_dir, artifact, out, "--granularity", granularity)

    def texts(units):
        return [u.passage.text for u in units]

    held = _held_beyond_text(monkeypatch, pipeline, "compliance_iter", texts, argv)
    assert held[2000] - held[500] <= UNIT_BYTES * 1500, held


@pytest.mark.parametrize("granularity", ["sentence", "paragraph"])
def test_segment_lists_its_units_in_little_more_than_their_text(
    monkeypatch, tmp_path, granularity
):
    def argv(n):
        return ["segment", "--input", str(_corpus(tmp_path, n)), "--granularity", granularity]

    def texts(chunks):
        return [json.loads(line)["text"] for line in chunks]

    held = _held_beyond_text(monkeypatch, cli, "_emit", texts, argv)
    assert held[2000] - held[500] <= UNIT_BYTES * 1500, held


def test_classify_lists_its_provisions_in_little_more_than_their_text(
    monkeypatch, fixtures, data_dir, tmp_path
):
    def argv(n):
        return _argv(fixtures, data_dir, _corpus(tmp_path, n), "--out", str(tmp_path / "labels"))

    def texts(units):
        return [u.text for u in units]

    held = _held_beyond_text(monkeypatch, pipeline, "classify_iter", texts, argv)
    assert held[2000] - held[500] <= UNIT_BYTES * 1500, held


class _FailingAfter:
    """`cost_row` that raises `exc` once `k` ledger rows are built: the writer fails
    while it writes finding k + 1."""

    def __init__(self, k: int, exc: BaseException):
        self.k, self.exc, self.built = k, exc, 0
        self.cost_row = compliance.cost_row

    def __call__(self, prices, usage):
        if self.built == self.k:
            raise self.exc
        self.built += 1
        return self.cost_row(prices, usage)


@pytest.mark.parametrize("parallelism", [1, 4])
@pytest.mark.parametrize("exc", [KeyboardInterrupt(), OSError(28, "No space left on device")],
                         ids=["interrupt", "disk-full"])
def test_a_failed_check_writer_stops_the_calls_before_the_error_propagates(
    monkeypatch, fixtures, data_dir, tmp_path, parallelism, exc
):
    k = 5
    backend = _Backend(pause=0.02).stand_in(monkeypatch)
    monkeypatch.setattr(compliance, "cost_row", _FailingAfter(k, exc))
    out = tmp_path / "out"
    argv = _check_argv(fixtures, data_dir, _corpus(tmp_path, 200), out, "--parallelism",
                       str(parallelism))
    # `exc` is kept by the test, and with it the frames of the run.
    assert main(argv) == (cli.EXIT_INTERRUPTED if isinstance(exc, KeyboardInterrupt) else 2)
    started = backend.started
    assert backend.in_flight == 0
    # The writer takes a batch of findings at a time, and the queue holds 2 x parallelism.
    assert k < started <= compliance._WRITE_BATCH + 2 * parallelism
    time.sleep(0.15)
    assert backend.started == started
    assert list(out.iterdir()) == []


def _records(path) -> list[dict]:
    return [record for _, record in numbered_jsonl(path)]


def _partition(clean, out) -> tuple[list[str], list[str]]:
    """The unit refs of `out`'s findings and errors, checked to partition the units of the
    clean run in `clean`, each in input order, and to hold only the six files."""
    assert sorted(p.name for p in out.iterdir()) == CHECK_FILES  # no temp or spool file
    order = {r["unit_ref"]: k for k, r in enumerate(_records(clean / "findings.jsonl"))}
    answered = [r["unit_ref"] for r in _records(out / "findings.jsonl")]
    unanswered = [r["unit_ref"] for r in _records(out / "errors.jsonl")]
    ranks = [[order[ref] for ref in refs] for refs in (answered, unanswered)]
    assert all(rank == sorted(rank) for rank in ranks)
    assert sorted(ranks[0] + ranks[1]) == list(range(len(order)))
    return answered, unanswered


def _unanswered_line(out, failure: str, unanswered: int, units: int) -> str:
    """`check`'s one line on stderr for a run that left units unanswered."""
    counts = f"{unanswered} of {units} units unanswered"
    return f"backend error: {failure}; {counts}, listed in {out / 'errors.jsonl'}\n"


@pytest.mark.parametrize("parallelism", [1, 4])
def test_a_failing_check_unit_exits_3_keeping_every_answer(
    monkeypatch, capsys, fixtures, data_dir, tmp_path, parallelism
):
    artifact = _corpus(tmp_path, 40)
    _Backend().stand_in(monkeypatch)
    clean = tmp_path / "clean"
    assert main(_check_argv(fixtures, data_dir, artifact, clean)) == 0
    assert sorted(p.name for p in clean.iterdir()) == CHECK_FILES
    assert (clean / "errors.jsonl").read_bytes() == b""

    _Backend(failing=23).stand_in(monkeypatch)
    out = tmp_path / "out"
    extra = ("--parallelism", str(parallelism))
    assert main(_check_argv(fixtures, data_dir, artifact, out, *extra)) == 3
    answered, unanswered = _partition(clean, out)
    assert capsys.readouterr().err == _unanswered_line(out, "unit failed", len(unanswered), 40)
    errors = {r["unit_ref"]: r["error"] for r in _records(out / "errors.jsonl")}
    assert errors.pop("corpus_40:p23") == "unit failed"
    assert set(errors.values()) <= {NOT_SENT}
    if parallelism == 1:
        assert len(answered) == 23
    # Each answered unit keeps its finding and its ledger row; the reports count it alone.
    kept = [r for r in _records(clean / "findings.jsonl") if r["unit_ref"] in answered]
    assert _records(out / "findings.jsonl") == kept
    assert len(_records(out / "costs.jsonl")) == len(answered)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert [f["passage"] for f in report["findings"]] == answered
    assert report["totals"]["passages"] == len(answered)


@pytest.mark.parametrize("parallelism", [1, 2, 4, 16])
def test_findings_and_errors_partition_the_units_in_input_order(
    monkeypatch, capsys, fixtures, data_dir, tmp_path, parallelism
):
    # A thread switch every microsecond at parallelism 16: a worker may take a unit just
    # before a later one fails and not send it. The partition still holds, and stderr still
    # names the failed call.
    artifact = _corpus(tmp_path, 60)
    _Backend().stand_in(monkeypatch)
    assert main(_check_argv(fixtures, data_dir, artifact, tmp_path / "clean")) == 0
    _Backend(failing=17).stand_in(monkeypatch)
    interval = sys.getswitchinterval()
    if parallelism == 16:
        sys.setswitchinterval(1e-6)
    try:
        outs = [tmp_path / f"out{k}" for k in range(3)]
        for out in outs:
            argv = _check_argv(fixtures, data_dir, artifact, out, "--parallelism", str(parallelism))
            assert main(argv) == 3
    finally:
        sys.setswitchinterval(interval)
    lines = capsys.readouterr().err.splitlines(keepends=True)
    for out, line in zip(outs, lines, strict=True):
        _, unanswered = _partition(tmp_path / "clean", out)
        assert line == _unanswered_line(out, "unit failed", len(unanswered), 60)


def test_a_failing_check_run_is_byte_reproducible(monkeypatch, fixtures, data_dir, tmp_path):
    artifact = _corpus(tmp_path, 40)
    _Backend(failing=23).stand_in(monkeypatch)
    outputs = []
    for k in range(2):
        out = tmp_path / f"out{k}"
        assert main(_check_argv(fixtures, data_dir, artifact, out)) == 3
        outputs.append({name: (out / name).read_bytes() for name in CHECK_FILES})
    assert outputs[0] == outputs[1]
    assert outputs[0]["errors.jsonl"].count(b"\n") == 17


@pytest.mark.parametrize("parallelism", [1, 4])
def test_a_rerun_with_the_cache_bills_exactly_the_units_left_unanswered(
    capsys, fixtures, data_dir, tmp_path, parallelism
):
    # A stub script without the answer of the artifact's second unit fails that unit.
    full = fixtures / "stub_paragraph_aware.jsonl"
    lines = full.read_text(encoding="utf-8").splitlines(keepends=True)
    short = tmp_path / "short.jsonl"
    short.write_text(lines[0] + "".join(lines[2:]), encoding="utf-8")

    def check(script, out, *extra):
        return main([
            "check", "--artifact", str(fixtures / "dpa_demo.txt"), "--format", "structured",
            "--rules", str(data_dir / "gdpr_art28_demo.jsonl"), "--stub-script", str(script),
            "--out-dir", str(out), "--parallelism", str(parallelism), *extra,
        ])

    clean, failed, rerun = tmp_path / "clean", tmp_path / "failed", tmp_path / "rerun"
    assert check(full, clean) == 0
    cache = ("--cache-dir", str(tmp_path / "cache"))
    assert check(short, failed, *cache) == 3
    err = capsys.readouterr().err
    assert err.startswith("backend error: no scripted response matches request starting ")
    assert err.count("\n") == 1
    answered, unanswered = _partition(clean, failed)
    assert "dpa_demo:p1" in unanswered and "dpa_demo:p0" in answered
    assert check(full, rerun, *cache) == 0
    for name in ("findings.jsonl", "report.json", "report.md"):
        assert (rerun / name).read_bytes() == (clean / name).read_bytes(), name
    assert (rerun / "errors.jsonl").read_bytes() == b""
    refs = [r["unit_ref"] for r in _records(rerun / "findings.jsonl")]
    billed = [ref for ref, row in zip(refs, _records(rerun / "costs.jsonl")) if not row["cached"]]
    assert billed == unanswered


@pytest.mark.parametrize("command", ["classify", "check"])
@pytest.mark.parametrize("parallelism", [2, 4])
def test_a_unit_not_sent_before_the_failed_one_leaves_its_error_on_stderr(
    monkeypatch, capsys, pool_tasks, fixtures, data_dir, tmp_path, command, parallelism
):
    # The race, made certain: unit 22's task waits until unit 23's call has failed, so
    # unit 22 is not sent though it comes first. The run still names the failed call.
    corpus = _corpus(tmp_path, 40)
    pool_tasks.key = lambda unit: int(_UNIT.search(getattr(unit, "passage", unit).text)[1])
    pool_tasks.gates[22] = [pool_tasks.done(23)]
    _Backend(failing=23).stand_in(monkeypatch)
    extra = ("--parallelism", str(parallelism))
    if command == "classify":
        assert main(_argv(fixtures, data_dir, corpus, *extra)) == 3
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 22
        assert err == "backend error: unit failed\n"
    else:
        out = tmp_path / "out"
        assert main(_check_argv(fixtures, data_dir, corpus, out, *extra)) == 3
        errors = {r["unit_ref"]: r["error"] for r in _records(out / "errors.jsonl")}
        assert errors["corpus_40:p22"] == NOT_SENT and errors["corpus_40:p23"] == "unit failed"
        assert capsys.readouterr().err == _unanswered_line(out, "unit failed", len(errors), 40)


@pytest.mark.parametrize("parallelism", [1, 4])
def test_an_interrupted_check_exits_130_with_one_line_leaving_no_file(
    monkeypatch, capsys, fixtures, data_dir, tmp_path, parallelism
):
    # Ctrl-C while unit 23's call runs: one line on stderr, not a traceback.
    _Backend(failing=23, error=KeyboardInterrupt).stand_in(monkeypatch)
    out = tmp_path / "out"
    extra = ("--parallelism", str(parallelism))
    assert main(_check_argv(fixtures, data_dir, _corpus(tmp_path, 40), out, *extra)) == 130
    assert capsys.readouterr().err == "interrupted\n"
    assert list(out.iterdir()) == []


def _signalled_check(monkeypatch, data_dir, tmp_path, parallelism, signum):
    """A child interpreter's `check` over the scripted server, sent `signum` while its third
    request waits for the answer: its exit code, its stderr and what its out-dir holds."""
    waiting, answer = threading.Event(), threading.Event()
    post = _ScriptedHandler.do_POST

    def held(handler):
        if len(_ScriptedHandler.requests_seen) == 2:
            waiting.set()
            answer.wait(timeout=30)
        post(handler)

    monkeypatch.setattr(_ScriptedHandler, "do_POST", held)
    out = tmp_path / "out"
    with scripted_server() as url:
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "regcheck.cli", "check",
                "--artifact", str(_corpus(tmp_path, 40)),
                "--rules", str(data_dir / "gdpr_art28_demo.jsonl"), "--endpoint", url,
                "--model", "gpt-3.5-turbo-0125", "--parallelism", str(parallelism),
                "--out-dir", str(out),
            ],
            stderr=subprocess.PIPE, text=True, env=_child_env(),
        )
        try:
            assert waiting.wait(timeout=60)
            proc.send_signal(signum)
        finally:
            answer.set()  # a worker thread's call ends, so the run can wait for it
            _, err = proc.communicate(timeout=60)
    return proc.returncode, err, list(out.iterdir())


@pytest.mark.parametrize("parallelism", [1, 4])
def test_sigint_ends_check_with_exit_130_and_one_line_leaving_no_file(
    monkeypatch, data_dir, tmp_path, parallelism
):
    ended = _signalled_check(monkeypatch, data_dir, tmp_path, parallelism, signal.SIGINT)
    assert ended == (130, "interrupted\n", [])


@pytest.mark.parametrize("parallelism", [1, 4])
def test_sigterm_ends_check_with_exit_143_and_one_line_leaving_no_file(
    monkeypatch, data_dir, tmp_path, parallelism
):
    # As `timeout`, CI cancellation and service managers stop a run: without a handler the
    # signal kills the child (status -15), and it leaves its six temp files in the out-dir.
    ended = _signalled_check(monkeypatch, data_dir, tmp_path, parallelism, signal.SIGTERM)
    assert ended == (143, "terminated\n", [])


def test_main_puts_back_the_sigterm_handler_it_found(monkeypatch, fixtures, data_dir, tmp_path):
    _Backend().stand_in(monkeypatch)

    def mine(signum, frame):
        raise AssertionError("not called")

    previous = signal.signal(signal.SIGTERM, mine)
    try:
        assert main(_check_argv(fixtures, data_dir, _corpus(tmp_path, 3), tmp_path / "out")) == 0
        assert signal.getsignal(signal.SIGTERM) is mine
    finally:
        signal.signal(signal.SIGTERM, previous)


@pytest.mark.parametrize("runs", [1, 2])
def test_check_removes_the_temp_files_a_killed_run_left(
    monkeypatch, fixtures, data_dir, tmp_path, runs
):
    _Backend().stand_in(monkeypatch)
    # What a SIGKILL leaves: each output's temp file, in each target, beside another file.
    out = tmp_path / "out"
    targets = [out] if runs == 1 else [out / "run_01", out / "run_02"]
    for target in targets:
        target.mkdir(parents=True)
        for name in CHECK_FILES:
            (target / f"{name}.k2x9_q7p.tmp").write_text("partial", encoding="utf-8")
        (target / "notes.tmp").write_text("kept", encoding="utf-8")
    argv = _check_argv(fixtures, data_dir, _corpus(tmp_path, 5), out, "--runs", str(runs))
    assert main(argv) == 0
    for target in targets:
        assert sorted(p.name for p in target.iterdir()) == sorted([*CHECK_FILES, "notes.tmp"])


def _eval_files(tmp_path, n: int) -> list[str]:
    """`eval`'s arguments for a gold and a prediction file of `n` units. Unit i's gold
    is one rule or none, and its prediction is exact, overlaps, is empty or misses."""
    gold_path, pred_path = tmp_path / f"gold_{n}.jsonl", tmp_path / f"pred_{n}.jsonl"
    gold = [[] if i % 3 == 0 else [f"R{i % 5 + 1}"] for i in range(n)]
    pred = [(gold[i], gold[i] + ["R9"], [], ["R8"])[i % 4] for i in range(n)]
    write_jsonl(gold_path, ({"unit_ref": f"doc:p{i}", "labels": gold[i]} for i in range(n)))
    write_jsonl(pred_path, ({"unit_ref": f"doc:p{i}", "labels": pred[i]} for i in range(n)))
    return ["eval", "--gold", str(gold_path), "--pred", str(pred_path)]


def test_eval_reads_the_gold_file_once(monkeypatch, tmp_path):
    # A gold loader whose records can be iterated only once gives the same metrics.
    argv = _eval_files(tmp_path, 300)
    plain, once = tmp_path / "plain.json", tmp_path / "once.json"
    assert main([*argv, "--out", str(plain)]) == 0
    load, calls = evaluation.load_gold, []

    def one_shot(path):
        calls.append(path)
        return (record for record in load(path))

    monkeypatch.setattr(evaluation, "load_gold", one_shot)
    assert main([*argv, "--out", str(once)]) == 0
    assert calls == [argv[2]]
    assert once.read_bytes() == plain.read_bytes()
    body = json.loads(plain.read_text(encoding="utf-8"))  # exact and overlap differ here
    assert (body["subset_accuracy"], body["match_accuracy"]["value"]) == (1 / 3, 1 / 2)


def test_eval_holds_one_set_per_distinct_label_set(tmp_path):
    # What the loaded predictions hold, per unit: each ref and its dict entry, ~85 B. A
    # frozenset per record adds ~255 B.
    per_unit = {}
    for n in (2000, 8000):
        pred = _eval_files(tmp_path, n)[4]
        tracemalloc.start()
        try:
            predicted, _ = evaluation.load_predictions(pred)
            per_unit[n] = tracemalloc.get_traced_memory()[0] / n
        finally:
            tracemalloc.stop()
        assert len(predicted) == n
    assert all(held <= 120 for held in per_unit.values()), per_unit


def test_eval_holds_no_list_of_the_gold_records(tmp_path):
    # The excess is eval's traced peak over what its loaded predictions hold.
    per_unit = {}
    for n in (2000, 8000):
        argv = _eval_files(tmp_path, n)
        tracemalloc.start()
        try:
            predicted = evaluation.load_predictions(argv[4])
            footprint = tracemalloc.get_traced_memory()[0]
            del predicted
            tracemalloc.stop()
            tracemalloc.start()
            assert main([*argv, "--out", str(tmp_path / f"metrics_{n}.json")]) == 0
            per_unit[n] = (tracemalloc.get_traced_memory()[1] - footprint) / n
        finally:
            tracemalloc.stop()
    # Per gold unit, a set of the refs takes ~125 B. The run keeps 197-235 B: each gold ref,
    # in the loader's duplicate check and in `confusion`'s check that the units match.
    # Records with equal labels share one set, so a list of the `GoldRecord`s adds only
    # ~60 B: holding it reads 257-283 B.
    assert all(excess < 250 for excess in per_unit.values()), per_unit


def _read_one_line_then_close(argv: list[str], tmp_path) -> tuple[int, int, str]:
    """Run regcheck with `argv` in a child interpreter whose stdout is a pipe. Read the
    pipe up to its first newline, a page at a time, then close it. Returns the whole
    lines read, the exit code and stderr."""
    err = tmp_path / "stderr.txt"
    with open(err, "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "regcheck.cli", *argv],
            stdout=subprocess.PIPE, stderr=stderr, bufsize=0, env=_child_env(),
        )
        data = b""
        while b"\n" not in data:
            page = os.read(proc.stdout.fileno(), 4096)
            assert page, "stdout closed before its first line"
            data += page
        proc.stdout.close()
        code = proc.wait(timeout=60)
    return data.count(b"\n"), code, err.read_text(encoding="utf-8")


def test_a_closed_stdout_ends_segment_quietly(tmp_path):
    # ~1 MB of units: far more than the pipe holds, so the writer sees the close.
    corpus = _corpus(tmp_path, 6000)
    lines, code, err = _read_one_line_then_close(
        ["segment", "--input", str(corpus), "--format", "plain"], tmp_path
    )
    assert (code, err) == (141, "")
    assert lines >= 1


@pytest.mark.parametrize("parallelism", [1, 4])
def test_a_closed_stdout_ends_classify_quietly_and_stops_its_calls(
    fixtures, data_dir, tmp_path, parallelism
):
    # Each label record is ~100 kB, more than the pipe and a page read hold together:
    # the write of the record after the last one read is the one that fails.
    word = "processor "
    text = "".join("Provision %d %s.\n\n" % (i, word * 10_000) for i in range(24))
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(text, encoding="utf-8")
    with scripted_server() as url:
        lines, code, err = _read_one_line_then_close(
            [
                "classify", "--input", str(corpus), "--format", "plain",
                "--concepts", str(data_dir / "food_safety_concepts.jsonl"),
                "--endpoint", url, "--model", "gpt-3.5-turbo-0125",
                "--parallelism", str(parallelism),
            ],
            tmp_path,
        )
        requests = len(_ScriptedHandler.requests_seen)
    assert (code, err) == (141, "")
    assert lines <= requests <= lines + 2 * parallelism < 24
