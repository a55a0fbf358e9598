"""The benchmark's three workloads, their inputs and their answer checks.

Every workload archives OMIM-like accretive releases
(:class:`repro.data.OmimGenerator`, seeded from ``--seed``) in a
chunked archive with the ``xbin`` codec and 8 chunks, and drives it the
way its users do:

* ``ingest`` -- curators committing one release per ``ingest_batch``,
  each passed as XML text.  Exercises the write path (parse, key
  annotation, Nested Merge, encode, checksum, WAL fsync and publish);
  the query, cache and server layers do no work.
* ``read-hot`` -- one in-process closed-loop reader on a snapshot
  handle (``open_archive(..., recover=False)`` + ``repro.open``) over an
  archive that fits the decoded-chunk cache.  After warm-up the codec
  and the server do no work; time sits in query, core and serializer.
* ``serve-mixed`` -- ``xarchd`` in a subprocess with a chunk-cache
  budget of about a quarter of the chunks; one reader sends reads back
  to back over one keep-alive connection while an ingest due half-way
  goes out over another.  Exercises what ``read-hot`` bypasses: pins,
  cache misses and evictions, decode and verify on the read path, HTTP.

Every answer is checked against the generated releases; see
:class:`truth.Truth`.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import pickle
import random
import resource
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Callable, Optional

import repro
from repro import xmltree
from repro.client import connect
from repro.core.versionset import VersionSet
from repro.data.omim import OMIM_KEY_TEXT
from repro.storage import create_archive, fsck_archive, open_archive

import layers
from spans import Tracer, install_program_probes, summarize
from truth import (
    Truth,
    change_tuples,
    generate,
    history_tuple,
    normalized_digest,
    releases,
    title_path,
    title_query,
)

CHUNKS = 8
CODEC = "xbin"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: ``ingest``: the first release is the base archive; every cycle copies
#: the base and commits the next ``INGEST_CYCLE`` releases one by one.
#: Whole cycles keep the measured releases the same however fast the
#: program is, so a faster program is not charged for a bigger archive.
INGEST_RECORDS = 150
INGEST_CYCLE = 16
#: Commits per round of the commit median (half a cycle, so every run
#: weighs the smaller and the larger archives of a cycle alike).
INGEST_ROUND = 8

#: ``read-hot`` / ``serve-mixed`` archive shape.
READ_RECORDS = 200
READ_VERSIONS = 20
#: Operation mixes, repeated in seeded shuffled blocks so each run has
#: the same shares; the costly kinds still get dozens of samples a run.
READ_BLOCK = ("select",) * 8 + ("history",) * 8 + ("retrieve",) * 2 + ("changes",) * 2
SERVE_BLOCK = ("select",) * 8 + ("history",) * 8 + ("changes",) * 4
#: Distinct point-select targets in ``read-hot`` (their expected answers
#: are XPath-evaluated up front, with the inputs).
SELECT_POOL = 256
#: ``serve-mixed`` load: one reader issues the seeded mix back to back
#: over one keep-alive connection (closed loop) for the whole window,
#: and one ``POST /ingest`` of the next release goes out over a second
#: connection, due half-way through the window.  An open loop at a rate
#: the single server process sustains leaves most of the window idle
#: (about 110 reads in 20 s), and whether a read then pays the
#: delayed-ACK wait depends on whether it went out within ~40 ms of the
#: previous answer, so a read's latency flips between ~10 and ~50 ms with
#: the machine's timing.  Back to back, every read pays the wait the
#: same way and a run gets about twice the reads.
SERVE_PLAN = 4000

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FLUSH_POLICY = (
    "fsync on: every WAL commit fsyncs staged files, the WAL record and "
    "the directory (the program has no other setting)"
)


# -- measurement helpers ------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(path)
        for name in names
    )


def peak_rss_mb() -> float:
    """This process's peak resident set so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def in_child(ctx: "Context", workload: str):
    """A workload's inputs and expected answers, built in a fresh process.

    The memory they take then never counts in this process's peak
    resident set, which is meant to be the program's.
    """
    path = ctx.path("inputs.pickle")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), workload, str(ctx.seed), path],
        env=env,
        check=True,
    )
    with open(path, "rb") as handle:
        return pickle.load(handle)  # written just now by the child


@dataclass
class Context:
    """What one run gets: its seed, window, scratch directory and mode."""

    seed: int
    seconds: float
    tmp: str
    trace: bool
    server_cache_bytes: int
    slo_ms: float
    tracer: Tracer = field(default_factory=Tracer)

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    @property
    def repeats(self) -> int:
        # The traced run reports no set-up time, so it sets up once.
        return 1 if self.trace else SETUP_REPEATS


@dataclass
class Outcome:
    """A workload's counts, metrics and (traced) layer summary."""

    #: operation kinds whose latencies make ``p50_ms``/``p90_ms``
    kinds: tuple = ()
    #: When set, the median latency is taken in rounds of this many
    #: consecutive operations and averaged over the rounds.  A slow spell
    #: of the machine then moves the result by its share of the run; a
    #: median over the whole run jumps between the fast and the slow
    #: mode once about half of the run is slow.  Tail percentiles have
    #: too few samples in a round and are taken over the whole run.
    round_size: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    #: operation kind -> latencies in ms
    latencies: dict = field(default_factory=dict)
    setup_s: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    stored_bytes_ratio: float = 0.0
    #: extra end-to-end figures by name: (value, unit)
    detail: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)
    #: per-layer metrics (traced runs)
    layers: dict = field(default_factory=dict)
    #: raw per-span totals of the traced window
    spans: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(what)

    def end_to_end(self) -> dict:
        missing = [kind for kind in self.kinds if not self.latencies.get(kind)]
        if missing:
            raise RuntimeError(f"no {', '.join(missing)} operation succeeded")
        p50 = [self.percentile(kind, 0.5) for kind in self.kinds]
        p90 = [self.percentile(kind, 0.9) for kind in self.kinds]
        return {
            "setup_s": statistics.median(self.setup_s),
            "p50_ms": geomean(p50),
            "p90_ms": geomean(p90),
            "peak_rss_mb": self.peak_rss_mb,
            "stored_bytes_ratio": self.stored_bytes_ratio,
        }

    def percentile(self, kind: str, q: float) -> float:
        values = self.latencies[kind]
        size = self.round_size
        if not size or q != 0.5 or len(values) < size:
            return quantile(values, q)
        return statistics.fmean(
            quantile(values[start : start + size], q)
            for start in range(0, len(values) - size + 1, size)
        )

    def kind_detail(self, kinds) -> None:
        for kind in kinds:
            values = self.latencies.get(kind, [])
            self.detail[f"{kind}_count"] = (len(values), "count")
            if values:
                self.detail[f"{kind}_p50_ms"] = (self.percentile(kind, 0.5), "ms")
                self.detail[f"{kind}_p90_ms"] = (self.percentile(kind, 0.9), "ms")


def _timed(outcome: Outcome, tracer: Tracer, kind: str, run: Callable):
    """Run one operation inside an op span; record its latency.

    Returns ``(ok, value)``; an exception counts as a failed operation.
    """
    outcome.attempted += 1
    start = time.perf_counter()
    try:
        with tracer.span("bench.op"):
            value = run()
    except Exception as error:  # every failure is counted, none is fatal
        outcome.fail(f"{kind}: {type(error).__name__}: {error}")
        return False, None
    outcome.latencies.setdefault(kind, []).append((time.perf_counter() - start) * 1e3)
    return True, value


def _count_query(tracer: Tracer, stats, results: int) -> None:
    tracer.count(
        "query.stats",
        selects=1,
        nodes=stats.nodes_visited(),
        results=results,
        chunks=stats.cache_hits + stats.cache_misses,
        pruned=stats.chunks_pruned,
    )


def build_archive(path: str, texts: list[str]) -> None:
    """Program-side archive build: parse every release, one batch commit."""
    backend = create_archive(
        path, OMIM_KEY_TEXT, kind="chunked", chunk_count=CHUNKS, codec=CODEC
    )
    try:
        backend.ingest_batch([xmltree.parse_document(text) for text in texts])
    finally:
        backend.close()


def open_reader(path: str):
    return repro.open(open_archive(path, recover=False))


# -- ingest -------------------------------------------------------------------


def ingest_inputs(seed: int) -> tuple[list[str], str]:
    """The releases as XML text, and the newest one's normalized digest."""
    texts = []
    for doc in releases(seed, INGEST_RECORDS, 1 + INGEST_CYCLE):
        texts.append(xmltree.to_string(doc))
    return texts, normalized_digest(doc)


def run_ingest(ctx: Context) -> Outcome:
    out = Outcome(kinds=("commit",), round_size=INGEST_ROUND)
    texts, newest = in_child(ctx, "ingest")
    tracer = ctx.tracer
    if ctx.trace:
        install_program_probes(tracer)

    base = ctx.path("base")
    for attempt in range(ctx.repeats):
        path = ctx.path(f"setup-{attempt}")
        start = time.perf_counter()
        build_archive(path, texts[:1])
        out.setup_s.append(time.perf_counter() - start)
        if attempt == 0:
            os.rename(path, base)
        else:
            shutil.rmtree(path)
        gc.collect()  # each set-up starts from the same heap

    committed_bytes = 0
    commit_s = 0.0
    cycles = 0
    last = None
    tracer.enabled = ctx.trace
    window_start = time.monotonic_ns()
    deadline = time.perf_counter() + ctx.seconds
    while cycles == 0 or time.perf_counter() < deadline:
        if last is not None:
            shutil.rmtree(last)
        last = ctx.path(f"cycle-{cycles}")
        shutil.copytree(base, last)
        backend = open_archive(last)
        try:
            for text in texts[1:]:
                ok, _ = _timed(
                    out,
                    tracer,
                    "commit",
                    lambda: backend.ingest_batch([xmltree.parse_document(text)]),
                )
                if ok:
                    committed_bytes += len(text.encode("utf-8"))
                    commit_s += out.latencies["commit"][-1] / 1e3
        finally:
            backend.close()
        cycles += 1
    window_end = time.monotonic_ns()
    tracer.enabled = False

    out.attempted += 1
    report = fsck_archive(last, deep=True)
    if not report.clean:
        out.fail(f"fsck --deep found {len(report.findings)} finding(s) in {last}")
    out.attempted += 1
    with open_reader(last) as db:
        if db.last_version != len(texts):
            out.fail(f"archive holds {db.last_version} versions, expected {len(texts)}")
        elif normalized_digest(db.at(len(texts)).snapshot()) != newest:
            out.fail("retrieve(newest) differs from the generated release")

    out.peak_rss_mb = peak_rss_mb()
    out.stored_bytes_ratio = dir_bytes(last) / len(texts[-1].encode("utf-8"))
    out.kind_detail(out.kinds)
    out.detail["ingest_mb_per_s"] = (committed_bytes / 1e6 / commit_s if commit_s else 0.0, "MB/s")
    out.detail["cycles"] = (cycles, "count")
    out.detail["releases_per_cycle"] = (INGEST_CYCLE, "count")
    if ctx.trace:
        summary = tracer.summary(window_start, window_end)
        commits = len(out.latencies.get("commit", []))
        out.spans = summary
        out.layers = layers.per_layer(
            summary,
            ops=commits,
            versions=commits,
            reads=0,
            input_bytes=committed_bytes,
        )
    return out


# -- read-hot -----------------------------------------------------------------


def _read_plan(rng: random.Random, truth: Truth, versions: int, length: int) -> list:
    pool = []
    for _ in range(SELECT_POOL):
        version = rng.randint(1, versions)
        pool.append((version, title_query(rng.choice(truth.nums(version)))))
    nums = truth.nums(versions)
    plan = []
    while len(plan) < length:
        block = list(READ_BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "select":
                plan.append(("select", rng.choice(pool)))
            elif kind == "history":
                plan.append(("history", rng.choice(nums)))
            elif kind == "retrieve":
                plan.append(("retrieve", rng.randint(1, versions)))
            else:
                old = rng.randint(1, versions - 1)
                plan.append(("changes", (old, old + 1)))
    return plan


def read_hot_inputs(seed: int) -> tuple[list[str], list, dict]:
    """The releases as XML text, a seeded operation plan, and the
    expected answer of every operation in it."""
    docs, texts = generate(seed, READ_RECORDS, READ_VERSIONS)
    truth = Truth(docs)
    plan = _read_plan(random.Random(f"{seed}/read-hot"), truth, READ_VERSIONS, 4000)
    expected = {}
    for kind, arg in plan:
        if (kind, arg) in expected:
            continue
        if kind == "select":
            expected[kind, arg] = truth.select(*arg)
        elif kind == "history":
            expected[kind, arg] = truth.history(arg, READ_VERSIONS)
        elif kind == "retrieve":
            expected[kind, arg] = truth.normalized(arg)
        else:
            expected[kind, arg] = truth.changes(*arg)
    return texts, plan, expected


def run_read_hot(ctx: Context) -> Outcome:
    out = Outcome(kinds=("select", "history", "retrieve", "changes"))
    texts, plan, expected = in_child(ctx, "read-hot")
    tracer = ctx.tracer
    if ctx.trace:
        install_program_probes(tracer)

    path = ctx.path("archive")
    db = None
    for attempt in range(ctx.repeats):
        target = path if attempt == 0 else ctx.path(f"setup-{attempt}")
        start = time.perf_counter()
        build_archive(target, texts)
        reader = open_reader(target)
        out.setup_s.append(time.perf_counter() - start)
        if attempt == 0:
            db = reader
        else:
            reader.close()
            shutil.rmtree(target)
        gc.collect()  # each set-up starts from the same heap

    verified: dict[int, str] = {}

    def run_op(kind: str, arg):
        if kind == "select":
            result = db.at(arg[0]).select(arg[1])
            items = result.all()
            _count_query(tracer, result.stats, len(items))
            return items
        if kind == "history":
            return db.history(title_path(arg))
        if kind == "retrieve":
            snapshot = db.at(arg).snapshot()
            return snapshot, xmltree.to_string(snapshot)
        return db.between(*arg).changes().all()

    def check(kind: str, arg, answer) -> bool:
        want = expected[kind, arg]
        if kind == "select":
            return answer == want
        if kind == "history":
            return history_tuple(answer) == want
        if kind == "retrieve":
            snapshot, text = answer
            if verified.get(arg) == text:
                return True
            if normalized_digest(snapshot) != want:
                return False
            verified[arg] = text
            return True
        return change_tuples(answer) == want

    try:
        # Warm-up: lazy per-archive structures and the chunk cache.
        for kind in ("retrieve", "changes", "history", "select"):
            arg = next(arg for k, arg in plan if k == kind)
            if not check(kind, arg, run_op(kind, arg)):
                raise RuntimeError(f"warm-up {kind} {arg!r} answered wrongly")
        tracer.enabled = ctx.trace
        window_start = time.monotonic_ns()
        deadline = time.perf_counter() + ctx.seconds
        for kind, arg in itertools.cycle(plan):
            if time.perf_counter() >= deadline:
                break
            ok, answer = _timed(out, tracer, kind, lambda: run_op(kind, arg))
            tracer.enabled = False  # checking is not the program's work
            if ok and not check(kind, arg, answer):
                out.fail(f"{kind} {arg!r} answered wrongly")
            tracer.enabled = ctx.trace
        window_end = time.monotonic_ns()
        tracer.enabled = False
    finally:
        db.close()

    out.peak_rss_mb = peak_rss_mb()
    out.stored_bytes_ratio = dir_bytes(path) / len(texts[-1].encode("utf-8"))
    out.kind_detail(out.kinds)
    if ctx.trace:
        summary = tracer.summary(window_start, window_end)
        out.spans = summary
        reads = sum(len(v) for v in out.latencies.values())
        out.layers = layers.per_layer(
            summary,
            ops=reads,
            versions=len(out.latencies.get("retrieve", [])),
            reads=reads,
            input_bytes=0,
        )
    return out


# -- serve-mixed --------------------------------------------------------------


class Server:
    """An ``xarchd`` subprocess on an ephemeral port.

    Untraced runs start the real entry point (``python -m repro.server
    serve``); traced runs start ``launcher.py``, which installs the
    layer probes first and writes its spans to ``spans_path`` on exit.
    """

    def __init__(
        self, root: str, cache_bytes: int, spans_path: Optional[str] = None
    ) -> None:
        here = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        env["REPRO_CHUNK_CACHE_BYTES"] = str(cache_bytes)
        if spans_path is None:
            command = [sys.executable, "-u", "-m", "repro.server", "serve", root, "--port", "0"]
        else:
            command = [sys.executable, "-u", os.path.join(here, "launcher.py"), root, spans_path]
        self.spans_path = spans_path
        self.process = subprocess.Popen(
            command, cwd=REPO, env=env, stdout=subprocess.PIPE, text=True
        )
        self.url = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Read the bound port from the banner, then poll ``/healthz``."""
        deadline = time.monotonic() + timeout
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline() if ready else ""
        if " on http://" not in line:
            raise RuntimeError(f"xarchd did not start (banner {line!r})")
        self.url = line.strip().rsplit(" on ", 1)[1]
        while True:
            try:
                with urllib.request.urlopen(self.url + "/healthz", timeout=5) as reply:
                    if reply.status == 200:
                        return
            except OSError:
                pass
            if time.monotonic() > deadline or self.process.poll() is not None:
                raise RuntimeError("xarchd never answered /healthz")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()

    def spans(self) -> list:
        with open(self.spans_path) as handle:
            return json.load(handle)["spans"]


def _serve_plan(rng: random.Random, truth: Truth) -> list:
    nums = sorted(set().union(*(truth.titles[v] for v in range(READ_VERSIONS))))
    plan = []
    while len(plan) < SERVE_PLAN:
        block = list(SERVE_BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "select":
                # Latest-biased: half of the selects ask for the newest
                # version (which moves as releases are ingested).
                version = "latest" if rng.random() < 0.5 else rng.randint(1, READ_VERSIONS)
                arg = (version, title_query(rng.choice(nums)))
            elif kind == "history":
                arg = rng.choice(nums)
            else:
                old = rng.randint(1, READ_VERSIONS - 1)
                arg = (old, old + 1)
            plan.append((kind, arg))
    return plan


def run_serve_mixed(ctx: Context) -> Outcome:
    # The single ingest request is reported, not part of the means.
    out = Outcome(kinds=("select", "history", "changes"))
    plan_rng = random.Random(f"{ctx.seed}/serve-mixed")
    docs, texts = generate(ctx.seed, READ_RECORDS, READ_VERSIONS + 1)
    truth = Truth(docs)
    plan = _serve_plan(plan_rng, truth)
    tracer = ctx.tracer
    if ctx.trace:
        install_program_probes(tracer)

    server = None
    try:
        for attempt in range(ctx.repeats):
            root = ctx.path(f"store-{attempt}")
            os.makedirs(root)
            start = time.perf_counter()
            build_archive(os.path.join(root, "omim"), texts[:READ_VERSIONS])
            spans_path = ctx.path("server-spans.json") if ctx.trace else None
            candidate = Server(root, ctx.server_cache_bytes, spans_path)
            try:
                candidate.wait_ready()
            except BaseException:
                candidate.stop()
                raise
            out.setup_s.append(time.perf_counter() - start)
            if attempt == ctx.repeats - 1:
                server, store = candidate, root
            else:
                candidate.stop()
                shutil.rmtree(root)

        url = f"{server.url}/archives/omim"
        with connect(url) as db:  # warm-up, and the generation to count from
            db.at(READ_VERSIONS).select(title_query(truth.nums(1)[0])).all()
            base_generation = db.last_generation
        answers, lags, window = _drive(ctx, out, url, plan, texts)
        out.peak_rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    _check_served(out, store, truth, answers, base_generation)
    out.stored_bytes_ratio = dir_bytes(os.path.join(store, "omim")) / len(
        texts[-1].encode("utf-8")
    )
    reads = [
        latency
        for kind in ("select", "history", "changes")
        for latency in out.latencies.get(kind, [])
    ]
    failed_reads = sum(1 for a in answers if a[0] != "ingest" and a[3] is None)
    read_attempts = len(reads) + failed_reads
    misses = sum(1 for latency in reads if latency > ctx.slo_ms) + failed_reads
    out.kind_detail(out.kinds + ("ingest",))
    out.detail["slo_miss_frac"] = (misses / read_attempts if read_attempts else 0.0, "share")
    out.detail["read_rate"] = (len(reads) / ctx.seconds, "1/s")
    # Only the ingest has a due time; its lateness is the generator's.
    out.env["generator_lag_p90_ms"] = quantile(lags, 0.9) if lags else 0.0
    out.env["generator_lag_max_ms"] = max(lags) if lags else 0.0
    out.env["server_cache_bytes"] = ctx.server_cache_bytes
    out.env["slo_ms"] = ctx.slo_ms
    out.env["connections"] = "2 (one for reads, one for the ingest)"
    out.env["loop"] = "closed, one reader back to back; one ingest due half-way"
    if ctx.trace:
        start, end = window
        client = tracer.summary(start, end)
        server_side = summarize(server.spans(), start, end)
        out.spans = {"client": client, "server": server_side}
        versions = len(out.latencies.get("ingest", []))
        out.layers = layers.per_layer(
            client,
            server=server_side,
            ops=sum(len(v) for v in out.latencies.values()),
            versions=versions,
            reads=len(reads),
            input_bytes=sum(
                len(texts[READ_VERSIONS + n - 1].encode("utf-8"))
                for kind, n, _, answer in answers
                if kind == "ingest" and answer is not None
            ),
        )
    return out


def _drive(ctx: Context, out: Outcome, url: str, plan: list, texts: list):
    """Run the reads back to back and the ingest at its due time.

    A read's latency counts from when it was sent, the ingest's from
    when it was due.  Returns ``(answers, lags, window)``: one
    ``(kind, arg, pinned, answer)`` per request (``answer`` ``None``
    when it failed), the generator's own lateness (how far it overslept
    the ingest's due time) in ms, and the monotonic window of the run.
    """
    tracer = ctx.tracer
    lock = threading.Lock()
    answers: list = []
    lags: list = []

    def execute(db, kind: str, arg):
        if kind == "select":
            result = db.at(arg[0]).select(arg[1])
            items = result.all()
            _count_query(tracer, result.stats, len(items))
            return result.done["version"], items
        if kind == "history":
            history = db.history(title_path(arg))
            return db.last_generation, history_tuple(history)
        if kind == "changes":
            return None, change_tuples(db.between(*arg).changes().all())
        return None, db.ingest([texts[READ_VERSIONS + arg - 1]])

    def issue(db, kind: str, arg, start: float) -> None:
        with lock:
            out.attempted += 1
        try:
            with tracer.span("bench.op"):
                pinned, answer = execute(db, kind, arg)
        except Exception as error:  # counted as failed and as an SLO miss
            with lock:
                out.fail(f"{kind}: {type(error).__name__}: {error}")
                answers.append((kind, arg, None, None))
            return
        latency = (time.perf_counter() - start) * 1e3
        with lock:
            out.latencies.setdefault(kind, []).append(latency)
            answers.append((kind, arg, pinned, answer))

    def reader() -> None:
        with connect(url, timeout=60) as db:
            for kind, arg in itertools.cycle(plan):
                start = time.perf_counter()
                if start >= origin + ctx.seconds:
                    return
                issue(db, kind, arg, start)

    def writer() -> None:
        with connect(url, timeout=60) as db:
            due = origin + ctx.seconds / 2
            time.sleep(max(0.0, due - time.perf_counter()))
            with lock:
                lags.append((time.perf_counter() - due) * 1e3)
            issue(db, "ingest", 1, due)

    tracer.enabled = ctx.trace
    window_start = time.monotonic_ns()
    origin = time.perf_counter()
    threads = [threading.Thread(target=lane, daemon=True) for lane in (reader, writer)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=ctx.seconds + 120)
    tracer.enabled = False
    window_end = time.monotonic_ns()
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("serve-mixed requests did not finish")
    return answers, lags, (window_start, window_end)


def _check_served(out: Outcome, store: str, truth: Truth, answers: list, base_generation: int) -> None:
    """Server answers against the releases and an in-process open."""
    local: dict = {}
    with open_reader(os.path.join(store, "omim")) as db:

        def in_process(kind, arg):
            if (kind, arg) not in local:
                if kind == "select":
                    local[kind, arg] = db.at(arg[0]).select(arg[1]).all()
                elif kind == "history":
                    local[kind, arg] = db.history(title_path(arg))
                else:
                    local[kind, arg] = change_tuples(db.between(*arg).changes().all())
            return local[kind, arg]

        for kind, arg, pinned, answer in answers:
            if answer is None:
                continue  # already counted as failed
            if kind == "select":
                version = pinned
                good = answer == truth.select(version, arg[1]) == in_process(
                    kind, (version, arg[1])
                )
            elif kind == "history":
                last = READ_VERSIONS + pinned - base_generation
                good = answer == truth.history(arg, last) == _history_until(
                    in_process(kind, arg), last
                )
            elif kind == "changes":
                good = answer == truth.changes(*arg) == in_process(kind, arg)
            else:
                good = answer.get("ingested") == 1 and answer.get("last_version") == (
                    READ_VERSIONS + arg
                )
            if not good:
                out.fail(f"{kind} {arg!r} (pinned {pinned}) answered wrongly")


def _history_until(history, last: int) -> tuple:
    """An in-process history cut back to the versions a pin could see."""
    window = VersionSet.from_intervals([(1, last)])
    reigns = []
    for stamps, content in history.changes or []:
        seen = stamps.intersection(window)
        if seen:
            reigns.append((seen.to_text(), content))
    return (history.existence.intersection(window).to_text(), sorted(reigns))


WORKLOADS = {
    "ingest": run_ingest,
    "read-hot": run_read_hot,
    "serve-mixed": run_serve_mixed,
}


if __name__ == "__main__":
    # ``in_child``: python3 workloads.py WORKLOAD SEED OUT.pickle
    workload, seed, out_path = sys.argv[1:]
    inputs = {"ingest": ingest_inputs, "read-hot": read_hot_inputs}[workload]
    with open(out_path, "wb") as handle:
        pickle.dump(inputs(int(seed)), handle)
