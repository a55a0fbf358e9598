"""The parallel execution plane (``repro.storage.parallel``).

Three layers of guarantees:

* **Pool semantics** — ``ExecutionPool`` returns results in submission
  order, falls back to inline execution at one worker (original
  exception types, same process), re-raises worker failures as typed
  :class:`WorkerError` carrying the original exception's identity, and
  rejects unpicklable task payloads eagerly with a clear message.
* **Determinism** — parallel ``recode`` and chunk query fan-out
  produce *byte-identical* archives and *identical* query answers to
  serial runs, across the backend × codec × compaction matrix
  (hypothesis-driven); consecutive serial batches compose to the
  archive one batch builds.
* **Crash containment** — a worker dying mid-recode publishes nothing:
  every result gathers before the single WAL commit point, so the
  archive stays untouched and fsck-clean.
"""

import glob
import hashlib
import json
import multiprocessing
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.archive import ArchiveOptions
from repro.data.company import COMPANY_KEY_TEXT, company_versions
from repro.query.db import open_db
from repro.storage import (
    ExecutionPool,
    TaskNotPicklable,
    WorkerError,
    create_archive,
    fsck_archive,
    open_archive,
)
from repro.storage import parallel
from repro.xmltree.model import Element, Text
from repro.xmltree.serializer import to_string

#: The fault seam relies on forked workers inheriting parent module
#: state; other start methods would re-import a pristine module.
FORK = multiprocessing.get_start_method(allow_none=False) == "fork"
needs_fork = pytest.mark.skipif(
    not FORK, reason="fault seam needs fork-inherited module state"
)

REC_KEY_TEXT = """
(/, (db, {}))
(/db, (rec, {id}))
(/db/rec, (val, {}))
"""


# -- module-level worker functions (pickled by qualified name) ----------------


def _double(task):
    return task * 2


def _pid(task):
    return os.getpid()


def _boom(task):
    raise ValueError(f"boom {task}")


def _die(task):
    os._exit(3)


# -- helpers ------------------------------------------------------------------


def dense_versions(count=5, records=24):
    """A record-dense version sequence that populates several chunks."""
    versions = []
    for n in range(count):
        root = Element("db")
        for i in range(records):
            rec = Element("rec")
            ident = Element("id")
            ident.append(Text(str(i)))
            rec.append(ident)
            val = Element("val")
            val.append(Text(f"v{n}-{i % (n + 1)}"))
            rec.append(val)
            root.append(rec)
        versions.append(root)
    return versions


def archive_path(base, kind):
    return os.path.join(base, "archive.xml" if kind == "file" else "store")


def digest_tree(path):
    """``{relative file name: sha256}`` of an archive's on-disk state.

    The WAL file is excluded: it records commit bookkeeping (which is
    also deterministic, but is not part of the archive's payload
    contract).
    """
    if os.path.isfile(path):
        files = [path] + glob.glob(path + ".*")
    else:
        files = glob.glob(os.path.join(path, "**"), recursive=True)
    digests = {}
    for full in sorted(files):
        if not os.path.isfile(full):
            continue
        name = os.path.basename(full)
        if name.endswith(".wal") or name == "wal.json":
            continue
        with open(full, "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


# -- ExecutionPool semantics ---------------------------------------------------


class TestExecutionPool:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ExecutionPool(0)

    def test_serial_fallback_runs_inline(self):
        """One worker means the parent process, in submission order."""
        pool = ExecutionPool(1)
        assert pool.map(_double, [3, 1, 2]) == [6, 2, 4]
        assert pool.map(_pid, [None, None]) == [os.getpid()] * 2

    def test_serial_exceptions_keep_their_type(self):
        with pytest.raises(ValueError, match="boom 7"):
            ExecutionPool(1).map(_boom, [7])

    @needs_fork
    def test_parallel_results_in_submission_order(self):
        assert ExecutionPool(3).map(_double, list(range(16))) == [
            2 * n for n in range(16)
        ]

    @needs_fork
    def test_parallel_runs_in_worker_processes(self):
        pids = set(ExecutionPool(2).map(_pid, [None] * 8))
        assert os.getpid() not in pids

    @needs_fork
    def test_worker_exception_reraises_typed(self):
        """A failure inside a worker surfaces as WorkerError carrying
        the original exception's type, message and traceback text."""
        with pytest.raises(WorkerError) as excinfo:
            ExecutionPool(2).map(_boom, [0, 1, 2])
        error = excinfo.value
        assert error.cause_type == "ValueError"
        assert "boom" in str(error)
        assert error.task_index is not None
        assert "ValueError" in (error.cause_traceback or "")

    @needs_fork
    def test_dead_worker_reraises_typed(self):
        """A worker that dies outright (no exception to report) still
        comes back as WorkerError, not a bare BrokenProcessPool."""
        with pytest.raises(WorkerError, match="died"):
            ExecutionPool(2).map(_die, [0, 1])

    def test_rejects_nonpicklable_tasks_eagerly(self):
        """Live handles must not cross the process boundary; the error
        is raised in the parent, before any worker starts, and names
        the offending task."""
        with pytest.raises(TaskNotPicklable, match="Task 1.*plain data"):
            ExecutionPool(2).map(_double, [1, lambda: 2, 3])

    def test_nonpicklable_rejection_stages_nothing(self, tmp_path):
        """An unpicklable hook payload cannot have half-run: the pool
        pickles every task before submitting any."""
        pool = ExecutionPool(4)
        with open(os.path.join(tmp_path, "live"), "w") as handle:
            with pytest.raises(TaskNotPicklable):
                pool.map(_double, [0, handle])


# -- byte-identity: parallel output == serial output ---------------------------


class TestByteIdentity:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_recode_matches_serial(self, data):
        """Across backend × codec × compaction, recoding with a worker
        pool rewrites an archive byte-for-byte as a serial recode."""
        import tempfile

        kind = data.draw(
            st.sampled_from(["file", "chunked", "external"]), label="backend"
        )
        codec = data.draw(st.sampled_from(["raw", "gzip", "xmill"]), label="codec")
        target = data.draw(
            st.sampled_from(["raw", "gzip", "xmill"]), label="recode-target"
        )
        compaction = data.draw(st.booleans(), label="compaction") and (
            kind != "external"  # the external backend stores no weaves
        )
        workers = data.draw(st.sampled_from([2, 3, 4]), label="workers")
        versions = list(company_versions())
        options = ArchiveOptions(compaction=compaction)
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for label, width in (("serial", 1), ("parallel", workers)):
                base = os.path.join(tmp, label)
                os.makedirs(base)
                path = archive_path(base, kind)
                backend = create_archive(
                    path,
                    COMPANY_KEY_TEXT,
                    kind=kind,
                    chunk_count=3,
                    options=options,
                    codec=codec,
                )
                backend.ingest_batch(v.copy() for v in versions)
                backend.close()
                backend = open_archive(path, workers=width)
                backend.recode(target)
                backend.close()
                paths[label] = path
            assert digest_tree(paths["serial"]) == digest_tree(paths["parallel"])

    def test_incremental_batches_match_one_batch(self, tmp_path):
        """Chunk-major batches compose: two consecutive batches equal
        one batch of everything."""
        versions = dense_versions(6)
        whole = create_archive(
            tmp_path / "whole", REC_KEY_TEXT, kind="chunked", chunk_count=4
        )
        whole.ingest_batch(v.copy() for v in versions)
        whole.close()
        split = create_archive(
            tmp_path / "split", REC_KEY_TEXT, kind="chunked", chunk_count=4
        )
        split.ingest_batch(v.copy() for v in versions[:3])
        split.ingest_batch(v.copy() for v in versions[3:])
        split.close()
        serial_tree = digest_tree(str(tmp_path / "whole"))
        split_tree = digest_tree(str(tmp_path / "split"))
        # The two runs commit a different number of times (one batch vs
        # two), which the manifest's generation counter records by
        # design — so the manifest and the checksum sidecar (which
        # covers the manifest) legitimately differ.  Every payload must
        # still match bit-for-bit.
        for bookkeeping in ("manifest.json", "checksums.json"):
            serial_tree.pop(bookkeeping)
            split_tree.pop(bookkeeping)
        assert serial_tree == split_tree
        serial_manifest = json.loads(
            (tmp_path / "whole" / "manifest.json").read_text()
        )
        split_manifest = json.loads(
            (tmp_path / "split" / "manifest.json").read_text()
        )
        assert serial_manifest.pop("generation") == 1
        assert split_manifest.pop("generation") == 2
        serial_manifest.pop("sha256")
        split_manifest.pop("sha256")
        assert serial_manifest == split_manifest


# -- query fan-out equivalence -------------------------------------------------


class TestParallelQuery:
    EXPRESSIONS = [
        "/db/rec",
        "/db/rec/val",
        "/db/rec/val/text()",
        "/db/rec[id='7']",
        "/db/rec[id='7']/val/text()",
    ]

    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        store = tmp_path_factory.mktemp("parallel-query") / "store"
        versions = dense_versions(5)
        backend = create_archive(
            store, REC_KEY_TEXT, kind="chunked", chunk_count=4, codec="gzip"
        )
        backend.ingest_batch(v.copy() for v in versions)
        backend.close()
        return store, len(versions)

    @pytest.mark.parametrize("expression", EXPRESSIONS)
    def test_answers_and_accounting_match_serial(self, stores, expression):
        store, last = stores
        rendered = {}
        results = {}
        for label, width in (("serial", 1), ("parallel", 3)):
            with open_db(store, workers=width) as db:
                result = db.at(last).select(expression)
                rendered[label] = [
                    item if isinstance(item, str) else to_string(item)
                    for item in result
                ]
                results[label] = result
        assert rendered["serial"] == rendered["parallel"]
        serial, fanned = results["serial"].stats, results["parallel"].stats
        # Worker accounting folds back in: same headline work count.
        assert serial.nodes_visited() == fanned.nodes_visited()
        assert serial.index_lookups == fanned.index_lookups
        assert serial.chunks_routed_past == fanned.chunks_routed_past
        assert serial.parallel_chunks == 0 and serial.workers_used == 0

    def test_fanout_reports_worker_accounting(self, stores):
        store, last = stores
        with open_db(store, workers=3) as db:
            assert db.workers == 3
            result = db.at(last).select("/db/rec")
            result.all()
            assert result.stats.parallel_chunks > 1
            assert result.stats.workers_used == 3

    def test_routed_lookup_stays_single_chunk(self, stores):
        """A partition-level key lookup still opens one chunk — no
        pointless fan-out for point queries."""
        store, last = stores
        with open_db(store, workers=3) as db:
            result = db.at(last).select("/db/rec[id='7']")
            assert len(result.all()) == 1
            assert result.stats.parallel_chunks == 0
            assert result.stats.chunks_routed_past == 3


# -- workers knob threading ----------------------------------------------------


class TestWorkersKnob:
    @pytest.mark.parametrize("kind", ["file", "chunked", "external"])
    def test_backends_accept_and_report_workers(self, tmp_path, kind):
        path = archive_path(tmp_path, kind)
        backend = create_archive(
            path, COMPANY_KEY_TEXT, kind=kind, chunk_count=2, workers=3
        )
        assert backend.workers == 3
        backend.close()
        reopened = open_archive(path, workers=2)
        assert reopened.workers == 2
        reopened.close()
        # The knob is runtime-only: reopening without it is serial.
        plain = open_archive(path)
        assert plain.workers == 1
        plain.close()

    def test_cli_workers_flag(self, tmp_path, capsys):
        """``xarch recode/query --workers N`` round-trips; ``ingest``
        has no such flag (batch ingest always merges serially)."""
        from repro.cli import main

        keys = tmp_path / "keys.txt"
        keys.write_text(REC_KEY_TEXT, encoding="utf-8")
        source = tmp_path / "versions"
        source.mkdir()
        for n, version in enumerate(dense_versions(3), start=1):
            (source / f"v{n:02d}.xml").write_text(
                to_string(version), encoding="utf-8"
            )
        store = tmp_path / "store"
        assert (
            main(
                [
                    "ingest",
                    str(store),
                    str(source),
                    "--keys",
                    str(keys),
                    "--backend",
                    "chunked",
                    "--chunks",
                    "4",
                ]
            )
            == 0
        )
        assert main(["recode", str(store), "--codec", "xmill", "--workers", "2"]) == 0
        assert (
            main(["query", str(store), "/db/rec", "--stats", "--workers", "2"]) == 0
        )
        err = capsys.readouterr().err
        assert "across 2 workers" in err
        with pytest.raises(SystemExit):
            main(["ingest", str(store), str(source), "--workers", "2"])


# -- crash containment ---------------------------------------------------------


@needs_fork
class TestWorkerCrashDrill:
    """A worker crash mid-recode publishes nothing.

    The drill arms the module-level fault seam
    (``parallel._WORKER_FAULT``); forked workers inherit it and raise
    mid-task.  Because every result gathers before ``wal.begin()``,
    the failure must leave the archive byte-identical to its pre-crash
    state, with no stray ``*.tmp`` files, and fsck-clean.
    """

    @pytest.fixture
    def store(self, tmp_path):
        backend = create_archive(
            tmp_path / "store",
            REC_KEY_TEXT,
            kind="chunked",
            chunk_count=4,
            codec="gzip",
        )
        backend.ingest_batch(v.copy() for v in dense_versions(3))
        backend.close()
        return tmp_path / "store"

    def _assert_untouched(self, store, before):
        assert digest_tree(str(store)) == before
        assert not glob.glob(os.path.join(store, "*.tmp"))
        report = fsck_archive(str(store))
        assert report.clean, str(report)

    def test_recode_worker_crash_publishes_nothing(self, store, monkeypatch):
        before = digest_tree(str(store))
        backend = open_archive(store, workers=2)
        monkeypatch.setattr(parallel, "_WORKER_FAULT", "recode")
        with pytest.raises(WorkerError, match="injected recode worker fault"):
            backend.recode("xmill")
        assert backend.codec.name == "gzip"  # still reading the old encoding
        monkeypatch.setattr(parallel, "_WORKER_FAULT", None)
        assert backend.retrieve(3) is not None
        backend.close()
        self._assert_untouched(store, before)

    def test_query_worker_crash_is_typed_and_harmless(self, store, monkeypatch):
        before = digest_tree(str(store))
        monkeypatch.setattr(parallel, "_WORKER_FAULT", "query")
        with open_db(store, workers=2) as db:
            with pytest.raises(WorkerError, match="injected query worker fault"):
                db.at(3).select("/db/rec").all()
        monkeypatch.setattr(parallel, "_WORKER_FAULT", None)
        self._assert_untouched(store, before)
