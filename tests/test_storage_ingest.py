"""Tests for batched ingestion through the persistent layer.

``ChunkedArchiver.ingest_batch`` must flush chunk files identical to a
per-version ``add_version`` loop while touching each chunk only once,
report each version's merge stats, and leave a store whose probed
retrieval and history serve every batch; ``ExternalArchiver.ingest_batch``
must match the version-at-a-time stream merge.
"""

import os

import pytest

from repro.core import Archive, MergeStats, ProbeCount, documents_equivalent
from repro.data import OmimGenerator, omim_key_spec
from repro.storage import ChunkedArchiver, ExternalArchiver


@pytest.fixture
def versions():
    return OmimGenerator(seed=13, initial_records=16).generate_versions(5)


@pytest.fixture
def spec():
    return omim_key_spec()


class TestChunkedIngestBatch:
    def test_chunk_files_identical_to_loop(self, tmp_path, versions, spec):
        batched = ChunkedArchiver(str(tmp_path / "batch"), spec, chunk_count=4)
        stats = batched.ingest_batch([v.copy() for v in versions])
        looped = ChunkedArchiver(str(tmp_path / "loop"), spec, chunk_count=4)
        for version in versions:
            looped.add_version(version.copy())
        assert batched.last_version == looped.last_version == len(versions)
        assert stats.versions == len(versions)
        for index in range(4):
            batch_path = batched._chunk_path(index)
            loop_path = looped._chunk_path(index)
            assert os.path.exists(batch_path) == os.path.exists(loop_path)
            if os.path.exists(batch_path):
                with open(batch_path) as batch_handle, open(loop_path) as loop_handle:
                    assert batch_handle.read() == loop_handle.read()

    def test_batch_skips_merge_work(self, tmp_path, versions, spec):
        archiver = ChunkedArchiver(str(tmp_path), spec, chunk_count=4)
        stats = archiver.ingest_batch([v.copy() for v in versions])
        assert stats.subtrees_skipped > 0
        assert stats.nodes_skipped > 0

    def test_batch_with_empty_versions(self, tmp_path, versions, spec):
        archiver = ChunkedArchiver(str(tmp_path), spec, chunk_count=3)
        archiver.ingest_batch([versions[0].copy(), None, versions[1].copy()])
        assert archiver.last_version == 3
        assert archiver.retrieve(2) is None
        assert documents_equivalent(archiver.retrieve(3), versions[1], spec)

    def test_consecutive_batches_resume(self, tmp_path, versions, spec):
        archiver = ChunkedArchiver(str(tmp_path), spec, chunk_count=3)
        archiver.ingest_batch([v.copy() for v in versions[:2]])
        archiver.ingest_batch([v.copy() for v in versions[2:]])
        monolithic = Archive(spec)
        for version in versions:
            monolithic.add_version(version.copy())
        for number in range(1, len(versions) + 1):
            assert documents_equivalent(
                archiver.retrieve(number), monolithic.retrieve(number), spec
            )

    def test_on_version_reports_each_version(self, tmp_path, versions, spec):
        """Every batch version is announced once, in order, with its
        merge stats summed across chunks; the per-version stats add up
        to the batch total."""
        archiver = ChunkedArchiver(str(tmp_path), spec, chunk_count=4)
        archiver.ingest_batch([versions[0].copy()])
        seen = []
        total = archiver.ingest_batch(
            [v.copy() for v in versions[1:]],
            on_version=lambda number, stats: seen.append((number, stats)),
        )
        assert [number for number, _ in seen] == list(range(2, len(versions) + 1))
        assert all(stats.versions == 1 for _, stats in seen)
        assert all(stats.nodes_visited() > 0 for _, stats in seen)
        summed = MergeStats()
        for _, stats in seen:
            summed.accumulate(stats)
        assert summed == total

    def test_single_version_stats_match_add_version_total(
        self, tmp_path, versions, spec
    ):
        """A one-version batch on a fresh store reports the same merge
        work as ``add_version`` (no memo to skip with yet)."""
        batched = ChunkedArchiver(str(tmp_path / "batch"), spec, chunk_count=4)
        reported = []
        batched.ingest_batch(
            [versions[0].copy()],
            on_version=lambda number, stats: reported.append(stats),
        )
        looped = ChunkedArchiver(str(tmp_path / "loop"), spec, chunk_count=4)
        assert reported == [looped.add_version(versions[0].copy())]


class TestBatchIngestedStore:
    """Reads over a batch-ingested chunked store: probed retrieval,
    history across batches and after reopening."""

    def test_probed_retrieval_matches_originals(self, tmp_path, versions, spec):
        archiver = ChunkedArchiver(str(tmp_path), spec, chunk_count=4)
        archiver.ingest_batch([v.copy() for v in versions])
        for number, original in enumerate(versions, start=1):
            probes = ProbeCount()
            document = archiver.retrieve(number, probes=probes)
            assert documents_equivalent(document, original, spec)
            assert probes.total() > 0

    def test_history_follows_across_batches(self, tmp_path, versions, spec):
        archiver = ChunkedArchiver(str(tmp_path), spec, chunk_count=4)
        archiver.ingest_batch([v.copy() for v in versions[:2]])
        num = versions[0].find("Record").find("Num").text_content()
        before = archiver.history(f"/ROOT/Record[Num={num}]")
        assert before.existence.max_version() == 2
        archiver.ingest_batch([v.copy() for v in versions[2:]])
        after = archiver.history(f"/ROOT/Record[Num={num}]")
        assert after.existence.max_version() == len(versions)

    def test_history_includes_content_changes(self, tmp_path, versions, spec):
        """The ``changes`` runs of a frontier element come back from a
        batch-ingested store exactly as from a per-version loop."""
        batched = ChunkedArchiver(str(tmp_path / "batch"), spec, chunk_count=4)
        batched.ingest_batch([v.copy() for v in versions])
        looped = ChunkedArchiver(str(tmp_path / "loop"), spec, chunk_count=4)
        for version in versions:
            looped.add_version(version.copy())
        num = versions[0].find("Record").find("Num").text_content()
        path = f"/ROOT/Record[Num={num}]/Title"
        got = batched.history(path)
        reference = looped.history(path)
        assert got.changes is not None
        assert [(ts.to_text(), content) for ts, content in got.changes] == [
            (ts.to_text(), content) for ts, content in reference.changes
        ]

    def test_reopened_handle_reads_the_batch(self, tmp_path, versions, spec):
        first = ChunkedArchiver(str(tmp_path), spec, chunk_count=3)
        first.ingest_batch([v.copy() for v in versions])
        second = ChunkedArchiver(str(tmp_path), spec, chunk_count=3)
        assert second.last_version == len(versions)
        assert documents_equivalent(
            second.retrieve(len(versions)), versions[-1], spec
        )

    def test_unknown_version_rejected(self, tmp_path, versions, spec):
        archiver = ChunkedArchiver(str(tmp_path), spec, chunk_count=2)
        archiver.ingest_batch([versions[0].copy()])
        with pytest.raises(ValueError):
            archiver.retrieve(2)


class TestExternalIngestBatch:
    def test_batch_matches_loop(self, tmp_path, versions, spec):
        batched = ExternalArchiver(str(tmp_path / "batch"), spec)
        stats = batched.ingest_batch([v.copy() for v in versions[:3]])
        looped = ExternalArchiver(str(tmp_path / "loop"), spec)
        for version in versions[:3]:
            looped.add_version(version.copy())
        assert stats.versions == 3
        assert batched.last_version == looped.last_version == 3
        for number in range(1, 4):
            assert documents_equivalent(
                batched.retrieve(number), looped.retrieve(number), spec
            )

    def test_batch_with_empty_version(self, tmp_path, versions, spec):
        archiver = ExternalArchiver(str(tmp_path), spec)
        archiver.ingest_batch([versions[0].copy(), None])
        assert archiver.last_version == 2
        assert archiver.retrieve(2) is None
