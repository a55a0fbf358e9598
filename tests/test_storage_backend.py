"""Backend conformance suite: one contract, three implementations.

Every :class:`repro.storage.StorageBackend` must answer ingest,
retrieve, history, diff and stats identically — byte-identical
retrievals, matching temporal histories, the same change reports — and
the durable backends must survive a crash at any point of a batch
commit: killed between WAL append and publish, the archive reads at
the pre-batch version count; killed mid-publish, recovery completes
the commit.

The matrix runs across at-rest codecs too: every backend must
round-trip byte-identically whatever the codec, survive the same crash
drills under a compressing codec, and ``recode`` between any codec
pair atomically (a crash mid-recode recovers to wholly-old or
wholly-new encodings).
"""

import json
import os

import pytest

from repro.core import Archive, ArchiveError
from repro.core.tempquery import archive_diff
from repro.data.company import COMPANY_KEY_TEXT, company_versions
from repro.keys.keyparser import parse_key_spec
from repro.storage import (
    ChunkedArchiver,
    ExternalArchiver,
    FileBackend,
    create_archive,
    detect_backend_kind,
    key_spec_fingerprint,
    open_archive,
    read_manifest,
)
from repro.storage.wal import WriteAheadLog
from repro.xmltree import to_pretty_string

BACKENDS = ["file", "chunked", "external"]
CODECS = ["raw", "gzip", "xmill"]


@pytest.fixture
def spec():
    return parse_key_spec(COMPANY_KEY_TEXT)


@pytest.fixture
def versions():
    return list(company_versions())


@pytest.fixture
def reference(spec, versions):
    """The in-memory archive every backend must agree with."""
    archive = Archive(spec)
    for version in versions:
        archive.add_version(version.copy())
    return archive


def make_backend(kind, base, spec, chunk_count=3, codec=None):
    if kind == "file":
        return FileBackend(os.path.join(base, "archive.xml"), spec, codec=codec)
    if kind == "chunked":
        return ChunkedArchiver(
            os.path.join(base, "chunked"), spec, chunk_count, codec=codec
        )
    return ExternalArchiver(os.path.join(base, "external"), spec, codec=codec)


def rendered(document):
    return to_pretty_string(document) if document is not None else None


class TestConformance:
    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_batch_retrievals_byte_identical_to_reference(
        self, kind, codec, tmp_path, spec, versions, reference
    ):
        backend = make_backend(kind, str(tmp_path), spec, codec=codec)
        stats = backend.ingest_batch([v.copy() for v in versions])
        assert stats.versions == len(versions)
        assert backend.last_version == len(versions)
        for number in range(1, len(versions) + 1):
            assert rendered(backend.retrieve(number)) == rendered(
                reference.retrieve(number)
            )

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_add_version_loop_matches_batch(
        self, kind, tmp_path, spec, versions, reference
    ):
        backend = make_backend(kind, str(tmp_path), spec)
        for version in versions:
            backend.add_version(version.copy())
        assert backend.last_version == len(versions)
        assert rendered(backend.retrieve(3)) == rendered(reference.retrieve(3))

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_empty_versions(self, kind, tmp_path, spec, versions):
        backend = make_backend(kind, str(tmp_path), spec)
        backend.ingest_batch([versions[0].copy(), None, versions[1].copy()])
        assert backend.last_version == 3
        assert backend.retrieve(2) is None
        assert backend.retrieve(3) is not None

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_unknown_version_rejected(self, kind, tmp_path, spec, versions):
        backend = make_backend(kind, str(tmp_path), spec)
        backend.ingest_batch([versions[0].copy()])
        with pytest.raises(ValueError):
            backend.retrieve(2)

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_history_parity(self, kind, tmp_path, spec, versions, reference):
        backend = make_backend(kind, str(tmp_path), spec)
        backend.ingest_batch([v.copy() for v in versions])
        for path in (
            "/db/dept[name=finance]/emp[fn=John, ln=Doe]",
            "/db/dept[name=finance]/emp[fn=John, ln=Doe]/sal",
            "/db/dept[name=marketing]",
        ):
            expected = reference.history(path)
            actual = backend.history(path)
            assert actual.existence.to_text() == expected.existence.to_text()
            if expected.changes is None:
                assert actual.changes is None
            else:
                assert [
                    (ts.to_text(), content) for ts, content in actual.changes
                ] == [(ts.to_text(), content) for ts, content in expected.changes]

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_history_missing_element_raises(self, kind, tmp_path, spec, versions):
        backend = make_backend(kind, str(tmp_path), spec)
        backend.ingest_batch([v.copy() for v in versions])
        with pytest.raises(ValueError):
            backend.history("/db/dept[name=nonexistent]")

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_diff_parity(self, kind, tmp_path, spec, versions, reference):
        backend = make_backend(kind, str(tmp_path), spec)
        backend.ingest_batch([v.copy() for v in versions])
        expected = archive_diff(reference, 2, 4)
        actual = backend.diff(2, 4)
        # Chunked reports group changes by chunk; compare as sets.
        assert sorted(map(str, actual.changes)) == sorted(map(str, expected.changes))

    def test_chunked_diff_expands_shell_flicker(
        self, tmp_path, spec, versions, reference
    ):
        """With enough chunks a record sits alone in its chunk; when it
        dies, the chunk-local walk sees the shared document root die
        with it.  The merged report must still name the record, exactly
        like the in-memory walk."""
        backend = ChunkedArchiver(str(tmp_path / "many"), spec, 16)
        backend.ingest_batch([v.copy() for v in versions])
        expected = archive_diff(reference, 3, 4)
        actual = backend.diff(3, 4)
        assert sorted(map(str, actual.changes)) == sorted(map(str, expected.changes))

    def test_chunked_diff_reports_globally_deleted_root_once(
        self, tmp_path, spec, versions, reference
    ):
        backend = ChunkedArchiver(str(tmp_path / "many"), spec, 16)
        backend.ingest_batch([v.copy() for v in versions] + [None])
        reference.add_version(None)
        expected = archive_diff(reference, len(versions), len(versions) + 1)
        actual = backend.diff(len(versions), len(versions) + 1)
        assert sorted(map(str, actual.changes)) == sorted(map(str, expected.changes))

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_stats(self, kind, tmp_path, spec, versions, reference):
        backend = make_backend(kind, str(tmp_path), spec)
        backend.ingest_batch([v.copy() for v in versions])
        stats = backend.stats()
        assert stats.versions == len(versions)
        # Node counts agree across representations: the chunked backend
        # folds its per-chunk root/shell duplicates into one logical
        # occurrence.
        assert stats.nodes == reference.stats().nodes
        assert stats.stored_timestamps > 0
        assert stats.serialized_bytes > 0

    def test_retrievals_byte_identical_across_backends(
        self, tmp_path, spec, versions
    ):
        texts = {}
        for kind in BACKENDS:
            backend = make_backend(kind, str(tmp_path), spec)
            backend.ingest_batch([v.copy() for v in versions])
            texts[kind] = [
                rendered(backend.retrieve(number))
                for number in range(1, len(versions) + 1)
            ]
        assert texts["file"] == texts["chunked"] == texts["external"]


class TestOpenArchive:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_autodetects_backend(self, kind, tmp_path, spec, versions):
        path = str(tmp_path / ("arch.xml" if kind == "file" else "arch"))
        backend = create_archive(path, COMPANY_KEY_TEXT, kind=kind, chunk_count=3)
        backend.ingest_batch([v.copy() for v in versions])
        text = rendered(backend.retrieve(2))
        backend.close()
        reopened = open_archive(path)  # no spec, no kind: all from disk
        assert reopened.kind == kind
        assert reopened.last_version == len(versions)
        assert rendered(reopened.retrieve(2)) == text

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_manifest_is_self_describing(self, kind, tmp_path, spec, versions):
        path = str(tmp_path / ("arch.xml" if kind == "file" else "arch"))
        backend = create_archive(path, COMPANY_KEY_TEXT, kind=kind, chunk_count=3)
        backend.ingest_batch([v.copy() for v in versions])
        manifest = read_manifest(path)
        assert manifest is not None
        assert manifest.kind == kind
        assert manifest.version_count == len(versions)
        assert manifest.key_spec_hash == key_spec_fingerprint(spec)

    def test_wrong_keys_rejected(self, tmp_path, versions):
        path = str(tmp_path / "arch.xml")
        backend = create_archive(path, COMPANY_KEY_TEXT, kind="file")
        backend.ingest_batch([v.copy() for v in versions])
        other = parse_key_spec("(/, (db, {}))\n(/db, (dept, {}))")
        with pytest.raises(ArchiveError):
            open_archive(path, other)

    def test_legacy_layouts_detected_without_manifest(self, tmp_path, spec, versions):
        chunked = ChunkedArchiver(str(tmp_path / "chunked"), spec, 3)
        chunked.ingest_batch([v.copy() for v in versions])
        expected = rendered(chunked.retrieve(2))
        os.remove(tmp_path / "chunked" / "manifest.json")
        assert detect_backend_kind(str(tmp_path / "chunked")) == "chunked"
        reopened = open_archive(str(tmp_path / "chunked"), spec)
        # The inferred chunk count covers every stored chunk file, so
        # reads of a pre-manifest directory stay complete.
        assert reopened.last_version == len(versions)
        assert rendered(reopened.retrieve(2)) == expected

        external = ExternalArchiver(str(tmp_path / "external"), spec)
        external.add_version(versions[0].copy())
        os.remove(tmp_path / "external" / "manifest.json")
        assert detect_backend_kind(str(tmp_path / "external")) == "external"

        file_backend = FileBackend(str(tmp_path / "arch.xml"), spec)
        file_backend.add_version(versions[0].copy())
        os.remove(tmp_path / "arch.xml.manifest.json")
        assert detect_backend_kind(str(tmp_path / "arch.xml")) == "file"

    def test_missing_archive_raises(self, tmp_path):
        with pytest.raises(ArchiveError):
            open_archive(str(tmp_path / "nowhere"))

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_force_recreation_resets_the_archive(self, kind, tmp_path, versions):
        path = str(tmp_path / ("arch.xml" if kind == "file" else "arch"))
        backend = create_archive(path, COMPANY_KEY_TEXT, kind=kind, chunk_count=3)
        backend.ingest_batch([v.copy() for v in versions])
        assert backend.last_version == len(versions)
        fresh = create_archive(path, COMPANY_KEY_TEXT, kind=kind, force=True)
        assert fresh.last_version == 0  # reinitialized, not adopted
        assert open_archive(path).last_version == 0

    def test_force_refuses_non_archive_directory(self, tmp_path):
        victim = tmp_path / "precious"
        victim.mkdir()
        (victim / "data.txt").write_text("not an archive")
        with pytest.raises(ArchiveError):
            create_archive(str(victim), COMPANY_KEY_TEXT, kind="chunked", force=True)
        assert (victim / "data.txt").exists()


class SimulatedCrash(RuntimeError):
    pass


def _crash_before_publish(self, entries):
    raise SimulatedCrash("killed between WAL append and publish")


def _crash_mid_publish(self, entries):
    first = entries[0]
    os.replace(first + ".tmp", first)
    raise SimulatedCrash("killed mid-publish")


class TestCrashRecovery:
    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("kind", ["file", "chunked"])
    def test_crash_between_append_and_publish_rolls_back(
        self, kind, codec, tmp_path, spec, versions, monkeypatch
    ):
        backend = make_backend(kind, str(tmp_path), spec, codec=codec)
        backend.ingest_batch([v.copy() for v in versions[:2]])
        path = backend.path if kind == "file" else backend.directory
        pre_batch = [rendered(backend.retrieve(n)) for n in (1, 2)]

        monkeypatch.setattr(WriteAheadLog, "publish", _crash_before_publish)
        crashing = open_archive(path, spec)
        with pytest.raises(SimulatedCrash):
            crashing.ingest_batch([v.copy() for v in versions[2:]])
        monkeypatch.undo()

        recovered = open_archive(path, spec)
        assert recovered.last_version == 2  # the batch rolled back cleanly
        assert [rendered(recovered.retrieve(n)) for n in (1, 2)] == pre_batch
        directory = path if os.path.isdir(path) else os.path.dirname(path)
        assert not any(n.endswith(".tmp") for n in os.listdir(directory))
        # ...and the batch replays cleanly after recovery.
        recovered.ingest_batch([v.copy() for v in versions[2:]])
        assert recovered.last_version == len(versions)

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("kind", ["file", "chunked"])
    def test_crash_mid_publish_rolls_forward(
        self, kind, codec, tmp_path, spec, versions, monkeypatch
    ):
        backend = make_backend(kind, str(tmp_path), spec, codec=codec)
        backend.ingest_batch([v.copy() for v in versions[:2]])
        path = backend.path if kind == "file" else backend.directory

        monkeypatch.setattr(WriteAheadLog, "publish", _crash_mid_publish)
        crashing = open_archive(path, spec)
        with pytest.raises(SimulatedCrash):
            crashing.ingest_batch([v.copy() for v in versions[2:]])
        monkeypatch.undo()

        recovered = open_archive(path, spec)
        # Publication had begun, so recovery completes the commit: no
        # torn mix of pre- and post-batch files survives.
        assert recovered.last_version == len(versions)
        for number in range(1, len(versions) + 1):
            recovered.retrieve(number)  # every version reconstructs

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("kind", ["file", "chunked"])
    def test_crash_mid_stage_rolls_back(
        self, kind, codec, tmp_path, spec, versions, monkeypatch
    ):
        """Dying before the WAL append leaves only stray tmps; opening
        the archive discards them."""
        backend = make_backend(kind, str(tmp_path), spec, codec=codec)
        backend.ingest_batch([v.copy() for v in versions[:2]])
        path = backend.path if kind == "file" else backend.directory

        monkeypatch.setattr(
            WriteAheadLog,
            "append",
            lambda self, entries, meta=None: (_ for _ in ()).throw(
                SimulatedCrash("killed mid-stage")
            ),
        )
        crashing = open_archive(path, spec)
        with pytest.raises(SimulatedCrash):
            crashing.ingest_batch([v.copy() for v in versions[2:]])
        monkeypatch.undo()

        recovered = open_archive(path, spec)
        assert recovered.last_version == 2
        directory = path if os.path.isdir(path) else os.path.dirname(path)
        assert not any(n.endswith(".tmp") for n in os.listdir(directory))

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_on_version_not_fired_for_rolled_back_batch(
        self, kind, tmp_path, spec, versions, monkeypatch
    ):
        """Progress callbacks must only see committed state: a batch
        that dies before publish fires no ``on_version``, so callers
        never report versions the disk rolled back."""
        backend = make_backend(kind, str(tmp_path), spec)
        backend.ingest_batch([v.copy() for v in versions[:2]])
        seen = []
        monkeypatch.setattr(WriteAheadLog, "publish", _crash_before_publish)
        with pytest.raises(SimulatedCrash):
            backend.ingest_batch(
                [v.copy() for v in versions[2:]],
                on_version=lambda number, stats: seen.append(number),
            )
        assert seen == []
        monkeypatch.undo()
        backend2 = make_backend(kind, str(tmp_path), spec)
        backend2.ingest_batch(
            [v.copy() for v in versions[2:]],
            on_version=lambda number, stats: seen.append(number),
        )
        # Committed batches still announce every version.
        assert seen == list(range(3, len(versions) + 1))

    def test_torn_wal_record_treated_as_uncommitted(self, tmp_path, spec, versions):
        backend = make_backend("chunked", str(tmp_path), spec)
        backend.ingest_batch([v.copy() for v in versions[:2]])
        with open(os.path.join(backend.directory, "wal.json"), "w") as handle:
            handle.write('{"format": 1, "entr')  # torn mid-write
        recovered = open_archive(backend.directory, spec)
        assert recovered.last_version == 2
        assert not os.path.exists(os.path.join(backend.directory, "wal.json"))

    def test_wal_meta_records_target_version_count(
        self, tmp_path, spec, versions, monkeypatch
    ):
        backend = make_backend("chunked", str(tmp_path), spec)
        monkeypatch.setattr(WriteAheadLog, "publish", _crash_before_publish)
        with pytest.raises(SimulatedCrash):
            backend.ingest_batch([v.copy() for v in versions])
        with open(os.path.join(backend.directory, "wal.json")) as handle:
            record = json.load(handle)
        assert record["meta"]["version_count"] == len(versions)


class TestCodecMatrix:
    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_codec_autodetected_on_reopen(
        self, kind, codec, tmp_path, spec, versions
    ):
        path = str(tmp_path / ("arch.xml" if kind == "file" else "arch"))
        backend = create_archive(
            path, COMPANY_KEY_TEXT, kind=kind, chunk_count=3, codec=codec
        )
        backend.ingest_batch([v.copy() for v in versions])
        expected = rendered(backend.retrieve(2))
        backend.close()
        manifest = read_manifest(path)
        assert manifest is not None and manifest.codec == codec
        reopened = open_archive(path)  # no spec, no codec: all from disk
        assert reopened.codec.name == codec
        assert rendered(reopened.retrieve(2)) == expected

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_compressing_codec_shrinks_disk_but_not_raw(
        self, kind, tmp_path, spec, versions
    ):
        (tmp_path / "r").mkdir()
        (tmp_path / "g").mkdir()
        raw = make_backend(kind, str(tmp_path / "r"), spec, codec="raw")
        gz = make_backend(kind, str(tmp_path / "g"), spec, codec="gzip")
        raw.ingest_batch([v.copy() for v in versions])
        gz.ingest_batch([v.copy() for v in versions])
        raw_stats, gz_stats = raw.stats(), gz.stats()
        assert raw_stats.raw_bytes == gz_stats.raw_bytes  # same logical bytes
        assert raw_stats.disk_bytes == raw_stats.raw_bytes
        assert gz_stats.disk_bytes < gz_stats.raw_bytes
        assert gz_stats.compression_ratio > 1.0
        assert raw_stats.compression_ratio == 1.0

    def test_manifestless_file_codec_sniffed_by_magic(
        self, tmp_path, spec, versions
    ):
        path = str(tmp_path / "arch.xml")
        backend = FileBackend(path, spec, codec="xmill")
        backend.ingest_batch([v.copy() for v in versions])
        expected = rendered(backend.retrieve(2))
        os.remove(path + ".manifest.json")
        reopened = open_archive(path, spec)
        assert reopened.codec.name == "xmill"
        assert rendered(reopened.retrieve(2)) == expected

    def test_manifestless_chunked_codec_sniffed_by_magic(
        self, tmp_path, spec, versions
    ):
        backend = ChunkedArchiver(str(tmp_path / "c"), spec, 3, codec="gzip")
        backend.ingest_batch([v.copy() for v in versions])
        expected = rendered(backend.retrieve(2))
        os.remove(tmp_path / "c" / "manifest.json")
        reopened = open_archive(str(tmp_path / "c"), spec)
        assert reopened.codec.name == "gzip"
        assert rendered(reopened.retrieve(2)) == expected

    def test_presence_sidecars_stay_plain(self, tmp_path, spec, versions):
        backend = ChunkedArchiver(str(tmp_path / "c"), spec, 3, codec="xmill")
        backend.ingest_batch([v.copy() for v in versions])
        for name in os.listdir(tmp_path / "c"):
            full = tmp_path / "c" / name
            if name.endswith((".presence", ".txt", ".json", ".keys")):
                full.read_text(encoding="utf-8")  # must not be binary


RECODE_CHAIN = ["gzip", "xmill", "raw", "xmill", "gzip", "raw"]


class TestRecode:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_recode_chain_preserves_every_retrieval(
        self, kind, tmp_path, spec, versions, reference
    ):
        """raw→gzip→xmill→raw→… covers every ordered codec pair."""
        path = str(tmp_path / ("arch.xml" if kind == "file" else "arch"))
        backend = create_archive(path, COMPANY_KEY_TEXT, kind=kind, chunk_count=3)
        backend.ingest_batch([v.copy() for v in versions])
        expected = [
            rendered(reference.retrieve(n)) for n in range(1, len(versions) + 1)
        ]
        previous = "raw"
        for codec in RECODE_CHAIN:
            report = backend.recode(codec)
            assert (report.old_codec, report.new_codec) == (previous, codec)
            previous = codec
            backend.close()
            backend = open_archive(path)  # reopen: manifest names the codec
            assert backend.codec.name == codec
            assert [
                rendered(backend.retrieve(n))
                for n in range(1, len(versions) + 1)
            ] == expected

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_recode_onto_same_codec_is_idempotent(
        self, kind, tmp_path, spec, versions
    ):
        backend = make_backend(kind, str(tmp_path), spec, codec="gzip")
        backend.ingest_batch([v.copy() for v in versions])
        before = rendered(backend.retrieve(1))
        report = backend.recode("gzip")
        assert report.old_codec == report.new_codec == "gzip"
        assert rendered(backend.retrieve(1)) == before

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_crash_before_recode_publish_keeps_old_codec(
        self, kind, tmp_path, spec, versions, monkeypatch
    ):
        path = str(tmp_path / ("arch.xml" if kind == "file" else "arch"))
        backend = create_archive(path, COMPANY_KEY_TEXT, kind=kind, chunk_count=3)
        backend.ingest_batch([v.copy() for v in versions])
        expected = rendered(backend.retrieve(2))
        backend.close()

        monkeypatch.setattr(WriteAheadLog, "publish", _crash_before_publish)
        crashing = open_archive(path)
        with pytest.raises(SimulatedCrash):
            crashing.recode("xmill")
        monkeypatch.undo()

        recovered = open_archive(path)
        assert recovered.codec.name == "raw"  # the recode rolled back whole
        manifest = read_manifest(path)
        assert manifest is not None and manifest.codec == "raw"
        assert rendered(recovered.retrieve(2)) == expected
        directory = path if os.path.isdir(path) else os.path.dirname(path)
        assert not any(n.endswith(".tmp") for n in os.listdir(directory))
        # ...and the recode replays cleanly after recovery.
        assert recovered.recode("xmill").new_codec == "xmill"
        assert rendered(open_archive(path).retrieve(2)) == expected

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_crash_mid_recode_publish_rolls_forward(
        self, kind, tmp_path, spec, versions, monkeypatch
    ):
        path = str(tmp_path / ("arch.xml" if kind == "file" else "arch"))
        backend = create_archive(path, COMPANY_KEY_TEXT, kind=kind, chunk_count=3)
        backend.ingest_batch([v.copy() for v in versions])
        expected = rendered(backend.retrieve(2))
        backend.close()

        monkeypatch.setattr(WriteAheadLog, "publish", _crash_mid_publish)
        crashing = open_archive(path)
        with pytest.raises(SimulatedCrash):
            crashing.recode("gzip")
        monkeypatch.undo()

        # Publication had begun: recovery completes it — payloads and
        # manifest land together on the new codec, never a torn mix.
        recovered = open_archive(path)
        assert recovered.codec.name == "gzip"
        manifest = read_manifest(path)
        assert manifest is not None and manifest.codec == "gzip"
        assert rendered(recovered.retrieve(2)) == expected

    def test_recode_rejects_unknown_codec(self, tmp_path, spec, versions):
        backend = make_backend("file", str(tmp_path), spec)
        backend.ingest_batch([v.copy() for v in versions])
        with pytest.raises(ValueError):
            backend.recode("zstd")
