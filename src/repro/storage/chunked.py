"""The chunked archiver — the paper's own memory workaround (Sec. 5).

Before building the full external-memory machinery of Sec. 6, the
paper's experiments coped with 256 MB of RAM by *hashing the data into
chunks based on the values of keys*: "An incoming version is
partitioned in the same manner, and we apply our archiver to the
corresponding chunks of the archive and the incoming version.  Since we
never merge elements with different key values, we can obtain the
archive of the whole data by merging ... chunk by chunk, and
concatenating the results."

:class:`ChunkedArchiver` reproduces that scheme: top-level records are
partitioned by a hash of their key value into ``chunk_count`` buckets,
each bucket is archived independently (one on-disk XML archive per
chunk), and queries fan out to the owning chunk.  Peak memory is
bounded by the largest chunk plus one version's worth of records.
"""

from __future__ import annotations

import hashlib
import os
from typing import Callable, Iterable, Optional

from ..core.archive import Archive, ArchiveOptions, ArchiveStats, ElementHistory
from ..core.ingest import IngestSession
from ..core.merge import MergeStats
from ..core.tempquery import Change, ChangeReport, _step, archive_diff
from ..core.tstree import ProbeCount
from ..core.versionset import VersionSet
from ..keys.annotate import annotate_keys
from ..keys.spec import KeySpec
from ..xmltree.model import Element
from .backend import (
    MANIFEST_NAME,
    OnVersion,
    RecodeReport,
    StorageBackend,
    read_manifest,
)
from .cache import chunk_cache
from .codec import CodecError, CodecLike, get_codec, sniff_codec
from .integrity import (
    CHECKSUMS_NAME,
    ChecksumSidecar,
    IntegrityError,
    ManifestInconsistent,
    validate_policy,
)
from .parallel import ExecutionPool, _recode_chunk_task
from .wal import Commit, WriteAheadLog, atomic_write_text

#: Per-chunk degradation policies for reads over damaged archives.
ON_CORRUPT_POLICIES = ("raise", "skip")


class ChunkedArchiverError(ValueError):
    """Raised on misconfiguration or unusable documents."""


def concatenate_parts(parts) -> Optional[Element]:
    """Concatenate per-chunk reconstructions under one root shell.

    ``parts`` yields each chunk's reconstruction (``None`` for chunks
    without content at the version); the first non-``None`` part
    donates the root tag and attributes — the paper's "concatenating
    the results".
    """
    result: Optional[Element] = None
    for part in parts:
        if part is None:
            continue
        if result is None:
            result = Element(part.tag)
            for attr in part.attributes:
                result.set_attribute(attr.name, attr.value)
        for child in part.children:
            result.append(child)
    return result


def restore_key_order(document: Optional[Element], spec: KeySpec) -> Optional[Element]:
    """Re-sort a concatenated reconstruction's records into key order.

    Hash partitioning scatters a version's records across chunks, so
    plain concatenation returns them grouped by chunk.  Every in-chunk
    reconstruction already emits keyed siblings in key order, and depth
    beyond the record level stays within one chunk — re-sorting the
    top-level records is therefore enough to make chunked retrievals
    byte-identical to the other backends.  Documents whose top level is
    not fully keyed are returned untouched.

    Cost: the key annotation stops descending at frontier paths, so
    the extra walk is proportional to the keyed nodes above the
    frontier (the records being sorted), not to the full document.
    """
    if document is None or not document.children:
        return document
    try:
        annotated = annotate_keys(document, spec)
    except ValueError:
        return document  # unannotatable reconstruction: keep chunk order
    tokens = []
    for child in document.children:
        if not isinstance(child, Element):
            return document
        label = annotated.label(child)
        if label is None:
            return document
        tokens.append(label.sort_token())
    order = sorted(range(len(tokens)), key=lambda i: tokens[i])
    document.children[:] = [document.children[i] for i in order]
    return document


def _chunk_presence_of(archive: Archive) -> VersionSet:
    """Union of the top-level record roots' effective timestamps — the
    versions at which the chunk contributes anything to a retrieval."""
    root_timestamp = archive.root.timestamp
    if root_timestamp is None:
        return VersionSet()
    presence = VersionSet()
    for child in archive.root.children:
        presence = presence.union(child.effective_timestamp(root_timestamp))
    return presence


class ChunkedArchiver(StorageBackend):
    """Archive per key-hash chunk; concatenate for the full picture.

    ``record_depth`` selects the partitioning level: 1 partitions the
    children of the document root (the paper's record level for OMIM
    and Swiss-Prot, whose roots hold a flat list of ``Record``
    elements).

    Every mutation publishes through the write-ahead log: chunk files,
    presence sidecars, the version counter and the manifest are staged
    as ``*.tmp``, fsynced behind one WAL record, then renamed into
    place — a crash mid-batch recovers to the pre-batch archive (or, if
    publication had begun, completes it) instead of a torn mix.
    """

    kind = "chunked"
    supports_probes = True

    def __init__(
        self,
        directory: "str | os.PathLike",
        spec: KeySpec,
        chunk_count: int = 8,
        options: Optional[ArchiveOptions] = None,
        codec: CodecLike = None,
        verify: str = "always",
        on_corrupt: str = "raise",
        workers: int = 1,
        recover: bool = True,
        cache_reads: bool = False,
    ) -> None:
        if chunk_count < 1:
            raise ChunkedArchiverError("Need at least one chunk")
        if on_corrupt not in ON_CORRUPT_POLICIES:
            raise ChunkedArchiverError(
                f"Unknown on_corrupt policy {on_corrupt!r} "
                f"(choose from {', '.join(ON_CORRUPT_POLICIES)})"
            )
        directory = os.fspath(directory)
        self.directory = directory
        self.storage_root = directory
        self.spec = spec
        self.chunk_count = chunk_count
        self.options = options or ArchiveOptions()
        self.verify = validate_policy(verify)
        #: What :meth:`retrieve` does with a chunk that fails integrity
        #: or decode checks: ``"raise"`` propagates, ``"skip"`` serves
        #: the healthy chunks and counts the skip.
        self.on_corrupt = on_corrupt
        #: Chunk loads retrieval skipped because the chunk's presence
        #: timestamp excluded the requested version (cumulative).
        self.chunks_pruned = 0
        #: Chunks retrieval skipped as corrupt under ``on_corrupt="skip"``.
        self.chunks_skipped_corrupt = 0
        #: Read-only handles (``open_archive(..., recover=False)``) share
        #: decoded chunks through the process-wide
        #: :func:`~repro.storage.cache.chunk_cache`; write-capable
        #: handles never do — a writer mutates its decoded archive in
        #: place, which must not leak into other readers' views.
        self.cache_reads = cache_reads
        #: Decoded-chunk cache traffic through *this handle* (cumulative;
        #: query execution reads these as before/after deltas).
        self.cache_hits = 0
        self.cache_misses = 0
        #: Chunk-loop parallelism: recode and chunk query fan-out run
        #: their per-chunk work through this pool.  The default of one
        #: worker is the deterministic serial path.
        self.pool = ExecutionPool(workers)
        self.workers = self.pool.workers
        os.makedirs(directory, exist_ok=True)
        self._wal = WriteAheadLog(os.path.join(directory, "wal.json"))
        if recover:
            self._wal.recover(
                stray_tmps=[
                    os.path.join(directory, name)
                    for name in os.listdir(directory)
                    if name.endswith(".tmp")
                ]
            )
        # An explicit codec wins; otherwise an existing chunk file's
        # magic bytes decide (fresh directories start raw).
        self.codec = (
            get_codec(codec) if codec is not None else self._sniff_codec()
        )
        # Payload checksums: recorded per file in the sidecar, staged
        # through the same WAL commit as the payloads themselves.
        self._checksums = ChecksumSidecar.load(
            os.path.join(directory, CHECKSUMS_NAME)
        )
        self._verified: set[str] = set()
        self._version_count = self._load_version_count()
        try:
            manifest = read_manifest(directory)
        except ManifestInconsistent:
            manifest = None  # fsck's problem, not open's
        self.generation = manifest.generation if manifest is not None else 0

    def _sniff_codec(self):
        for index in range(self.chunk_count):
            path = self._chunk_path(index)
            if os.path.exists(path):
                return sniff_codec(path)
        return get_codec(None)

    # -- chunk file plumbing ----------------------------------------------------

    def _chunk_path(self, index: int) -> str:
        return os.path.join(self.directory, f"chunk-{index:04d}.xml")

    def _presence_path(self, index: int) -> str:
        return os.path.join(self.directory, f"chunk-{index:04d}.presence")

    def _meta_path(self) -> str:
        return os.path.join(self.directory, "versions.txt")

    def _verify_payload(self, path: str, data: bytes) -> None:
        """Check one read against the sidecar under the verify policy."""
        self._checksums.verify(
            os.path.basename(path), data, self.verify, self._verified
        )

    def _check_absent(self, path: str) -> None:
        """A file is missing: fine for legacy/lazy files, a typed error
        when the checksum sidecar says it should exist (or fsck moved
        it to quarantine)."""
        if self.verify == "never":
            return
        name = os.path.basename(path)
        if name in self._checksums.quarantined:
            raise IntegrityError(
                f"Payload {name!r} was quarantined by fsck --repair; "
                f"restore it from quarantine/ or re-ingest"
            )
        if self._checksums.covers(name):
            raise ManifestInconsistent(
                f"Payload {name!r} is recorded in the checksum sidecar "
                f"but missing on disk"
            )

    def _load_version_count(self) -> int:
        try:
            with open(self._meta_path(), "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            self._check_absent(self._meta_path())
            return 0
        self._verify_payload(self._meta_path(), data)
        return int(data.decode("utf-8").strip() or "0")

    def read_part_payload(self, index: int) -> Optional[bytes]:
        """Verified at-rest bytes of a stored chunk (``None`` when absent).

        The raw bytes verify against the checksum sidecar *before*
        anything decodes them, so corruption surfaces as a typed
        :class:`~repro.storage.integrity.IntegrityError`, never a
        confusing decode failure.  This is the handoff point to worker
        processes: workers receive these already-trusted bytes plus the
        codec *name*, never a live backend handle.
        """
        path = self._chunk_path(index)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            self._check_absent(path)
            return None
        self._verify_payload(path, data)
        return data

    def _read_chunk_text(self, index: int) -> Optional[str]:
        """Decoded XML text of a stored chunk (``None`` when absent)."""
        data = self.read_part_payload(index)
        if data is None:
            return None
        return self.codec.decode_document(data)

    def _cache_token(self, index: int):
        """Staleness token for a chunk's cache key (``None``: don't cache).

        The sidecar's recorded sha256 is the precise token — a commit
        that republishes the chunk rewrites its checksum, and
        :meth:`read_part_payload` verifies the bytes against this very
        sidecar state before any decode, so a hit can never shadow bytes
        this handle would not itself have decoded.  Sidecar-less layouts
        fall back to the manifest generation (coarser: any commit
        invalidates the whole archive's entries); with neither, the
        chunk is simply not cached.
        """
        entry = self._checksums.entries.get(
            os.path.basename(self._chunk_path(index))
        )
        if entry is not None and entry.get("sha256"):
            return entry["sha256"]
        if self.generation > 0:
            return ("gen", self.generation)
        return None

    def _invalidate_cached_chunks(self) -> None:
        """Drop this archive's cache entries after a publish.

        Stale-token entries would only age out of the LRU; a
        read-caching handle that writes drops them eagerly so the
        budget isn't spent on unreachable generations."""
        if self.cache_reads:
            chunk_cache().invalidate(os.path.abspath(self.directory))

    def _load_chunk(self, index: int, for_write: bool = False) -> Archive:
        data = self.read_part_payload(index)
        if data is None:
            archive = Archive(self.spec, self.options)
            # Bring the fresh chunk up to the current version count so
            # chunk timestamps stay globally aligned.
            for _ in range(self._version_count):
                archive.add_version(None)
            return archive
        key = None
        cache = None
        if self.cache_reads and not for_write:
            token = self._cache_token(index)
            cache = chunk_cache()
            if token is not None and cache.enabled:
                key = (os.path.abspath(self.directory), index, token)
                cached = cache.get(key)
                if cached is not None:
                    self.cache_hits += 1
                    return cached
                self.cache_misses += 1
        archive = self.codec.decode_archive(data, self.spec, self.options)
        if key is not None:
            cache.put(key, archive, len(data))
        return archive

    def _stage(
        self,
        commit: Commit,
        pending: ChecksumSidecar,
        path: str,
        payload: "str | bytes",
    ) -> None:
        """Stage one file and record its checksum in the pending sidecar."""
        commit.stage(path, payload)
        data = payload.encode("utf-8") if isinstance(payload, str) else payload
        pending.record(os.path.basename(path), data)

    def _stage_chunk(
        self,
        commit: Commit,
        pending: ChecksumSidecar,
        index: int,
        archive: Archive,
    ) -> None:
        # ``.presence`` sidecars stay plain: retrieval prunes on them
        # before paying any decode cost.
        self._stage(
            commit,
            pending,
            self._presence_path(index),
            _chunk_presence_of(archive).to_text(),
        )
        self._stage(
            commit,
            pending,
            self._chunk_path(index),
            self.codec.encode_archive(archive),
        )

    def _stage_meta(
        self, commit: Commit, pending: ChecksumSidecar, version_count: int
    ) -> None:
        self._stage(commit, pending, self._meta_path(), str(version_count))
        self._stage(
            commit,
            pending,
            self.manifest_path(),
            self._manifest_at(version_count).to_json(),
        )
        # The sidecar itself stages last, inside the same commit, so
        # checksums and payloads publish (or roll back) together.
        commit.stage(self._checksums.path, pending.to_json())

    def _manifest_at(self, version_count: int):
        manifest = self.manifest()
        manifest.version_count = version_count
        # Every staged manifest belongs to the commit that will publish
        # it, so it carries the *next* generation; the in-memory counter
        # only advances once that commit actually lands.
        manifest.generation = self.generation + 1
        return manifest

    def _manifest_extra(self) -> dict:
        return {"chunk_count": self.chunk_count}

    def chunk_presence(self, index: int) -> Optional[VersionSet]:
        """Versions at which the chunk actually stores records.

        Read from the tiny ``.presence`` sidecar written next to the
        chunk file, so retrieval can prune whole chunks whose timestamps
        exclude the target version *before* parsing their XML.  Every
        chunk shares the global version numbering via locally-empty
        versions, so the chunk archive's own root timestamp never
        excludes anything — the presence set is the union of the
        top-level record roots' effective timestamps instead.  ``None``
        when unknown (sidecar missing: chunk written by an older tool).
        """
        path = self._presence_path(index)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            # A missing presence sidecar is always safe to degrade on —
            # ``None`` makes readers parse the chunk instead of pruning
            # — so it is an fsck finding, not a read error.  Corrupt
            # *contents* still raise: they could prune wrongly.
            return None
        self._verify_payload(path, data)
        return VersionSet.parse(data.decode("utf-8"))

    def _on_manifest_written(self, text: str) -> None:
        # A standalone manifest write (archive creation) publishes the
        # sidecar right behind it so the manifest is covered from birth.
        self._checksums.record(MANIFEST_NAME, text.encode("utf-8"))
        atomic_write_text(self._checksums.path, self._checksums.to_json())
        self._checksums.present = True

    # -- partitioning --------------------------------------------------------------

    def chunk_index_for_label(self, label) -> int:
        """The chunk a top-level record with this key label hashes to.

        The routing function of the partition scheme, exposed so keyed
        point queries (the facade's partition-level key lookups) can
        open only the owning chunk instead of fanning out to all of
        them.
        """
        digest = hashlib.sha256(str(label).encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big") % self.chunk_count

    def _chunk_of(self, record: Element, annotated) -> int:
        label = annotated.label(record)
        if label is None:
            raise ChunkedArchiverError(
                f"Top-level record <{record.tag}> is unkeyed; chunking "
                f"requires keyed records"
            )
        return self.chunk_index_for_label(label)

    def _partition(self, document: Element) -> dict[int, Element]:
        annotated = annotate_keys(document, self.spec)
        parts: dict[int, Element] = {}
        for record in document.element_children():
            index = self._chunk_of(record, annotated)
            shell = parts.get(index)
            if shell is None:
                shell = Element(document.tag)
                for attr in document.attributes:
                    shell.set_attribute(attr.name, attr.value)
                parts[index] = shell
            shell.append(record.copy())
        return parts

    # -- public API -----------------------------------------------------------------

    @property
    def last_version(self) -> int:
        return self._version_count

    @property
    def part_count(self) -> int:
        """Independently-loadable parts (the chunk files the query
        facade fans out over)."""
        return self.chunk_count

    def part_exists(self, index: int) -> bool:
        return os.path.exists(self._chunk_path(index))

    def load_part(self, index: int) -> Archive:
        return self._load_chunk(index)

    def part_presence(self, index: int) -> Optional[VersionSet]:
        return self.chunk_presence(index)

    def _commit_chunks(
        self,
        partitions: list[dict[int, Element]],
        merge: Callable[[Archive, list[Optional[Element]]], object],
    ) -> None:
        """Merge ``partitions`` chunk by chunk inside one WAL commit.

        For every chunk that is stored or that some version mentions,
        ``merge(archive, slices)`` runs over the chunk's decoded archive
        and its slice of every version (``None`` where a version has no
        records there: an empty version locally, which keeps chunk
        timestamps globally aligned); the merged chunk then stages.  A
        failure anywhere aborts the commit, so the archive on disk and
        this handle's state stay exactly as they were.
        """
        version_count = self._version_count + len(partitions)
        pending = self._checksums.copy()
        commit = self._wal.begin()
        try:
            for index in range(self.chunk_count):
                if not os.path.exists(self._chunk_path(index)) and not any(
                    index in parts for parts in partitions
                ):
                    continue  # never stored, never mentioned: stay lazy
                archive = self._load_chunk(index, for_write=True)
                merge(archive, [parts.get(index) for parts in partitions])
                self._stage_chunk(commit, pending, index, archive)
            self._stage_meta(commit, pending, version_count)
        except BaseException:
            commit.abort()  # merge or staging failed: nothing committed
            raise
        commit.commit(meta={"version_count": version_count})
        # Only a published commit moves the in-memory sidecar.
        self._checksums = pending
        self.generation += 1
        self._invalidate_cached_chunks()
        self._version_count = version_count

    def add_version(self, document: Optional[Element]) -> MergeStats:
        """Partition the version and merge chunk by chunk; all chunk
        files publish atomically behind one WAL record."""
        total = MergeStats()
        parts = self._partition(document) if document is not None else {}
        self._commit_chunks(
            [parts],
            lambda archive, slices: total.accumulate(archive.add_version(slices[0])),
        )
        total.versions = 1
        return total

    def ingest_batch(
        self,
        documents: Iterable[Optional[Element]],
        on_version: OnVersion = None,
    ) -> MergeStats:
        """Merge a whole sequence of versions chunk-major.

        Where a loop over :meth:`add_version` loads, re-parses and
        re-serializes every chunk *per version*, the batch path
        partitions all versions up front, then touches each chunk
        exactly once: load, run a fingerprint-memoized
        :class:`~repro.core.ingest.IngestSession` over the chunk's slice
        of every version, stage.  Everything publishes through one WAL
        commit.

        The chunk-major order trades memory for I/O: the whole batch's
        partitions stay in memory until their chunks are processed, so
        peak memory is one chunk plus the *batch's* records rather than
        the single version the per-version loop holds.  Callers on the
        paper's 256 MB budget bound it by ingesting in slices —
        consecutive ``ingest_batch`` calls produce chunk files identical
        to one big batch (and to a per-version loop).

        ``on_version(number, stats)`` fires once per version after the
        commit publishes (never for a batch that rolls back), with that
        version's merge stats summed across its chunks.
        """
        partitions = [
            self._partition(document) if document is not None else {}
            for document in documents
        ]
        per_version = [MergeStats() for _ in partitions]

        def merge(archive: Archive, slices: list[Optional[Element]]) -> None:
            session = IngestSession(archive)
            for stats, part in zip(per_version, slices):
                stats.accumulate(session.add(part))

        base = self._version_count
        self._commit_chunks(partitions, merge)
        total = MergeStats()
        for number, stats in enumerate(per_version, start=base + 1):
            stats.versions = 1
            total.accumulate(stats)
            if on_version is not None:
                on_version(number, stats)
        return total

    def retrieve(
        self, version: int, *, probes: Optional[ProbeCount] = None
    ) -> Optional[Element]:
        """Concatenate the per-chunk reconstructions, in key order.

        Chunks whose presence timestamps exclude ``version`` are pruned
        before their XML is parsed (counted in ``chunks_pruned``); the
        chunks that do load reconstruct tree-guided via
        :meth:`Archive.retrieve`, accumulating into ``probes`` when
        given.  The concatenation is re-sorted into key order so the
        result is byte-identical to the other backends'.
        """
        if not 1 <= version <= self._version_count:
            raise ChunkedArchiverError(
                f"Version {version} not archived (have 1..{self._version_count})"
            )

        def parts():
            for index in range(self.chunk_count):
                try:
                    if not os.path.exists(self._chunk_path(index)):
                        # Raises when the sidecar says the chunk should
                        # exist (deleted or quarantined); silent when lazy.
                        self._check_absent(self._chunk_path(index))
                        continue
                    presence = self.chunk_presence(index)
                    if presence is not None and version not in presence:
                        self.chunks_pruned += 1
                        continue
                    part = self._load_chunk(index).retrieve(version, probes=probes)
                except (IntegrityError, CodecError):
                    if self.on_corrupt == "skip":
                        # Degrade gracefully: serve the healthy chunks.
                        self.chunks_skipped_corrupt += 1
                        continue
                    raise
                yield part

        return restore_key_order(concatenate_parts(parts()), self.spec)

    def scan_probe_count(self, version: int) -> int:
        """Summed full-scan baseline across the stored chunks."""
        total = 0
        for index in range(self.chunk_count):
            if os.path.exists(self._chunk_path(index)):
                total += self._load_chunk(index).scan_probe_count(version)
        return total

    def history(self, path: str) -> ElementHistory:
        """Route a history query to the owning chunk.

        Chunks are probed in order; one without stored data is skipped
        and one that does not hold the element raises.  Every chunk
        shares the global version numbering, so the first answer is
        *the* answer; when no chunk answers, the last miss re-raises.
        """
        last_error: Optional[Exception] = None
        for index in range(self.chunk_count):
            try:
                if not os.path.exists(self._chunk_path(index)):
                    self._check_absent(self._chunk_path(index))
                    continue
                return self._load_chunk(index).history(path)
            except Exception as error:  # not in this chunk
                last_error = error
        if last_error is not None:
            raise last_error
        raise ChunkedArchiverError(f"No element at {path!r} in any chunk")

    def diff(self, from_version: int, to_version: int) -> ChangeReport:
        """Element-level changes, merged across chunks.

        Every chunk shares the global version numbering, so each chunk
        archive answers for its own records; the union of the per-chunk
        reports is the whole answer (grouped by chunk, since records
        are hash-scattered).

        One correction is needed: a chunk whose records all die (or are
        all new) between the two versions reports its *shell* — the
        shared document root — as deleted/added, because chunk-locally
        it is.  Globally the shell lives as long as any chunk has
        records, so shell-level changes are expanded into the per-record
        changes beneath them, unless the shell really did (dis)appear
        globally, in which case it is reported once like the in-memory
        walk does.
        """
        for version in (from_version, to_version):
            if not 1 <= version <= self._version_count:
                raise ChunkedArchiverError(
                    f"Version {version} not archived "
                    f"(have 1..{self._version_count})"
                )
        report = ChangeReport(from_version=from_version, to_version=to_version)
        shell_changes: list[tuple[Archive, Change]] = []
        presence = VersionSet()
        for index in range(self.chunk_count):
            if not os.path.exists(self._chunk_path(index)):
                continue
            archive = self._load_chunk(index)
            presence = presence.union(_chunk_presence_of(archive))
            shell_paths = {
                "/" + _step(shell) for shell in archive.root.children
            }
            part = archive_diff(archive, from_version, to_version)
            for change in part.changes:
                if change.path in shell_paths:
                    shell_changes.append((archive, change))
                else:
                    report.changes.append(change)
        alive_from = from_version in presence
        alive_to = to_version in presence
        if alive_from != alive_to:
            # The document root itself (dis)appeared: one change, like
            # the in-memory walk reports a whole added/deleted subtree.
            kind = "added" if alive_to else "deleted"
            seen: set[str] = set()
            for _, change in shell_changes:
                if change.path not in seen:
                    seen.add(change.path)
                    report.changes.append(Change(kind=kind, path=change.path))
        elif alive_from and alive_to:
            for archive, change in shell_changes:
                report.changes.extend(
                    self._expand_shell_change(
                        archive, change, from_version, to_version
                    )
                )
        return report

    @staticmethod
    def _expand_shell_change(
        archive: Archive, change: Change, from_version: int, to_version: int
    ) -> list[Change]:
        """Per-record changes beneath a chunk-locally flickering shell.

        A *deleted* shell had its records alive at the ``from`` version;
        an *added* shell has them at the ``to`` version.
        """
        version = from_version if change.kind == "deleted" else to_version
        root_timestamp = archive.root.timestamp
        if root_timestamp is None:
            return []
        expanded: list[Change] = []
        for shell in archive.root.children:
            if "/" + _step(shell) != change.path:
                continue
            shell_timestamp = shell.effective_timestamp(root_timestamp)
            for record in shell.children:
                if version in record.effective_timestamp(shell_timestamp):
                    expanded.append(
                        Change(
                            kind=change.kind,
                            path=f"{change.path}/{_step(record)}",
                        )
                    )
        return expanded

    def stats(self) -> ArchiveStats:
        """Aggregated size/shape counters across the chunk archives.

        Every chunk stores its own copy of the archive root and of the
        document shell (the record parent); ``nodes`` folds those
        duplicates into a single logical occurrence so the count equals
        the other backends' for the same archive.  ``stored_timestamps``
        and ``serialized_bytes`` count what this representation actually
        stores — the per-chunk shells each carry a timestamp, so both
        run higher than the single-file encoding.
        """
        nodes = 1
        stored_timestamps = 1
        raw_bytes = 0
        seen_shells: set[tuple] = set()
        for index in range(self.chunk_count):
            text = self._read_chunk_text(index)
            if text is None:
                continue
            raw_bytes += len(text.encode("utf-8"))
            archive = Archive.from_xml_string(text, self.spec, self.options)
            if archive.root.timestamp is not None:
                stored_timestamps += archive.root.timestamp_count() - 1
            for shell in archive.root.children:
                token = shell.label.sort_token()
                nodes += shell.node_count()
                if token in seen_shells:
                    nodes -= 1  # the shell itself is shared, not repeated
                else:
                    seen_shells.add(token)
        cache = chunk_cache()
        return ArchiveStats(
            versions=self._version_count,
            nodes=nodes,
            stored_timestamps=stored_timestamps,
            serialized_bytes=raw_bytes,
            raw_bytes=raw_bytes,
            disk_bytes=self.total_bytes(),
            generation=self.generation,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            cache_evictions=cache.evictions,
        )

    def total_bytes(self) -> int:
        """Summed on-disk size of all chunk files (the paper concatenates)."""
        total = 0
        for index in range(self.chunk_count):
            path = self._chunk_path(index)
            if os.path.exists(path):
                total += os.path.getsize(path)
        return total

    def recode(self, codec: CodecLike) -> RecodeReport:
        """Re-encode every chunk file in one atomic, verified commit.

        Presence sidecars and ``versions.txt`` stay plain and untouched;
        the chunk files and the manifest (recording the new codec)
        publish together behind one WAL record, so a crash mid-recode
        recovers to wholly-old or wholly-new encodings.

        With ``workers > 1`` the decode → re-encode → verify work runs
        per chunk in a process pool; every result gathers before the
        WAL commit begins, so the atomic wholly-old-or-wholly-new
        guarantee is untouched.
        """
        target = get_codec(codec)
        old = self.codec
        before = self.total_bytes()
        tasks = []
        for index in range(self.chunk_count):
            # ``self.codec`` is still the old codec here (it moves
            # only after the commit publishes), so workers decode the
            # current encoding.
            payload = self.read_part_payload(index)
            if payload is None:
                continue
            tasks.append(
                (index, payload, old.name, target.name, self.spec, self.options)
            )
        recoded = self.pool.map(_recode_chunk_task, tasks)
        pending = self._checksums.copy()
        commit = self._wal.begin()
        files = 0
        try:
            for index, encoded in recoded:
                self._stage(commit, pending, self._chunk_path(index), encoded)
                files += 1
            manifest = self._manifest_at(self._version_count)
            manifest.codec = target.name
            self._stage(commit, pending, self.manifest_path(), manifest.to_json())
            commit.stage(self._checksums.path, pending.to_json())
        except BaseException:
            commit.abort()
            raise
        commit.commit(meta={"version_count": self._version_count})
        # Only a published commit moves the in-memory codec: a failure
        # anywhere above leaves this backend reading the old encoding.
        self.codec = target
        self._checksums = pending
        self.generation += 1
        self._invalidate_cached_chunks()
        return RecodeReport(
            path=self.directory,
            kind=self.kind,
            old_codec=old.name,
            new_codec=target.name,
            files=files,
            disk_bytes_before=before,
            disk_bytes_after=self.total_bytes(),
        )
