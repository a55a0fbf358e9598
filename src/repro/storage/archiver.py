"""The external-memory archiver facade (Sec. 6).

:class:`ExternalArchiver` keeps the archive as a key-sorted event
stream on disk.  ``add_version`` runs the paper's three phases:

1. **Annotate** the incoming version with key values (Sec. 6.1);
2. **Sort** it into a stream via bounded-memory sorted runs and k-way
   merging (Sec. 6.2);
3. **Merge** the sorted version stream with the archive stream in one
   pass (Sec. 6.3).

The archive itself is never materialized in memory; ``retrieve`` streams
the archive and keeps only the requested version, and ``history`` and
``stats`` are likewise single-pass stream walks, so the whole
:class:`~repro.storage.backend.StorageBackend` surface runs in bounded
memory.  I/O is accounted in pages (``io_stats``) so the analysis of
Sec. 6 can be checked experimentally.
"""

from __future__ import annotations

import os
import re
from typing import Optional

from ..core.archive import (
    Archive,
    ArchiveError,
    ArchiveOptions,
    ArchiveStats,
    ElementHistory,
    ROOT_TAG,
    _parse_history_path,
    missing_element_error,
)
from ..core.merge import MergeStats
from ..core.nodes import ArchiveNode
from ..core.tempquery import ChangeReport, archive_diff
from ..core.tstree import ProbeCount
from ..core.versionset import VersionSet
from ..keys.annotate import KeyLabel, annotate_keys
from ..keys.spec import KeySpec
from ..xmltree.model import Element
from ..xmltree.serializer import to_string
from .backend import (
    Manifest,
    RecodeReport,
    StorageBackend,
    key_spec_fingerprint,
    read_manifest,
)
from .events import (
    DEFAULT_PAGE_SIZE,
    EventWriter,
    ExitEvent,
    FrontierEvent,
    IOStats,
    NodeEvent,
    PeekableEvents,
    archive_node_to_events,
    events_to_archive_node,
    read_events,
)
from .cache import chunk_cache
from .codec import CodecLike, get_codec, sniff_codec
from .extmerge import merge_archive_stream
from .extsort import sort_version
from .integrity import (
    CHECKSUMS_NAME,
    ChecksumSidecar,
    IntegrityError,
    ManifestInconsistent,
    hash_file,
    validate_policy,
    verify_file,
)
from .wal import (
    WriteAheadLog,
    fsync_directory,
    replace_file,
    write_file_durable,
)
from . import faults

#: The event stream's name inside the archive directory (and its key
#: in the checksum sidecar).
STREAM_NAME = "archive.jsonl"

#: Intermediate files of an interrupted annotate/sort/merge pass.
_SCRATCH_PATTERN = re.compile(r"^v\d+-(run|merge)\S*\.jsonl$")


class ExternalArchiver(StorageBackend):
    """A disk-resident archive with bounded-memory version merging."""

    kind = "external"

    def __init__(
        self,
        directory: "str | os.PathLike",
        spec: KeySpec,
        memory_budget: int = 10_000,
        fan_in: int = 8,
        page_size: int = DEFAULT_PAGE_SIZE,
        codec: CodecLike = None,
        verify: str = "always",
        workers: int = 1,
        recover: bool = True,
        cache_reads: bool = False,
    ) -> None:
        """``memory_budget`` is the node budget of one sorted run — the
        paper's ``M``; ``fan_in`` models ``(M/B) - 1`` merge arity.
        ``codec`` encodes the event stream (and its scratch runs) at
        rest — framed gzip under the compressing codecs, so every pass
        still streams in bounded memory.  ``verify`` sets the stream's
        checksum policy for reads.  ``workers`` is accepted for
        interface uniformity with the chunked backend; the single
        event stream is merged sequentially by design.  ``recover=False``
        skips both WAL recovery and the scratch sweep — for read-only
        snapshot opens running next to a live writer, whose in-flight
        staged commit and scratch files must not be touched."""
        directory = os.fspath(directory)
        self.directory = directory
        self.storage_root = directory
        self.spec = spec
        self.memory_budget = memory_budget
        self.fan_in = fan_in
        self.workers = max(1, int(workers))
        self.verify = validate_policy(verify)
        self.io_stats = IOStats(page_size=page_size)
        os.makedirs(directory, exist_ok=True)
        self.archive_path = os.path.join(directory, STREAM_NAME)
        # Every mutation publishes through the WAL; settle any
        # interrupted commit before the scratch sweep so the stream,
        # manifest and checksum sidecar agree on one state.
        self._wal = WriteAheadLog(os.path.join(directory, "wal.json"))
        if recover:
            self._wal.recover(
                stray_tmps=[
                    os.path.join(directory, name)
                    for name in os.listdir(directory)
                    if name.endswith(".tmp")
                ]
            )
            self._recover()
        self.codec = (
            get_codec(codec)
            if codec is not None
            else sniff_codec(self.archive_path)
        )
        self._checksums = ChecksumSidecar.load(
            os.path.join(directory, CHECKSUMS_NAME)
        )
        self._verified: set[str] = set()
        try:
            manifest = read_manifest(directory)
        except ManifestInconsistent:
            manifest = None  # fsck's problem, not open's
        self.generation = manifest.generation if manifest is not None else 0
        #: Read-only handles cache the materialized stream (the
        #: :meth:`to_archive` product ``diff`` and fallback queries pay
        #: for) in the process-wide decoded-chunk cache, keyed by the
        #: stream's sidecar checksum; writers never do.
        self.cache_reads = cache_reads
        self.cache_hits = 0
        self.cache_misses = 0
        if not os.path.exists(self.archive_path):
            if self.verify != "never" and (
                self._checksums.covers(STREAM_NAME)
                or STREAM_NAME in self._checksums.quarantined
            ):
                raise ManifestInconsistent(
                    f"Event stream {STREAM_NAME!r} is recorded in the "
                    f"checksum sidecar but missing on disk"
                )
            self._write_empty_archive()

    # -- bookkeeping ---------------------------------------------------------

    def _recover(self) -> None:
        """Discard scratch files of an interrupted merge.

        The stream merge publishes by a single :func:`os.replace` of
        ``archive.next.jsonl`` over ``archive.jsonl`` — atomic on its
        own — so a crash mid-merge leaves only the pre-merge archive
        plus scratch files (the unpublished next stream and sorted
        runs), all droppable.
        """
        stale = os.path.join(self.directory, "archive.next.jsonl")
        if os.path.exists(stale):
            os.remove(stale)
        for name in os.listdir(self.directory):
            if _SCRATCH_PATTERN.match(name):
                os.remove(os.path.join(self.directory, name))

    def _write_empty_archive(self) -> None:
        with EventWriter(self.archive_path, self.io_stats, self.codec) as writer:
            writer.write(
                NodeEvent(
                    label=KeyLabel(tag=ROOT_TAG, key=()),
                    attributes=(),
                    timestamp=VersionSet(),
                )
            )
            writer.write(ExitEvent())
        # Cover the bootstrap stream so the very first archive state is
        # already verifiable.
        digest, size = hash_file(self.archive_path)
        self._checksums.entries[STREAM_NAME] = {"sha256": digest, "bytes": size}
        self._write_checksums_alone()

    def _write_checksums_alone(self) -> None:
        from .wal import atomic_write_text

        atomic_write_text(self._checksums.path, self._checksums.to_json())
        self._checksums.present = True

    def _on_manifest_written(self, text: str) -> None:
        # A standalone manifest write (archive creation) publishes the
        # sidecar right behind it so the manifest is covered from birth.
        from .backend import MANIFEST_NAME

        self._checksums.record(MANIFEST_NAME, text.encode("utf-8"))
        self._write_checksums_alone()

    def _verify_stream(self) -> None:
        """Check the event stream against its recorded checksum under
        the read policy, before any parse touches it."""
        if self.verify == "never":
            return
        if self.verify == "open" and STREAM_NAME in self._verified:
            return
        if STREAM_NAME in self._checksums.quarantined:
            raise IntegrityError(
                f"Event stream {STREAM_NAME!r} was quarantined by fsck "
                f"--repair; restore it from quarantine/ or re-ingest"
            )
        verify_file(
            STREAM_NAME, self.archive_path, self._checksums.entry(STREAM_NAME)
        )
        self._verified.add(STREAM_NAME)

    def _root_timestamp(self) -> VersionSet:
        self._verify_stream()
        events = read_events(
            self.archive_path, IOStats(), self.codec
        )  # peek without accounting
        root = next(events)
        assert isinstance(root, NodeEvent) and root.timestamp is not None
        return root.timestamp

    @property
    def last_version(self) -> int:
        timestamp = self._root_timestamp()
        return timestamp.max_version() if timestamp else 0

    # -- the three phases ---------------------------------------------------------

    def add_version(self, document: Optional[Element]) -> MergeStats:
        """Annotate, sort and merge the next version (Sec. 6).

        The merged stream, the manifest and the checksum sidecar
        publish together behind one WAL record — a crash at any point
        recovers to the pre-version or post-version archive, never a
        stream whose checksum (or manifest) belongs to the other side.
        """
        number = self.last_version + 1
        out_path = os.path.join(self.directory, "archive.next.jsonl")
        if document is None:
            self._stage_empty_version(number, out_path)
            self._publish_stream(out_path, number)
            return MergeStats()
        annotated = annotate_keys(document, self.spec)  # Sec. 6.1
        version_path = sort_version(  # Sec. 6.2
            annotated,
            self.directory,
            budget=self.memory_budget,
            stats=self.io_stats,
            fan_in=self.fan_in,
            prefix=f"v{number}",
            codec=self.codec,
        )
        merge_stats = merge_archive_stream(  # Sec. 6.3
            self.archive_path,
            version_path,
            out_path,
            number,
            self.io_stats,
            self.codec,
        )
        self._publish_stream(out_path, number)
        os.remove(version_path)
        return merge_stats

    def _publish_stream(self, out_path: str, version_count: int) -> None:
        """Commit a fully-written next stream: stage it with a fresh
        manifest and checksum sidecar, then publish all three behind
        one WAL record (the same protocol the other backends use)."""
        staged = self.archive_path + ".tmp"
        replace_file(out_path, staged)
        _fsync_file(staged)
        pending = self._checksums.copy()
        digest, size = hash_file(staged)
        pending.entries[STREAM_NAME] = {"sha256": digest, "bytes": size}
        pending.quarantined.discard(STREAM_NAME)
        manifest = Manifest(
            kind=self.kind,
            key_spec_hash=key_spec_fingerprint(self.spec),
            version_count=version_count,
            codec=self.codec.name,
            generation=self.generation + 1,
            extra=self._manifest_extra(),
        )
        manifest_text = manifest.to_json()
        from .backend import MANIFEST_NAME

        pending.record(MANIFEST_NAME, manifest_text.encode("utf-8"))
        write_file_durable(self.manifest_path() + ".tmp", manifest_text)
        write_file_durable(self._checksums.path + ".tmp", pending.to_json())
        entries = [self.archive_path, self.manifest_path(), self._checksums.path]
        self._wal.append(entries, meta={"version_count": version_count})
        self._wal.publish(entries)
        self._checksums = pending
        self.generation += 1
        self._verified.discard(STREAM_NAME)
        if self.cache_reads:
            chunk_cache().invalidate(os.path.abspath(self.directory))

    def _stage_empty_version(self, number: int, out_path: str) -> None:
        self._verify_stream()
        events = read_events(self.archive_path, self.io_stats, self.codec)
        with EventWriter(out_path, self.io_stats, self.codec) as writer:
            root = next(events)
            assert isinstance(root, NodeEvent) and root.timestamp is not None
            timestamp = root.timestamp.copy()
            timestamp.add(number)
            from dataclasses import replace

            writer.write(replace(root, timestamp=timestamp))
            depth = 1
            for event in events:
                if isinstance(event, (NodeEvent, FrontierEvent)):
                    if depth == 1 and event.timestamp is None:
                        event = replace(event, timestamp=timestamp.without(number))
                    if isinstance(event, NodeEvent):
                        depth += 1
                elif isinstance(event, ExitEvent):
                    depth -= 1
                writer.write(event)

    # -- queries -------------------------------------------------------------------

    def retrieve(
        self, version: int, *, probes: Optional[ProbeCount] = None
    ) -> Optional[Element]:
        """Stream the archive, keeping only the requested version.

        ``probes`` is accepted for protocol uniformity but stays zero:
        the stream walk has no timestamp trees to probe.
        """
        self._verify_stream()
        events = PeekableEvents(
            read_events(self.archive_path, self.io_stats, self.codec)
        )
        root = events.next()
        assert isinstance(root, NodeEvent) and root.timestamp is not None
        if version not in root.timestamp:
            raise ArchiveError(
                f"Version {version} not archived "
                f"(have {root.timestamp.to_text() or 'none'})"
            )
        result = self._reconstruct_children(events, version, root.timestamp)
        return result[0] if result else None

    def _reconstruct_children(
        self, events: PeekableEvents, version: int, inherited: VersionSet
    ) -> list[Element]:
        children: list[Element] = []
        while True:
            head = events.peek()
            if head is None or isinstance(head, ExitEvent):
                if head is not None:
                    events.next()
                return children
            event = events.next()
            assert isinstance(event, (NodeEvent, FrontierEvent))
            timestamp = (
                event.timestamp if event.timestamp is not None else inherited
            )
            relevant = version in timestamp
            if isinstance(event, FrontierEvent):
                if relevant:
                    element = Element(event.label.tag)
                    for name, value in event.attributes:
                        element.set_attribute(name, value)
                    for alternative in event.alternatives:
                        if (
                            alternative.timestamp is None
                            or version in alternative.timestamp
                        ):
                            for content in alternative.content:
                                element.append(content.copy())
                            break
                    children.append(element)
                continue
            if relevant:
                element = Element(event.label.tag)
                for name, value in event.attributes:
                    element.set_attribute(name, value)
                for child in self._reconstruct_children(events, version, timestamp):
                    element.append(child)
                children.append(element)
            else:
                # Irrelevant subtree: drain it without building anything.
                depth = 1
                while depth:
                    skipped = events.next()
                    if isinstance(skipped, NodeEvent):
                        depth += 1
                    elif isinstance(skipped, ExitEvent):
                        depth -= 1
        return children

    def history(self, path: str) -> ElementHistory:
        """Temporal history of a keyed element, in one stream pass.

        Each path step scans the current node's children events in
        order, draining unmatched subtrees without building anything —
        memory stays proportional to tree height, never archive size.
        """
        steps = _parse_history_path(path)
        if not steps:
            raise ArchiveError(f"Empty history path {path!r}")
        self._verify_stream()
        events = PeekableEvents(
            read_events(self.archive_path, self.io_stats, self.codec)
        )
        root = events.next()
        if not isinstance(root, NodeEvent) or root.timestamp is None:
            raise ArchiveError("Archive stream carries no root timestamp")
        inherited = root.timestamp
        found = None
        for position, (tag, key_value) in enumerate(steps):
            target = KeyLabel(tag=tag, key=key_value).sort_token()
            found = None
            while True:
                head = events.peek()
                if head is None or isinstance(head, ExitEvent):
                    break
                event = events.next()
                assert isinstance(event, (NodeEvent, FrontierEvent))
                timestamp = (
                    event.timestamp if event.timestamp is not None else inherited
                )
                if event.label.sort_token() == target:
                    found = event
                    inherited = timestamp
                    break
                if isinstance(event, NodeEvent):
                    depth = 1  # drain the unmatched subtree
                    while depth:
                        skipped = events.next()
                        if isinstance(skipped, NodeEvent):
                            depth += 1
                        elif isinstance(skipped, ExitEvent):
                            depth -= 1
            if found is None:
                raise missing_element_error(
                    KeyLabel(tag=tag, key=key_value), path
                )
            if position < len(steps) - 1 and not isinstance(found, NodeEvent):
                raise missing_element_error(
                    KeyLabel(tag=steps[position + 1][0], key=steps[position + 1][1]),
                    path,
                )
        changes = None
        if isinstance(found, FrontierEvent):
            changes = []
            for alternative in found.alternatives:
                timestamp = (
                    alternative.timestamp.copy()
                    if alternative.timestamp is not None
                    else inherited.copy()
                )
                rendered = "".join(
                    to_string(c) if isinstance(c, Element) else c.text
                    for c in alternative.content
                )
                changes.append((timestamp, rendered))
        return ElementHistory(
            path=path, existence=inherited.copy(), changes=changes
        )

    def diff(self, from_version: int, to_version: int) -> ChangeReport:
        """Element-level changes between two versions.

        Materializes the stream once (the diff walks parent and child
        timestamps together, which a single forward pass cannot); the
        report matches the in-memory backend's exactly.
        """
        return archive_diff(self.to_archive(), from_version, to_version)

    def stats(self) -> ArchiveStats:
        """Size/shape counters, in one stream pass.

        Mirrors :meth:`Archive.stats` semantics — frontier content
        counts its nodes, ``stored_timestamps`` counts only explicit
        (non-inherited) timestamps — with ``serialized_bytes`` /
        ``raw_bytes`` the stream's logical (decoded) size and
        ``disk_bytes`` its at-rest size under the codec.
        """
        self._verify_stream()
        nodes = 0
        stored_timestamps = 0
        versions = 0
        first = True
        pass_stats = IOStats()  # logical bytes of this single pass
        for event in read_events(self.archive_path, pass_stats, self.codec):
            if isinstance(event, ExitEvent):
                continue
            if first:
                assert isinstance(event, NodeEvent)
                if event.timestamp is not None:
                    versions = len(event.timestamp)
                first = False
            nodes += 1
            if event.timestamp is not None:
                stored_timestamps += 1
            if isinstance(event, FrontierEvent):
                for alternative in event.alternatives:
                    if alternative.timestamp is not None:
                        stored_timestamps += 1
                    for item in alternative.content:
                        if isinstance(item, Element):
                            nodes += sum(1 for _ in item.iter())
                        else:
                            nodes += 1
        self.io_stats.merge(pass_stats)
        return ArchiveStats(
            versions=versions,
            nodes=nodes,
            stored_timestamps=stored_timestamps,
            serialized_bytes=pass_stats.bytes_read,
            raw_bytes=pass_stats.bytes_read,
            disk_bytes=self.archive_bytes(),
            generation=self.generation,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            cache_evictions=chunk_cache().evictions,
        )

    def _cache_token(self):
        """Staleness token for the materialized stream (``None``: skip).

        The stream's sidecar sha256 when recorded — every publish
        rewrites it, and :meth:`_verify_stream` checks the bytes
        against this very sidecar state before materialization — with
        the manifest generation as the coarser fallback."""
        entry = self._checksums.entries.get(STREAM_NAME)
        if entry is not None and entry.get("sha256"):
            return entry["sha256"]
        if self.generation > 0:
            return ("gen", self.generation)
        return None

    def to_archive(self, options: Optional[ArchiveOptions] = None) -> Archive:
        """Materialize the stream into an in-memory :class:`Archive`.

        Used by ``diff`` and the equivalence tests; defeats the
        bounded-memory purpose otherwise — which is exactly why
        read-caching handles keep the materialized product in the
        decoded-chunk cache instead of paying the full stream pass per
        request (non-default ``options`` always materialize fresh: the
        options shape the product).
        """
        key = None
        cache = None
        if self.cache_reads and options is None:
            token = self._cache_token()
            cache = chunk_cache()
            if token is not None and cache.enabled:
                key = (os.path.abspath(self.directory), STREAM_NAME, token)
                cached = cache.get(key)
                if cached is not None:
                    self.cache_hits += 1
                    return cached
                self.cache_misses += 1
        archive = Archive(self.spec, options)
        self._verify_stream()
        events = PeekableEvents(
            read_events(self.archive_path, self.io_stats, self.codec)
        )
        root = events.next()
        assert isinstance(root, NodeEvent) and root.timestamp is not None
        archive.root = ArchiveNode(
            label=root.label, timestamp=root.timestamp.copy()
        )
        while not isinstance(events.peek(), ExitEvent):
            archive.root.children.append(events_to_archive_node(events))
        if key is not None:
            cache.put(key, archive, self.archive_bytes())
        return archive

    def archive_bytes(self) -> int:
        """Current size of the on-disk archive stream."""
        return os.path.getsize(self.archive_path)

    def recode(self, codec: CodecLike) -> RecodeReport:
        """Re-encode the event stream in place, in bounded memory.

        The stream is copied line-by-line from the old codec's reader
        into the new codec's writer (never materialized), verified by a
        second streaming pass comparing decoded lines, then published
        together with the manifest behind one WAL record.
        """
        from itertools import zip_longest

        target = get_codec(codec)
        old = self.codec
        before = self.archive_bytes()
        version_count = self.last_version  # read (and verify) old stream
        manifest = Manifest(
            kind=self.kind,
            key_spec_hash=key_spec_fingerprint(self.spec),
            version_count=version_count,
            codec=target.name,
            generation=self.generation + 1,
            extra=self._manifest_extra(),
        )
        staged = self.archive_path + ".tmp"
        manifest_staged = self.manifest_path() + ".tmp"
        checksums_staged = self._checksums.path + ".tmp"
        pending = self._checksums.copy()
        try:
            with old.open_text_read(self.archive_path) as source, \
                    target.open_text_write(staged) as sink:
                for line in source:
                    sink.write(line)
            _fsync_file(staged)
            # Identity check: the staged stream must decode line-for-line
            # to the current stream before anything publishes.
            with old.open_text_read(self.archive_path) as source, \
                    target.open_text_read(staged) as copy:
                for original, recoded in zip_longest(source, copy):
                    if original != recoded:
                        raise ArchiveError(
                            f"Recode verification failed: {target.name} "
                            f"stream does not round-trip"
                        )
            digest, size = hash_file(staged)
            pending.entries[STREAM_NAME] = {"sha256": digest, "bytes": size}
            manifest_text = manifest.to_json()
            from .backend import MANIFEST_NAME

            pending.record(MANIFEST_NAME, manifest_text.encode("utf-8"))
            write_file_durable(manifest_staged, manifest_text)
            write_file_durable(checksums_staged, pending.to_json())
        except BaseException:
            for path in (staged, manifest_staged, checksums_staged):
                if os.path.exists(path):
                    os.remove(path)
            raise
        entries = [self.archive_path, self.manifest_path(), self._checksums.path]
        self._wal.append(entries, meta={"version_count": version_count})
        self._wal.publish(entries)
        self.codec = target
        self._checksums = pending
        self.generation += 1
        self._verified.discard(STREAM_NAME)
        if self.cache_reads:
            chunk_cache().invalidate(os.path.abspath(self.directory))
        return RecodeReport(
            path=self.directory,
            kind=self.kind,
            old_codec=old.name,
            new_codec=target.name,
            files=1,
            disk_bytes_before=before,
            disk_bytes_after=self.archive_bytes(),
        )


def _fsync_file(path: str) -> None:
    """Flush a fully-written staged file to stable storage."""
    faults.before_op("fsync", path)
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    fsync_directory(os.path.dirname(os.path.abspath(path)))


def archive_to_stream(
    archive: Archive, path: str, stats: IOStats, codec: CodecLike = None
) -> None:
    """Write an in-memory archive as a sorted event stream."""
    assert archive.root.timestamp is not None
    with EventWriter(path, stats, codec) as writer:
        writer.write(
            NodeEvent(
                label=archive.root.label,
                attributes=archive.root.attributes,
                timestamp=archive.root.timestamp,
            )
        )
        for child in archive.root.children:
            archive_node_to_events(child, writer)
        writer.write(ExitEvent())
