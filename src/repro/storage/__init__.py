"""Persistent archive storage: one protocol, three backends.

:class:`StorageBackend` (``backend.py``) is the contract every
persistence path implements — the whole-file :class:`FileBackend`, the
key-hash :class:`ChunkedArchiver` (Sec. 5) and the event-stream
:class:`ExternalArchiver` (Sec. 6) — behind a self-describing manifest
(:func:`open_archive` auto-detects the backend) and the write-ahead
commit log of ``wal.py`` (crash-safe atomic batch publication).  The
external-memory machinery keeps its own modules: event-stream files
with I/O accounting, bounded-memory sorted runs with k-way merging and
the one-pass stream merge.
"""

from .archiver import ExternalArchiver, archive_to_stream
from .backend import (
    BACKEND_KINDS,
    FileBackend,
    Manifest,
    RecodeReport,
    StorageBackend,
    create_archive,
    detect_backend_kind,
    key_spec_fingerprint,
    keys_location,
    manifest_location,
    open_archive,
    read_manifest,
)
from .chunked import ChunkedArchiver, ChunkedArchiverError, restore_key_order
from .codec import (
    CODEC_NAMES,
    CODECS,
    Codec,
    CodecError,
    GzipCodec,
    RawCodec,
    XMillCodec,
    detect_codec,
    get_codec,
    sniff_codec,
)
from .events import (
    DEFAULT_PAGE_SIZE,
    EventWriter,
    ExitEvent,
    FrontierEvent,
    IOStats,
    NodeEvent,
    PeekableEvents,
    decode_event,
    encode_event,
    read_events,
)
from .extmerge import StreamMergeError, merge_archive_stream
from .extsort import merge_event_streams, sort_version, write_sorted_runs
from .faults import CrashPoint, FaultInjector, inject
from .parallel import ExecutionPool, TaskNotPicklable, WorkerError
from .fsck import FINDING_CODES, Finding, FsckReport, fsck_archive
from .integrity import (
    CHECKSUMS_NAME,
    QUARANTINE_DIR,
    VERIFY_POLICIES,
    ChecksumMismatch,
    ChecksumSidecar,
    IntegrityError,
    ManifestInconsistent,
    TruncatedPayload,
)
from .wal import Commit, WalError, WriteAheadLog, atomic_write_text

__all__ = [
    "BACKEND_KINDS",
    "CHECKSUMS_NAME",
    "CODECS",
    "CODEC_NAMES",
    "Codec",
    "CodecError",
    "ChecksumMismatch",
    "ChecksumSidecar",
    "CrashPoint",
    "DEFAULT_PAGE_SIZE",
    "ChunkedArchiver",
    "ChunkedArchiverError",
    "Commit",
    "FINDING_CODES",
    "FaultInjector",
    "Finding",
    "FsckReport",
    "GzipCodec",
    "IntegrityError",
    "ManifestInconsistent",
    "QUARANTINE_DIR",
    "RawCodec",
    "RecodeReport",
    "TruncatedPayload",
    "VERIFY_POLICIES",
    "XMillCodec",
    "EventWriter",
    "ExecutionPool",
    "ExitEvent",
    "ExternalArchiver",
    "FileBackend",
    "FrontierEvent",
    "IOStats",
    "Manifest",
    "NodeEvent",
    "PeekableEvents",
    "StorageBackend",
    "StreamMergeError",
    "TaskNotPicklable",
    "WalError",
    "WorkerError",
    "WriteAheadLog",
    "archive_to_stream",
    "atomic_write_text",
    "create_archive",
    "decode_event",
    "detect_backend_kind",
    "detect_codec",
    "encode_event",
    "fsck_archive",
    "get_codec",
    "inject",
    "sniff_codec",
    "key_spec_fingerprint",
    "keys_location",
    "manifest_location",
    "merge_archive_stream",
    "merge_event_streams",
    "open_archive",
    "read_events",
    "read_manifest",
    "restore_key_order",
    "sort_version",
    "write_sorted_runs",
]
