"""The ``xarchd`` wire layer: stdlib HTTP, streaming NDJSON responses.

Routes (all answers are ``application/x-ndjson`` unless noted)::

    GET  /healthz                                     liveness (plain JSON)
    GET  /archives                                    listing (plain JSON)
    GET  /archives/{name}/stats
    GET  /archives/{name}/versions
    GET  /archives/{name}/history?path=KEYPATH
    GET  /archives/{name}/at/{v}/select?xpath=EXPR    v: integer or 'latest'
    GET  /archives/{name}/between/{a}/{b}/changes[?prefix=KEYPATH]
    POST /archives/{name}/ingest                      NDJSON {"xml": ...} lines

Streaming responses are chunked-transfer NDJSON: zero or more
``{"item": ...}`` lines followed by exactly one ``{"done": {...}}``
line carrying the result count, the pinned generation, the query's
work accounting, and a ``cache`` record (whether the snapshot reused
an open pin, plus pin-cache and decoded-chunk-cache hit/miss/eviction
counters).  Two response headers make the snapshot observable
before the body streams: ``X-Archive-Generation`` (the pinned
generation every item was answered from) and ``X-Result-Kind``
(``elements`` / ``strings`` / ``changes`` — the
:class:`~repro.query.result.QueryResult` kind, so clients type items
without sniffing).

Failures never tear a stream: the service layer materializes the whole
answer under its snapshot pin *before* the status line is sent, so
every error — unknown archive, bad version, detected corruption —
arrives as a proper status code with the structured
:mod:`repro.server.errors` body.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from ..storage.cache import chunk_cache
from ..xmltree.parser import parse_document
from ..xmltree.serializer import to_string
from .errors import ApiError, error_body
from .service import ArchiveService, Snapshot

#: Cap on ingest request bodies (64 MiB): a runaway upload should fail
#: fast, not exhaust the server.
MAX_INGEST_BYTES = 64 * 1024 * 1024

NDJSON = "application/x-ndjson"


class XarchdServer(ThreadingHTTPServer):
    """One thread per request; the service carries the shared state
    (writer locks), so handler threads stay stateless."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: ArchiveService, *, quiet: bool = True):
        super().__init__(address, XarchdHandler)
        self.service = service
        self.quiet = quiet


class XarchdHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "xarchd/1.0"

    # -- plumbing ----------------------------------------------------------

    @property
    def service(self) -> ArchiveService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:
        if not getattr(self.server, "quiet", True):
            super().log_message(format, *args)

    def _send_json(
        self, status: int, payload: dict, *, extra_headers: Optional[dict] = None
    ) -> None:
        body = (json.dumps(payload) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (extra_headers or {}).items():
            self.send_header(key, str(value))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_body(self, error: BaseException, archive: Optional[str]) -> None:
        payload = error_body(error, archive=archive)
        self._send_json(payload["error"]["status"], payload)

    def _stream_ndjson(
        self, snapshot: Snapshot, kind: str, items: list, done: dict
    ) -> None:
        """Chunked NDJSON: one chunk per item line, one for the done line."""
        self.send_response(200)
        self.send_header("Content-Type", NDJSON)
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("X-Archive-Generation", str(snapshot.generation))
        self.send_header("X-Result-Kind", kind)
        self.end_headers()
        for item in items:
            self._write_chunk(
                json.dumps({"item": item}, ensure_ascii=False).encode("utf-8")
                + b"\n"
            )
        done_record = dict(done)
        done_record.setdefault("count", len(items))
        done_record.setdefault("generation", snapshot.generation)
        done_record.setdefault("last_version", snapshot.last_version)
        cache = chunk_cache()
        done_record.setdefault(
            "cache",
            {
                # Whether this request's snapshot reused an open pin,
                # plus the server-lifetime pin/chunk cache counters.
                "snapshot_reused": snapshot.cached,
                "pin_hits": self.service.pins.hits,
                "pin_misses": self.service.pins.misses,
                "pin_evictions": self.service.pins.evictions,
                "chunk_hits": cache.hits,
                "chunk_misses": cache.misses,
                "chunk_evictions": cache.evictions,
            },
        )
        self._write_chunk(
            json.dumps({"done": done_record}).encode("utf-8") + b"\n"
        )
        self.wfile.write(b"0\r\n\r\n")

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
        self.wfile.write(data)
        self.wfile.write(b"\r\n")

    def _query_param(self, query: dict, key: str) -> Optional[str]:
        values = query.get(key)
        return values[0] if values else None

    # -- routing -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler convention)
        url = urlsplit(self.path)
        parts = [part for part in url.path.split("/") if part]
        query = parse_qs(url.query)
        archive: Optional[str] = None
        try:
            if parts == ["healthz"]:
                self._send_json(
                    200,
                    {
                        "status": "ok",
                        "archives": len(self.service.list_archives()),
                    },
                )
                return
            if parts == ["archives"]:
                self._send_json(200, {"archives": self.service.list_archives()})
                return
            if len(parts) >= 2 and parts[0] == "archives":
                archive = parts[1]
                rest = parts[2:]
                if rest == ["stats"]:
                    self._get_stats(archive)
                    return
                if rest == ["versions"]:
                    self._get_versions(archive)
                    return
                if rest == ["history"]:
                    self._get_history(archive, self._query_param(query, "path"))
                    return
                if len(rest) == 3 and rest[0] == "at" and rest[2] == "select":
                    self._get_select(
                        archive, rest[1], self._query_param(query, "xpath")
                    )
                    return
                if (
                    len(rest) == 4
                    and rest[0] == "between"
                    and rest[3] == "changes"
                ):
                    self._get_changes(
                        archive,
                        rest[1],
                        rest[2],
                        self._query_param(query, "prefix"),
                    )
                    return
                if rest == ["ingest"]:
                    raise ApiError(
                        "method-not-allowed", "ingest requires POST"
                    )
            raise ApiError("not-found", f"No route for GET {url.path!r}")
        except BrokenPipeError:
            pass  # client went away mid-stream; nothing to answer
        except BaseException as error:
            self._send_error_body(error, archive)

    def do_POST(self) -> None:  # noqa: N802
        url = urlsplit(self.path)
        parts = [part for part in url.path.split("/") if part]
        archive: Optional[str] = None
        try:
            if len(parts) == 3 and parts[0] == "archives" and parts[2] == "ingest":
                archive = parts[1]
                self._post_ingest(archive)
                return
            raise ApiError("not-found", f"No route for POST {url.path!r}")
        except BrokenPipeError:
            pass
        except BaseException as error:
            self._send_error_body(error, archive)

    # -- endpoints ---------------------------------------------------------

    def _get_select(
        self, archive: str, version_token: str, xpath: Optional[str]
    ) -> None:
        if not xpath:
            raise ApiError("bad-request", "select requires ?xpath=EXPR")

        def run(snapshot: Snapshot):
            version = snapshot.resolve_version(version_token)
            result = snapshot.db.at(version).select(xpath)
            items = [
                item if isinstance(item, str) else to_string(item)
                for item in result
            ]
            return version, result.kind, items, asdict(result.stats)

        snapshot, (version, kind, items, stats) = self.service.read(
            archive, run
        )
        self._stream_ndjson(
            snapshot, kind, items, {"version": version, "stats": stats}
        )

    def _get_changes(
        self,
        archive: str,
        from_token: str,
        to_token: str,
        prefix: Optional[str],
    ) -> None:
        def run(snapshot: Snapshot):
            from_version = snapshot.resolve_version(from_token)
            to_version = snapshot.resolve_version(to_token)
            changes = snapshot.db.between(from_version, to_version).changes(
                prefix
            )
            items = [
                {
                    "kind": change.kind,
                    "path": change.path,
                    "old_content": change.old_content,
                    "new_content": change.new_content,
                }
                for change in changes
            ]
            return from_version, to_version, items

        snapshot, (from_version, to_version, items) = self.service.read(
            archive, run
        )
        self._stream_ndjson(
            snapshot,
            "changes",
            items,
            {"from_version": from_version, "to_version": to_version},
        )

    def _get_history(self, archive: str, path: Optional[str]) -> None:
        if not path:
            raise ApiError("bad-request", "history requires ?path=KEYPATH")

        def run(snapshot: Snapshot):
            history = snapshot.db.history(path)
            return {
                "path": history.path,
                "existence": history.existence.to_text(),
                "changes": (
                    [
                        [timestamps.to_text(), content]
                        for timestamps, content in history.changes
                    ]
                    if history.changes is not None
                    else None
                ),
            }

        snapshot, item = self.service.read(archive, run)
        self._stream_ndjson(snapshot, "elements", [item], {})

    def _get_versions(self, archive: str) -> None:
        def run(snapshot: Snapshot):
            return {
                "versions": snapshot.db.versions().to_text(),
                "last_version": snapshot.last_version,
            }

        snapshot, item = self.service.read(archive, run)
        self._stream_ndjson(snapshot, "elements", [item], {})

    def _get_stats(self, archive: str) -> None:
        def run(snapshot: Snapshot):
            stats = snapshot.backend.stats()
            record = asdict(stats)
            record["compression_ratio"] = stats.compression_ratio
            record["backend"] = snapshot.backend.kind
            record["codec"] = snapshot.backend.codec.name
            return record

        snapshot, item = self.service.read(archive, run)
        self._stream_ndjson(snapshot, "elements", [item], {})

    def _post_ingest(self, archive: str) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ApiError(
                "bad-request", "ingest requires a Content-Length body"
            )
        if length > MAX_INGEST_BYTES:
            raise ApiError(
                "bad-request",
                f"Ingest body of {length} bytes exceeds the "
                f"{MAX_INGEST_BYTES}-byte cap",
            )
        body = self.rfile.read(length)
        documents = []
        for line_number, raw in enumerate(body.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ApiError(
                    "bad-payload",
                    f"Ingest line {line_number} is not JSON: {error}",
                )
            if not isinstance(record, dict) or "xml" not in record:
                raise ApiError(
                    "bad-payload",
                    f'Ingest line {line_number} must be {{"xml": "..."}}',
                )
            # XMLSyntaxError propagates and classifies as bad-payload.
            documents.append(parse_document(record["xml"]))
        report = self.service.ingest(archive, documents)
        self._send_json(
            200,
            report,
            extra_headers={"X-Archive-Generation": report["generation"]},
        )


def make_server(
    root: str,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> XarchdServer:
    """A ready-to-run server (``port=0`` binds an ephemeral port —
    the tests' and benchmarks' entry point)."""
    service = ArchiveService(root)
    return XarchdServer((host, port), service, quiet=quiet)


def serve(
    root: str,
    *,
    host: str = "127.0.0.1",
    port: int = 8400,
    quiet: bool = False,
) -> None:
    """Run the server until interrupted (the ``xarchd serve`` command)."""
    server = make_server(root, host=host, port=port, quiet=quiet)
    address = server.server_address
    print(f"xarchd: serving {root} on http://{address[0]}:{address[1]}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


def run_in_thread(server: XarchdServer) -> threading.Thread:
    """Start ``server`` on a daemon thread (tests and benchmarks)."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread
