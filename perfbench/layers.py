"""Per-layer metrics of a traced run, derived from span totals.

A layer is a module of the program.  Times are self times (a span's
duration minus the traced calls it made) in milliseconds per workload
operation (a commit, a read, or a request); counts are per operation
unless the name says what they are divided by.  Every workload reports
every metric; a layer the workload does not reach reads 0.
"""

from __future__ import annotations

from typing import Optional

from spans import merge_summaries

#: name -> unit, in report order.
PER_LAYER = {
    "xmltree.parse.ms": "ms/op",
    "xmltree.parse.bytes": "B/op",
    "xmltree.serialize.ms": "ms/op",
    "keys.annotate.ms": "ms/op",
    "keys.annotate.calls_per_version": "calls/version",
    "core.merge.ms": "ms/op",
    "core.merge.nodes_visited": "count/op",
    "core.merge.subtrees_skipped": "count/op",
    "core.merge.prepare.ms": "ms/op",
    "core.retrieve.ms": "ms/op",
    "core.retrieve.probes": "count/op",
    "core.history.ms": "ms/op",
    "core.diff.ms": "ms/op",
    "storage.codec.encode.ms": "ms/op",
    "storage.codec.encode.bytes": "B/op",
    "storage.codec.decode.ms": "ms/op",
    "storage.codec.decode.calls": "count/op",
    "storage.integrity.hash.ms": "ms/op",
    "storage.integrity.hash.bytes": "B/op",
    "storage.wal.stage.ms": "ms/op",
    "storage.wal.fsync.ms": "ms/op",
    "storage.wal.commit.ms": "ms/op",
    "storage.wal.fsyncs_per_commit": "count/commit",
    "storage.wal.bytes_written_per_input_byte": "B/B",
    "storage.cache.hit_ratio": "ratio",
    "storage.cache.evictions": "count/op",
    "storage.chunked.chunks_loaded_per_read": "count/read",
    "storage.chunked.chunks_pruned_per_read": "count/read",
    "storage.chunked.restore_key_order.ms": "ms/op",
    "query.plan.ms": "ms/op",
    "query.exec.ms": "ms/op",
    "query.nodes_visited_per_result": "count/result",
    "query.chunks_per_select": "count/select",
    "server.handler.ms": "ms/op",
    "server.pin.ms": "ms/op",
    "server.pin.hit_ratio": "ratio",
    "server.read.retries": "count/op",
    "server.writer_wait.ms": "ms/op",
    "server.wire_wait.ms": "ms/op",
    "client.decode.ms": "ms/op",
    "unattributed.share": "ratio",
}

#: Spans whose self time is a ``<name>.ms`` metric (the wire wait is
#: derived, not a span).
_TIMED = [
    name[: -len(".ms")]
    for name in PER_LAYER
    if name.endswith(".ms") and name != "server.wire_wait.ms"
]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(
    client: dict,
    *,
    server: Optional[dict] = None,
    ops: int,
    versions: int,
    reads: int,
    input_bytes: int,
) -> dict:
    """Every per-layer metric from a window's span totals.

    ``client`` is the benchmark process's summary, ``server`` the
    ``xarchd`` process's (``serve-mixed``).  ``versions`` counts the
    releases ingested plus the versions retrieved whole, ``reads`` the
    read operations, ``input_bytes`` the XML ingested.
    """
    spans = merge_summaries(client, server or {})
    empty = {"calls": 0, "self_ns": 0, "total_ns": 0, "counts": {}}

    def get(name: str) -> dict:
        return spans.get(name, empty)

    def count(name: str, key: str) -> float:
        return get(name)["counts"].get(key, 0)

    out = {
        f"{name}.ms": _ratio(get(name)["self_ns"] / 1e6, ops) for name in _TIMED
    }
    op = get("bench.op")
    handler_ns = get("server.handler")["total_ns"]
    # The client sees a request as one span; the server's handler span
    # is the part it can account for, the rest is waiting on the wire.
    remainder_ns = max(0, op["self_ns"] - handler_ns)
    out["server.wire_wait.ms"] = _ratio(remainder_ns / 1e6, ops) if server else 0.0
    hits = count("storage.cache.get", "hit")
    lookups = hits + count("storage.cache.get", "miss")
    query_results = count("query.stats", "results")
    out.update(
        {
            "xmltree.parse.bytes": _ratio(count("xmltree.parse", "bytes"), ops),
            "keys.annotate.calls_per_version": _ratio(get("keys.annotate")["calls"], versions),
            "core.merge.nodes_visited": _ratio(count("core.merge", "nodes_visited"), ops),
            "core.merge.subtrees_skipped": _ratio(count("core.merge", "subtrees_skipped"), ops),
            "core.retrieve.probes": _ratio(count("core.retrieve", "probes"), ops),
            "storage.codec.encode.bytes": _ratio(count("storage.codec.encode", "bytes"), ops),
            "storage.codec.decode.calls": _ratio(get("storage.codec.decode")["calls"], ops),
            "storage.integrity.hash.bytes": _ratio(count("storage.integrity.hash", "bytes"), ops),
            "storage.wal.fsyncs_per_commit": _ratio(
                get("storage.wal.fsync")["calls"], get("storage.wal.commit")["calls"]
            ),
            "storage.wal.bytes_written_per_input_byte": _ratio(
                count("storage.wal.stage", "bytes"), input_bytes
            ),
            "storage.cache.hit_ratio": _ratio(hits, lookups),
            "storage.cache.evictions": _ratio(count("storage.cache.put", "evictions"), ops),
            "storage.chunked.chunks_loaded_per_read": _ratio(
                count("storage.chunked.load", "reads"), reads
            ),
            "storage.chunked.chunks_pruned_per_read": _ratio(
                count("storage.chunked.retrieve", "pruned") + count("query.stats", "pruned"),
                reads,
            ),
            "query.nodes_visited_per_result": _ratio(count("query.stats", "nodes"), query_results),
            "query.chunks_per_select": _ratio(
                count("query.stats", "chunks"), count("query.stats", "selects")
            ),
            "server.pin.hit_ratio": _ratio(count("server.pin", "hit"), get("server.pin")["calls"]),
            "server.read.retries": _ratio(count("server.read", "retries"), ops),
            # In-process the facade glue between layers; on serve-mixed
            # the wire wait.
            "unattributed.share": _ratio(remainder_ns, op["total_ns"]),
        }
    )
    return out
