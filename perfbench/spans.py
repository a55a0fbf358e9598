"""Spans around calls into the program's layers, recorded from outside it.

The program has no instrumentation of its own, so a traced run replaces
the public functions at each layer boundary with timing wrappers (and
rebinds every ``repro`` module alias of them, because most callers
import functions by name).  Each wrapper records one span: its name,
start and end on the system-wide monotonic clock, its self time (its
duration minus the part covered by traced calls it made) and optional
counts.  Spans nest per thread, so the threaded server's concurrent
requests stay apart.  Spans are kept in memory; :meth:`Tracer.summary`
aggregates the ones that started inside a time window.

With ``enabled`` false a wrapper costs one attribute test, but an
untraced run never installs the wrappers at all.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import types
from typing import Any, Callable, Iterator, Optional

#: ``after(args, kwargs, result, state) -> {counter: value}``.
After = Optional[Callable[[tuple, dict, Any, Any], Optional[dict]]]
#: ``before(args, kwargs) -> state`` (may adjust ``kwargs`` in place).
Before = Optional[Callable[[tuple, dict], Any]]


class Tracer:
    """Thread-aware span recorder with per-name aggregation."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        #: ``(name, start_ns, end_ns, self_ns, counts)``; ``counts`` is a
        #: dict or ``None``.  Count-only events have ``end_ns`` ``None``.
        self.spans: list[tuple] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> list:
        frame = [time.monotonic_ns(), 0]  # start, time covered by children
        self._stack().append(frame)
        return frame

    def _exit(self, name: str, frame: list, counts: Optional[dict]) -> None:
        end = time.monotonic_ns()
        stack = self._stack()
        stack.pop()
        duration = end - frame[0]
        if stack:
            stack[-1][1] += duration
        record = (name, frame[0], end, duration - frame[1], counts)
        with self._lock:
            self.spans.append(record)

    def span(self, name: str) -> "_Span":
        """A ``with`` block recorded as one span (the benchmark's ops)."""
        return _Span(self, name)

    def count(self, name: str, **counts: float) -> None:
        """Record a count event (no duration) at the current time."""
        if not self.enabled:
            return
        now = time.monotonic_ns()
        with self._lock:
            self.spans.append((name, now, None, 0, counts))

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self, name: str, fn: Callable, before: Before = None, after: After = None
    ) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            frame = tracer._enter()
            counts = None
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    counts = after(args, kwargs, result, state)
                return result
            finally:
                tracer._exit(name, frame, counts)

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator function: every step it takes is one span."""
        tracer = self

        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            if not tracer.enabled:
                return iterator
            return tracer._steps(name, iterator)

        traced.__wrapped__ = fn
        return traced

    def _steps(self, name: str, iterator: Iterator) -> Iterator:
        while True:
            frame = self._enter()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._exit(name, frame, None)
            yield item

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        before: Before = None,
        after: After = None,
        iterator: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a traced wrapper.

        For a module-level function every ``repro`` module that imported
        it by name is rebound too; for a class the method is replaced on
        the class itself.
        """
        original = getattr(owner, attr)
        if iterator:
            wrapped = self.wrap_iter(name, original)
        else:
            wrapped = self.wrap(name, original, before, after)
        targets = [(owner, attr)]
        if isinstance(owner, types.ModuleType):
            for module in list(sys.modules.values()):
                if module is owner or not getattr(module, "__name__", "").startswith(
                    "repro"
                ):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        targets.append((module, key))
        for target, key in targets:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, wrapped)

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Swap ``owner.attr`` for ``value`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def records(self) -> list[tuple]:
        """A copy of every span recorded so far."""
        with self._lock:
            return list(self.spans)

    def summary(self, start_ns: int = 0, end_ns: Optional[int] = None) -> dict:
        """Per-name totals over spans that started in ``[start, end]``.

        Returns ``{name: {"calls", "self_ns", "total_ns", "counts"}}``;
        ``counts`` maps counter names to summed values.
        """
        return summarize(self.records(), start_ns, end_ns)


def summarize(spans, start_ns: int = 0, end_ns: Optional[int] = None) -> dict:
    out: dict = {}
    for name, start, end, self_ns, counts in spans:
        if start < start_ns or (end_ns is not None and start > end_ns):
            continue
        entry = out.get(name)
        if entry is None:
            entry = out[name] = {
                "calls": 0,
                "self_ns": 0,
                "total_ns": 0,
                "counts": {},
            }
        if end is not None:
            entry["calls"] += 1
            entry["self_ns"] += self_ns
            entry["total_ns"] += end - start
        if counts:
            for key, value in counts.items():
                entry["counts"][key] = entry["counts"].get(key, 0) + value
    return out


def merge_summaries(*summaries: dict) -> dict:
    """Add several :func:`summarize` results (e.g. client + server)."""
    out: dict = {}
    for summary in summaries:
        for name, entry in summary.items():
            into = out.setdefault(
                name, {"calls": 0, "self_ns": 0, "total_ns": 0, "counts": {}}
            )
            into["calls"] += entry["calls"]
            into["self_ns"] += entry["self_ns"]
            into["total_ns"] += entry["total_ns"]
            for key, value in entry["counts"].items():
                into["counts"][key] = into["counts"].get(key, 0) + value
    return out


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.frame: Optional[list] = None

    def __enter__(self) -> "_Span":
        if self.tracer.enabled:
            self.frame = self.tracer._enter()
        return self

    def __exit__(self, *exc) -> None:
        if self.frame is not None:
            self.tracer._exit(self.name, self.frame, None)


class _TimedLock:
    """A lock proxy whose acquisition is a span (writer wait)."""

    def __init__(self, tracer: Tracer, lock, name: str) -> None:
        self._tracer = tracer
        self._lock = lock
        self._name = name

    def __enter__(self):
        with self._tracer.span(self._name):
            self._lock.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self._lock.release()


class _OsProxy(types.ModuleType):
    """``os`` for one module, with ``fsync`` traced."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__("os")
        self.fsync = tracer.wrap("storage.wal.fsync", os.fsync)

    def __getattr__(self, attr: str):
        return getattr(os, attr)


class _JsonProxy(types.ModuleType):
    """``json`` for the client module, with ``loads`` traced."""

    def __init__(self, tracer: Tracer) -> None:
        import json

        super().__init__("json")
        self._json = json
        self.loads = tracer.wrap("client.decode", json.loads)

    def __getattr__(self, attr: str):
        return getattr(self._json, attr)


def _payload_bytes(args, kwargs, result, state) -> dict:
    payload = args[-1] if args else kwargs.get("payload", b"")
    return {"bytes": len(payload.encode("utf-8") if isinstance(payload, str) else payload)}


def _text_bytes(args, kwargs, result, state) -> dict:
    source = args[0] if args else kwargs["source"]
    return {"bytes": len(source.encode("utf-8"))}


def _result_bytes(args, kwargs, result, state) -> dict:
    return {"bytes": len(result)}


def _data_bytes(args, kwargs, result, state) -> dict:
    return {"bytes": len(args[0])}


def _merge_counts(args, kwargs, result, state) -> dict:
    return {
        "nodes_visited": result.nodes_visited(),
        "subtrees_skipped": result.subtrees_skipped,
    }


def install_program_probes(tracer: Tracer) -> None:
    """Wrap every layer boundary the in-process workloads cross."""
    # Loaded before patching, so the names they import are rebound too.
    import repro.client
    import repro.core.archive
    import repro.core.merge
    import repro.core.tempquery
    import repro.keys.annotate
    import repro.query.db
    import repro.query.exec
    import repro.query.plan
    import repro.server.http
    import repro.storage.cache
    import repro.storage.chunked
    import repro.storage.codec
    import repro.storage.integrity
    import repro.storage.wal
    import repro.xmltree.parser
    import repro.xmltree.serializer
    from repro.core.tstree import ProbeCount

    tracer.patch(
        repro.xmltree.parser, "parse_document", "xmltree.parse", after=_text_bytes
    )
    tracer.patch(repro.xmltree.serializer, "to_string", "xmltree.serialize")
    tracer.patch(repro.keys.annotate, "annotate_keys", "keys.annotate")
    tracer.patch(repro.core.merge, "nested_merge", "core.merge", after=_merge_counts)
    tracer.patch(repro.core.merge.MergeMemo, "prepare_version", "core.merge.prepare")

    codec = type(repro.storage.codec.get_codec("xbin"))
    tracer.patch(
        codec, "encode_archive", "storage.codec.encode", after=_result_bytes
    )
    tracer.patch(codec, "decode_archive", "storage.codec.decode")
    tracer.patch(
        repro.storage.integrity,
        "sha256_hex",
        "storage.integrity.hash",
        after=_data_bytes,
    )
    tracer.patch(
        repro.storage.wal.Commit, "stage", "storage.wal.stage", after=_payload_bytes
    )
    tracer.patch(repro.storage.wal.Commit, "commit", "storage.wal.commit")
    tracer.replace(repro.storage.wal, "os", _OsProxy(tracer))

    cache = repro.storage.cache.DecodedChunkCache
    tracer.patch(
        cache,
        "get",
        "storage.cache.get",
        after=lambda a, k, result, s: {"hit": int(result is not None), "miss": int(result is None)},
    )
    tracer.patch(
        cache,
        "put",
        "storage.cache.put",
        before=lambda a, k: a[0].evictions,
        after=lambda a, k, result, before: {"evictions": a[0].evictions - before},
    )

    chunked = repro.storage.chunked
    tracer.patch(
        chunked.ChunkedArchiver,
        "_load_chunk",
        "storage.chunked.load",
        after=lambda a, k, result, s: {
            "reads": int(not (a[2] if len(a) > 2 else k.get("for_write", False)))
        },
    )
    tracer.patch(
        chunked.ChunkedArchiver,
        "retrieve",
        "storage.chunked.retrieve",
        before=lambda a, k: a[0].chunks_pruned,
        after=lambda a, k, result, before: {"pruned": a[0].chunks_pruned - before},
    )
    tracer.patch(chunked, "restore_key_order", "storage.chunked.restore_key_order")

    def inject_probes(args, kwargs):
        if kwargs.get("probes") is None:
            kwargs["probes"] = ProbeCount()
            return (kwargs["probes"], 0)
        return (kwargs["probes"], kwargs["probes"].total())

    tracer.patch(
        repro.core.archive.Archive,
        "retrieve",
        "core.retrieve",
        before=inject_probes,
        after=lambda a, k, result, state: {"probes": state[0].total() - state[1]},
    )
    tracer.patch(repro.core.archive.Archive, "history", "core.history")
    tracer.patch(repro.core.tempquery, "archive_diff", "core.diff")
    tracer.patch(repro.query.plan, "compile_plan", "query.plan")
    tracer.patch(repro.query.exec, "run_plan", "query.exec", iterator=True)
    tracer.replace(repro.client, "json", _JsonProxy(tracer))


def install_server_probes(tracer: Tracer) -> None:
    """Wrap the server's own layers (inside the ``xarchd`` process)."""
    import repro.server.http
    import repro.server.service

    handler = repro.server.http.XarchdHandler
    tracer.patch(handler, "do_GET", "server.handler")
    tracer.patch(handler, "do_POST", "server.handler")

    service = repro.server.service.ArchiveService
    pins = threading.local()

    def count_pin(args, kwargs):
        pins.count = getattr(pins, "count", 0) + 1

    def read_before(args, kwargs):
        return getattr(pins, "count", 0)

    def read_after(args, kwargs, result, before) -> dict:
        return {"retries": getattr(pins, "count", 0) - before - 1}

    tracer.patch(
        service,
        "pin",
        "server.pin",
        before=count_pin,
        after=lambda a, k, result, s: {"hit": int(result.cached)},
    )
    tracer.patch(service, "read", "server.read", before=read_before, after=read_after)
    writer_lock = service._writer_lock
    tracer.replace(
        service,
        "_writer_lock",
        lambda self, name: _TimedLock(
            tracer, writer_lock(self, name), "server.writer_wait"
        ),
    )
