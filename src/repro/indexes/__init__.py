"""Index structures for efficient temporal queries (Sec. 7).

Timestamp binary trees accelerate version retrieval (Sec. 7.1); sorted
child-key lists accelerate temporal-history lookups (Sec. 7.2).  The
timestamp trees are owned by :class:`~repro.core.archive.Archive`
(built lazily, patched as versions land; machinery in
:mod:`repro.core.tstree`) and re-exported here.
"""

from ..core.tstree import (
    ProbeCount,
    TimestampTreeNode,
    build_timestamp_tree,
    patch_timestamp_tree,
    search_timestamp_tree,
)
from .keyindex import IndexRecord, KeyIndex, SortedChildList

__all__ = [
    "IndexRecord",
    "KeyIndex",
    "ProbeCount",
    "SortedChildList",
    "TimestampTreeNode",
    "build_timestamp_tree",
    "patch_timestamp_tree",
    "search_timestamp_tree",
]
