"""Batched multi-version ingestion (the paper's headline workload).

The paper archives *long sequences* of versions — hundreds of OMIM or
Swiss-Prot snapshots — yet a naive loop over ``Archive.add_version``
re-walks the full archive per version even when the delta is tiny.
:class:`IngestSession` holds a :class:`~repro.core.merge.MergeMemo`
across the versions of a batch: subtree fingerprints (Sec. 4.3 digests
over canonical forms) computed while merging version ``i`` let the
merge of version ``i+1`` skip descent into every keyed subtree that did
not change, so per-version cost tracks the delta instead of the archive
size.

Usage::

    session = IngestSession(archive)
    for document in documents:
        session.add(document)          # per-version MergeStats
    session.stats                      # batch totals with skip counters

or, equivalently, ``archive.add_versions(documents)``.

Each merged version bumps the archive's mutation counter, so the
read-path caches (the archive-resident timestamp trees, the history
token lists, and any external :class:`~repro.indexes.keyindex.KeyIndex`)
notice the batch and refresh lazily on the next query — ingestion
itself never pays to keep them warm.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from ..xmltree.model import Element
from .fingerprint import Fingerprinter
from .merge import MergeMemo, MergeStats

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .archive import Archive

#: Digest width of the skip memo.  Deliberately wide (the paper suggests
#: MD5-class fingerprints for value equality): skip decisions treat a
#: digest match as content equality, so the narrow collision-forcing
#: fingerprinters the test suite sorts with must never drive them.
DEFAULT_DIGEST_BITS = 128


class IngestSession:
    """A batch of versions merged into one archive under a shared memo.

    ``seed=True`` (the default) primes the memo from the archive's
    current state, so a batch appended to an existing archive skips
    unchanged subtrees from its very first version.  The session keeps
    cumulative :class:`MergeStats` in ``stats``; each :meth:`add` also
    returns the stats of that single version.
    """

    def __init__(
        self,
        archive: "Archive",
        digest_bits: int = DEFAULT_DIGEST_BITS,
        seed: bool = True,
    ) -> None:
        self.archive = archive
        self.memo = MergeMemo(Fingerprinter(bits=digest_bits))
        self.stats = MergeStats()
        if seed and archive.root.children and archive.last_version > 0:
            self.memo.seed(archive.root, archive.last_version)

    def add(self, document: Optional[Element]) -> MergeStats:
        """Merge the next version (``None`` records an empty version)."""
        stats = self.archive.add_version(document, memo=self.memo)
        self.stats.accumulate(stats)
        return stats

    def add_all(self, documents: Iterable[Optional[Element]]) -> MergeStats:
        """Merge a whole stream of versions; returns the batch totals."""
        total = MergeStats()
        for document in documents:
            total.accumulate(self.add(document))
        return total
