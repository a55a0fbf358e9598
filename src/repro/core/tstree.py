"""Timestamp trees for version retrieval (Sec. 7.1) — core machinery.

For an archive node with ``k`` children, a binary tree over the
children's timestamps directs retrieval of version ``i`` to the ``α``
children that actually contain ``i`` while probing at most
``2α - 1 + 2α·log(k/α)`` tree nodes — or at most ``2k``, at which point
the search falls back to scanning all leaves, exactly the threshold
rule of the paper.

This module holds the tree structure plus the build/patch/search
primitives; :class:`repro.core.archive.Archive` owns a lazily-built
cache of these trees keyed by its mutation counter, and
``Archive.retrieve(version, probes=...)`` reports the probe accounting
the Sec. 7.1 experiments check.

``patch_timestamp_tree`` is what makes the trees cheap to keep current:
after a merge lands another version, leaf timestamps are recomputed in
place and internal unions are refreshed only along paths whose leaves
actually changed — no reallocation, no rebuild, and subtrees the merge
never touched are compared (cheaply, interval list against interval
list) and left alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .nodes import ArchiveNode
from .versionset import VersionSet


@dataclass
class TimestampTreeNode:
    """One node of a timestamp binary tree."""

    timestamp: VersionSet
    left: Optional["TimestampTreeNode"] = None
    right: Optional["TimestampTreeNode"] = None
    child_index: Optional[int] = None  # set on leaves: offset into children

    @property
    def is_leaf(self) -> bool:
        return self.child_index is not None


@dataclass
class ProbeCount:
    """Probe accounting for the retrieval cost analysis."""

    tree_probes: int = 0
    fallback_scans: int = 0

    def total(self) -> int:
        return self.tree_probes + self.fallback_scans

    def merge(self, other: "ProbeCount") -> None:
        self.tree_probes += other.tree_probes
        self.fallback_scans += other.fallback_scans


def build_timestamp_tree(
    children: list[ArchiveNode], inherited: VersionSet
) -> Optional[TimestampTreeNode]:
    """Bottom-up pairing of leaves into a binary tree (Sec. 7.1)."""
    if not children:
        return None
    level: list[TimestampTreeNode] = [
        TimestampTreeNode(
            timestamp=child.effective_timestamp(inherited).copy(), child_index=index
        )
        for index, child in enumerate(children)
    ]
    while len(level) > 1:
        paired: list[TimestampTreeNode] = []
        for i in range(0, len(level) - 1, 2):
            left, right = level[i], level[i + 1]
            paired.append(
                TimestampTreeNode(
                    timestamp=left.timestamp.union(right.timestamp),
                    left=left,
                    right=right,
                )
            )
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0]


def patch_timestamp_tree(
    tree: Optional[TimestampTreeNode],
    children: list[ArchiveNode],
    inherited: VersionSet,
) -> bool:
    """Refresh a tree in place after the children's timestamps moved.

    Leaves are recomputed against the children's current effective
    timestamps; an internal node re-unions only when a leaf below it
    actually changed.  The caller guarantees the child *list* is the one
    the tree was built over (same length, same order) — a structural
    change requires :func:`build_timestamp_tree` instead.  Returns
    whether this node's timestamp changed.
    """
    if tree is None:
        return False
    if tree.is_leaf:
        assert tree.child_index is not None
        current = children[tree.child_index].effective_timestamp(inherited)
        if tree.timestamp == current:
            return False
        tree.timestamp = current.copy()
        return True
    left_changed = patch_timestamp_tree(tree.left, children, inherited)
    right_changed = patch_timestamp_tree(tree.right, children, inherited)
    if not (left_changed or right_changed):
        return False
    assert tree.left is not None
    refreshed = (
        tree.left.timestamp.union(tree.right.timestamp)
        if tree.right is not None
        else tree.left.timestamp.copy()
    )
    if refreshed == tree.timestamp:
        return False
    tree.timestamp = refreshed
    return True


def search_timestamp_tree(
    tree: Optional[TimestampTreeNode],
    version: int,
    child_count: int,
    probes: Optional[ProbeCount] = None,
) -> list[int]:
    """Indexes of children relevant to ``version``.

    Descends the tree counting probes; once ``2k`` tree nodes have been
    probed the remaining work cannot beat a plain scan, so the search
    falls back to scanning all leaves (the paper's threshold rule).
    """
    if tree is None:
        return []
    probes = probes if probes is not None else ProbeCount()
    budget = 2 * child_count
    # Budget against probes spent in THIS search: ``probes`` may be a
    # cumulative counter shared across a whole reconstruction, and
    # comparing the running total against one node's budget would make
    # every deep node spuriously fall back to a leaf scan.
    spent = 0
    result: list[int] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        spent += 1
        probes.tree_probes += 1
        if spent > budget:
            # Fall back: scan every leaf once.
            result = _scan_leaves(tree, version, probes)
            return sorted(result)
        if version not in node.timestamp:
            continue
        if node.is_leaf:
            assert node.child_index is not None
            result.append(node.child_index)
        else:
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)
    return sorted(result)


def _scan_leaves(
    tree: TimestampTreeNode, version: int, probes: ProbeCount
) -> list[int]:
    result: list[int] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            probes.fallback_scans += 1
            if version in node.timestamp:
                assert node.child_index is not None
                result.append(node.child_index)
            continue
        if node.right is not None:
            stack.append(node.right)
        if node.left is not None:
            stack.append(node.left)
    return result


def tree_size(tree: Optional[TimestampTreeNode]) -> int:
    """Number of nodes in one tree (space accounting)."""
    count = 0
    stack = [tree] if tree is not None else []
    while stack:
        node = stack.pop()
        count += 1
        if node.left is not None:
            stack.append(node.left)
        if node.right is not None:
            stack.append(node.right)
    return count
