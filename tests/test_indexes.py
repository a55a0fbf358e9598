"""Tests for timestamp trees (Sec. 7.1) and the key index (Sec. 7.2)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Archive, ArchiveError, VersionSet, documents_equivalent
from repro.core.tstree import tree_size
from repro.data import OmimGenerator, omim_key_spec
from repro.data.company import company_key_spec, company_versions
from repro.indexes import (
    IndexRecord,
    KeyIndex,
    ProbeCount,
    SortedChildList,
    build_timestamp_tree,
    patch_timestamp_tree,
    search_timestamp_tree,
)
from repro.core.nodes import ArchiveNode
from repro.keys.annotate import KeyLabel


def company_archive():
    archive = Archive(company_key_spec())
    for version in company_versions():
        archive.add_version(version)
    return archive


def _leaf(tag, versions, inherited):
    return ArchiveNode(
        label=KeyLabel(tag=tag, key=()), timestamp=VersionSet(versions)
    )


def _children(timestamps):
    """Leaf children; ``None`` inherits the parent's timestamp."""
    return [
        ArchiveNode(
            label=KeyLabel(tag=f"c{i}", key=()),
            timestamp=None if versions is None else VersionSet(versions),
        )
        for i, versions in enumerate(timestamps)
    ]


def _tree_nodes(tree):
    """Every node of a timestamp tree in a fixed (pre-)order."""
    nodes, stack = [], [tree]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(child for child in (node.right, node.left) if child)
    return nodes


def _height(tree):
    if tree is None or tree.is_leaf:
        return 0
    return 1 + max(_height(tree.left), _height(tree.right))


VERSION_RANGE = VersionSet.parse("1-12")
timestamp_lists = st.lists(
    st.one_of(
        st.none(),
        st.lists(st.integers(min_value=1, max_value=12), min_size=1, unique=True),
    ),
    min_size=1,
    max_size=40,
)


class TestTimestampTree:
    def test_build_empty(self):
        assert build_timestamp_tree([], VersionSet([1])) is None

    def test_root_union(self):
        inherited = VersionSet.parse("1-9")
        children = [
            _leaf("a", [1, 2], inherited),
            _leaf("b", [3, 4, 5], inherited),
            _leaf("c", [7], inherited),
        ]
        tree = build_timestamp_tree(children, inherited)
        assert tree.timestamp == VersionSet.parse("1-5,7")

    def test_search_finds_relevant_children(self):
        inherited = VersionSet.parse("1-9")
        children = [
            _leaf("a", [1, 2], inherited),
            _leaf("b", [3, 4, 5], inherited),
            _leaf("c", [2, 7], inherited),
            _leaf("d", [9], inherited),
        ]
        tree = build_timestamp_tree(children, inherited)
        assert search_timestamp_tree(tree, 2, 4) == [0, 2]
        assert search_timestamp_tree(tree, 9, 4) == [3]
        assert search_timestamp_tree(tree, 6, 4) == []

    def test_paper_figure15_shape(self):
        """Fig. 15: searching version 2 prunes the 3-9 subtree."""
        inherited = VersionSet.parse("1-9")
        timestamps = ["1-2", "1-2", "3-5", "4", "3-5", "3-5", "4-6", "3-5,7-9"]
        children = [
            ArchiveNode(
                label=KeyLabel(tag=f"l{i}", key=()),
                timestamp=VersionSet.parse(text),
            )
            for i, text in enumerate(timestamps, start=1)
        ]
        tree = build_timestamp_tree(children, inherited)
        from repro.indexes import ProbeCount

        probes = ProbeCount()
        found = search_timestamp_tree(tree, 2, len(children), probes)
        assert found == [0, 1]
        # Pruning means far fewer probes than the full tree (15 nodes).
        assert probes.tree_probes < 10

    def test_inherited_timestamp_children(self):
        inherited = VersionSet.parse("1-4")
        children = [ArchiveNode(label=KeyLabel(tag="a", key=()), timestamp=None)]
        tree = build_timestamp_tree(children, inherited)
        assert search_timestamp_tree(tree, 3, 1) == [0]

    @given(timestamp_lists, st.integers(min_value=0, max_value=13))
    @settings(max_examples=60, deadline=None)
    def test_search_matches_linear_scan(self, timestamps, version):
        children = _children(timestamps)
        tree = build_timestamp_tree(children, VERSION_RANGE)
        expected = [
            index
            for index, child in enumerate(children)
            if version in child.effective_timestamp(VERSION_RANGE)
        ]
        assert search_timestamp_tree(tree, version, len(children)) == expected

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 100, 1000])
    def test_shape_is_balanced(self, count):
        """Bottom-up pairing gives ``2k - 1`` nodes and height
        ``ceil(log2 k)`` for ``k`` children."""
        tree = build_timestamp_tree(_children([[1]] * count), VERSION_RANGE)
        assert tree_size(tree) == 2 * count - 1
        assert _height(tree) == (count - 1).bit_length()

    @given(
        st.sets(st.integers(min_value=0, max_value=63), min_size=1, max_size=64)
    )
    @settings(max_examples=60, deadline=None)
    def test_probes_within_paper_bound(self, relevant):
        """Sec. 7.1: finding the ``a`` children that hold a version
        probes at most ``2a - 1 + 2a log(k/a)`` tree nodes."""
        count = 64
        children = _children(
            [[1, 2] if index in relevant else [2] for index in range(count)]
        )
        tree = build_timestamp_tree(children, VERSION_RANGE)
        probes = ProbeCount()
        assert search_timestamp_tree(tree, 1, count, probes) == sorted(relevant)
        alpha = len(relevant)
        bound = 2 * alpha - 1 + 2 * alpha * math.log2(count / alpha)
        assert probes.tree_probes <= bound
        assert probes.fallback_scans == 0

    @given(timestamp_lists, st.data())
    @settings(max_examples=60, deadline=None)
    def test_patch_matches_rebuild(self, timestamps, data):
        children = _children(timestamps)
        tree = build_timestamp_tree(children, VERSION_RANGE)
        root_before = tree.timestamp.copy()
        moved = data.draw(timestamp_lists.filter(lambda t: len(t) == len(children)))
        for child, versions in zip(children, moved):
            child.timestamp = None if versions is None else VersionSet(versions)
        changed = patch_timestamp_tree(tree, children, VERSION_RANGE)
        rebuilt = build_timestamp_tree(children, VERSION_RANGE)
        assert [node.timestamp for node in _tree_nodes(tree)] == [
            node.timestamp for node in _tree_nodes(rebuilt)
        ]
        assert changed == (tree.timestamp != root_before)

    def test_patch_without_changes_leaves_tree_alone(self):
        children = _children([[1, 2], [3], None, [2, 5]])
        tree = build_timestamp_tree(children, VERSION_RANGE)
        before = [(node, node.timestamp) for node in _tree_nodes(tree)]
        assert patch_timestamp_tree(tree, children, VERSION_RANGE) is False
        assert [(node, node.timestamp) for node in _tree_nodes(tree)] == before
        assert all(
            node.timestamp is timestamp for node, timestamp in before
        ), "an unchanged patch must not reallocate timestamps"
        assert patch_timestamp_tree(None, [], VERSION_RANGE) is False


class TestTreeGuidedRetrieval:
    """Probe-accounted retrieval over the archive's own timestamp trees."""

    def test_guided_retrieval_matches_scan(self):
        archive = company_archive()
        spec = company_key_spec()
        for version in range(1, 5):
            plain = archive.retrieve(version, guided=False)
            probes = ProbeCount()
            guided = archive.retrieve(version, probes=probes)
            assert documents_equivalent(plain, guided, spec)
            assert probes.total() > 0

    def test_unknown_version_raises(self):
        with pytest.raises(ValueError):
            company_archive().retrieve(40, probes=ProbeCount())

    def test_probe_savings_on_sparse_version(self):
        """Retrieving a sparse early version probes far fewer nodes than
        the naive scan when the archive has accreted many elements."""
        spec = omim_key_spec()
        generator = OmimGenerator(seed=9, initial_records=4)
        # Accrete aggressively so version 1 is a small slice of the end.
        from repro.data import OmimChangeRates

        generator.rates = OmimChangeRates(
            delete_fraction=0.0, insert_fraction=0.8, modify_fraction=0.0
        )
        archive = Archive(spec)
        for version in generator.generate_versions(8):
            archive.add_version(version)
        probes = ProbeCount()
        archive.retrieve(1, probes=probes)
        assert probes.total() < archive.scan_probe_count(1)

    def test_tree_node_count_positive(self):
        assert company_archive().warm_timestamp_trees() > 0


class TestKeyIndex:
    def test_history_matches_archive(self):
        archive = company_archive()
        index = KeyIndex(archive)
        for path in [
            "/db",
            "/db/dept[name=finance]",
            "/db/dept[name=marketing]",
            "/db/dept[name=finance]/emp[fn=John, ln=Doe]",
            "/db/dept[name=finance]/emp[fn=Jane, ln=Smith]",
            "/db/dept[name=finance]/emp[fn=John, ln=Doe]/sal",
        ]:
            expected = archive.history(path).existence
            got, comparisons = index.history(path)
            assert got == expected, path
            assert comparisons >= 1

    def test_paper_example(self):
        """Sec. 7.2: John Doe's history via the index is 3,4."""
        index = KeyIndex(company_archive())
        timestamps, _ = index.history(
            "/db/dept[name=finance]/emp[fn=John, ln=Doe]"
        )
        assert timestamps.to_text() == "3-4"

    def test_missing_element_raises(self):
        index = KeyIndex(company_archive())
        with pytest.raises(ArchiveError):
            index.history("/db/dept[name=hr]")

    def test_comparisons_logarithmic(self):
        """O(l log d): the comparison count stays near l * log2(d)."""
        spec = omim_key_spec()
        generator = OmimGenerator(seed=3, initial_records=200)
        archive = Archive(spec)
        version = generator.initial_version()
        archive.add_version(version)
        index = KeyIndex(archive)
        record = version.find("Record")
        num = record.find("Num").text_content()
        _, comparisons = index.history(f"/ROOT/Record[Num={num}]")
        # Two steps; degree ~200 → ~2 * 8 comparisons, far below 200.
        assert comparisons < 40

    def test_record_count(self):
        index = KeyIndex(company_archive())
        assert index.record_count() >= 8

    def test_matches_archive_history_on_omim(self):
        """Every record that ever existed — deleted ones included — has
        the same history through the index as through the archive."""
        archive = Archive(omim_key_spec())
        versions = OmimGenerator(seed=5, initial_records=60).generate_versions(3)
        for version in versions:
            archive.add_version(version)
        index = KeyIndex(archive)
        nums = {
            record.find("Num").text_content()
            for version in versions
            for record in version.find_all("Record")
        }
        assert len(nums) > 60
        for num in sorted(nums):
            path = f"/ROOT/Record[Num={num}]"
            assert index.history(path)[0] == archive.history(path).existence

    def test_child_lists_sorted_and_complete(self):
        """One record per archive node below the root, each list sorted
        by label token, each record pointing at its node's own list."""
        archive = company_archive()
        index = KeyIndex(archive)

        def check(node, child_list):
            tokens = [record.token for record in child_list.records]
            assert tokens == sorted(tokens)
            assert sorted(tokens) == sorted(
                child.label.sort_token() for child in node.children
            )
            by_token = {child.label.sort_token(): child for child in node.children}
            total = 0
            for record in child_list.records:
                child = by_token[record.token]
                total += 1
                if child.children:
                    total += check(child, record.child_list)
                else:
                    assert record.child_list is None
            return total

        assert check(archive.root, index._root_list) == index.record_count()

    @pytest.mark.parametrize(
        "path",
        [
            "db/dept[name=finance]",
            "/db/dept[name=hr]/emp[fn=John, ln=Doe]",
            "/db/dept[name=finance]/emp[fn=John]",
            "/db/dept[name=finance]/emp[fn=John, ln=Doe]/sal/x",
        ],
    )
    def test_errors_match_archive(self, path):
        """Malformed and missing paths fail through the index exactly as
        they do through the archive scan."""
        archive = company_archive()
        with pytest.raises(ArchiveError) as expected:
            archive.history(path)
        with pytest.raises(ArchiveError) as got:
            KeyIndex(archive).history(path)
        assert str(got.value) == str(expected.value)


class TestSortedChildList:
    @given(
        st.sets(st.text(alphabet="abcdef", min_size=1, max_size=4), max_size=200),
        st.text(alphabet="abcdefg", min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_find_is_binary_search(self, present, probe):
        """``find`` hits exactly the stored labels and costs
        ``O(log d)`` comparisons for a list of ``d`` records."""
        labels = [KeyLabel(tag="r", key=(("k", value),)) for value in present]
        records = sorted(
            (
                IndexRecord(
                    token=label.sort_token(),
                    label=label,
                    child_list=None,
                    timestamp=VersionSet([1]),
                )
                for label in labels
            ),
            key=lambda record: record.token,
        )
        child_list = SortedChildList(records=records)
        limit = max(1, len(records)).bit_length()
        for label in labels:
            comparisons = [0]
            assert child_list.find(label, comparisons).label == label
            assert comparisons[0] <= limit
        target = KeyLabel(tag="r", key=(("k", probe),))
        comparisons = [0]
        found = child_list.find(target, comparisons)
        assert (found is not None) == (probe in present)
        assert comparisons[0] <= limit
