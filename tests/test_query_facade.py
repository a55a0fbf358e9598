"""The ArchiveDB facade: one queryable surface over every backend."""

import pytest

import repro
from repro.core import Archive, ArchiveError, ArchiveOptions, Fingerprinter
from repro.core.tempquery import Change
from repro.keys import parse_key_spec
from repro.query import ArchiveDB, compile_plan
from repro.storage import create_archive
from repro.xmltree import parse_document, to_string
from repro.xmltree.xpath import evaluate

KEYS = """
(/, (db, {}))
(/db, (dept, {name}))
(/db/dept, (emp, {fn, ln}))
(/db/dept/emp, (sal, {}))
(/db/dept/emp, (tel, {.}))
"""

VERSIONS = [
    "<db><dept><name>finance</name></dept></db>",
    """<db><dept><name>finance</name>
         <emp><fn>Jane</fn><ln>Smith</ln></emp></dept></db>""",
    """<db><dept><name>finance</name>
         <emp><fn>John</fn><ln>Doe</ln><sal>90K</sal><tel>123-4567</tel></emp></dept>
        <dept><name>marketing</name>
         <emp><fn>John</fn><ln>Doe</ln></emp></dept></db>""",
    """<db><dept><name>finance</name>
         <emp><fn>John</fn><ln>Doe</ln><sal>95K</sal><tel>123-4567</tel></emp>
         <emp><fn>Jane</fn><ln>Smith</ln><sal>95K</sal>
              <tel>123-6789</tel><tel>112-3456</tel></emp></dept></db>""",
]

EXPRESSIONS = [
    "/db",
    "/db/dept",
    "/db/dept[2]",
    "/db/dept[name='finance']",
    "/db/dept[name='finance']/emp",
    "/db/dept/emp[fn='John'][ln='Doe']/sal",
    "/db/dept/emp[tel='123-4567']",
    "/db/*/emp",
    "/db/dept/name/text()",
    "//tel",
    "//tel/text()",
    "//emp[sal='95K']/fn/text()",
    "/db/dept[name='finance']//tel",
    "/db/dept[name='nowhere']/emp",
]

BACKENDS = ["file", "chunked", "external"]


def _memory_archive() -> Archive:
    archive = Archive(parse_key_spec(KEYS))
    for source in VERSIONS:
        archive.add_version(parse_document(source))
    return archive


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    path = str(tmp_path / ("arch.xml" if request.param == "file" else "arch"))
    store = create_archive(path, KEYS, kind=request.param, chunk_count=4)
    store.ingest_batch(parse_document(source) for source in VERSIONS)
    yield store
    store.close()


def _rendered(items) -> list[str]:
    return [
        item if isinstance(item, str) else to_string(item) for item in items
    ]


class TestSelectEquivalence:
    """`at(v).select(x)` answers exactly like materialize-then-xpath."""

    @pytest.mark.parametrize("expression", EXPRESSIONS)
    def test_every_backend_every_version(self, backend, expression):
        db = backend.db()
        for version in range(1, backend.last_version + 1):
            snapshot = backend.retrieve(version)
            expected = (
                evaluate(snapshot, expression).items
                if snapshot is not None
                else []
            )
            got = db.at(version).select(expression).all()
            assert _rendered(got) == _rendered(expected), (
                backend.kind,
                expression,
                version,
            )

    @pytest.mark.parametrize("expression", EXPRESSIONS)
    def test_in_memory_archive(self, expression):
        archive = _memory_archive()
        db = repro.open(archive)
        for version in range(1, archive.last_version + 1):
            snapshot = archive.retrieve(version)
            expected = evaluate(snapshot, expression).items
            got = db.at(version).select(expression).all()
            assert _rendered(got) == _rendered(expected)

    def test_empty_version_yields_nothing(self, tmp_path):
        store = create_archive(str(tmp_path / "e.xml"), KEYS)
        store.add_version(parse_document(VERSIONS[0]))
        store.add_version(None)
        result = store.db().at(2).select("/db/dept")
        assert result.all() == []


class TestQueryResult:
    def test_streaming_is_lazy(self):
        db = repro.open(_memory_archive())
        result = db.at(4).select("//tel")
        first = result.first()
        assert first is not None and first.tag == "tel"
        # Consuming again replays the cache and continues the stream.
        assert len(result.all()) == 3

    def test_kinds(self):
        db = repro.open(_memory_archive())
        assert db.at(4).select("/db/dept").kind == "elements"
        assert db.at(4).select("/db/dept/name/text()").kind == "strings"
        assert db.between(3, 4).changes().kind == "changes"

    def test_bool_and_count(self):
        db = repro.open(_memory_archive())
        assert db.at(4).select("//tel")
        assert not db.at(1).select("//tel")
        assert db.at(4).select("//tel").count() == 3

    def test_stats_fill_on_consumption(self):
        db = repro.open(_memory_archive())
        result = db.at(4).select("/db/dept[name='finance']/emp")
        result.all()
        assert result.stats.nodes_visited() > 0
        assert result.stats.index_lookups >= 1
        assert not result.stats.fallback


class TestTemporalScopes:
    def test_versions(self, backend):
        assert backend.db().versions().to_text() == "1-4"

    def test_changes_between(self, backend):
        changes = backend.db().between(3, 4).changes().all()
        kinds = {(change.kind, change.path) for change in changes}
        assert (
            "changed",
            "/db/dept[name=finance]/emp[fn=John, ln=Doe]/sal",
        ) in kinds
        assert ("deleted", "/db/dept[name=marketing]") in kinds
        assert all(isinstance(change, Change) for change in changes)

    def test_changes_path_prefix_filter(self, backend):
        finance = "/db/dept[name=finance]"
        changes = backend.db().between(3, 4).changes(finance).all()
        assert changes and all(c.path.startswith(finance) for c in changes)

    def test_changes_prefix_respects_step_boundaries(self):
        spec_text = """
        (/, (db, {}))
        (/db, (rec, {id}))
        (/db/rec, (sal, {}))
        (/db/rec, (salx, {}))
        """
        archive = Archive(parse_key_spec(spec_text))
        archive.add_version(
            parse_document("<db><rec><id>1</id><sal>a</sal><salx>b</salx></rec></db>")
        )
        archive.add_version(
            parse_document("<db><rec><id>1</id><sal>c</sal><salx>d</salx></rec></db>")
        )
        db = repro.open(archive)
        paths = [c.path for c in db.between(1, 2).changes("/db/rec[id=1]/sal")]
        assert paths == ["/db/rec[id=1]/sal"]  # salx must not leak through
        # The select grammar's quoted form works on the change stream too.
        quoted = [c.path for c in db.between(1, 2).changes("/db/rec[id='1']/sal")]
        assert quoted == paths
        # A tag prefix covers its own key predicates, and '/' covers all.
        assert len(db.between(1, 2).changes("/db/rec").all()) == 2
        assert len(db.between(1, 2).changes("/").all()) == 2

    def test_history_and_shortcuts(self, backend):
        db = backend.db()
        path = "/db/dept[name=finance]/emp[fn=John, ln=Doe]"
        assert db.history(path).existence.to_text() == "3-4"
        assert db.first_appearance(path) == 3
        assert db.last_change(path + "/sal") == 4

    def test_bad_versions_raise(self, backend):
        db = backend.db()
        with pytest.raises(ArchiveError):
            db.at(99).select("/db")
        with pytest.raises(ArchiveError):
            db.at(0).select("/db")
        with pytest.raises(ArchiveError):
            db.between(1, 99).changes().all()

    def test_snapshot_matches_retrieve(self, backend):
        assert to_string(backend.db().at(3).snapshot()) == to_string(
            backend.retrieve(3)
        )


class TestMissingPathErrors:
    """Satellite: the same clear error on every backend."""

    PATH = "/db/dept[name=nowhere]/emp[fn=No, ln=One]"

    def test_backends_aligned(self, backend):
        db = backend.db()
        with pytest.raises(ArchiveError, match="never existed"):
            db.history(self.PATH)
        with pytest.raises(ArchiveError, match="never existed"):
            db.first_appearance(self.PATH)
        with pytest.raises(ArchiveError, match="never existed"):
            db.last_change(self.PATH)

    def test_memory_archive_aligned(self):
        db = repro.open(_memory_archive())
        with pytest.raises(ArchiveError, match="never existed"):
            db.first_appearance(self.PATH)


class TestPlanner:
    def test_key_equality_becomes_lookup(self):
        plan = compile_plan(
            "/db/dept[name='finance']/emp[fn='John'][ln='Doe']", parse_key_spec(KEYS)
        )
        assert plan.steps[1].lookup == (("name", "finance"),)
        assert plan.steps[2].lookup == (("fn", "John"), ("ln", "Doe"))
        assert plan.uses_index()

    def test_singleton_key_is_lookup(self):
        plan = compile_plan("/db/dept[name='x']/emp[fn='a'][ln='b']/sal", parse_key_spec(KEYS))
        assert plan.steps[3].lookup == ()

    def test_partial_key_scans(self):
        plan = compile_plan("/db/dept/emp[fn='John']", parse_key_spec(KEYS))
        assert plan.steps[2].lookup is None  # ln not pinned

    def test_position_disables_lookup(self):
        plan = compile_plan("/db/dept[name='x'][1]", parse_key_spec(KEYS))
        assert plan.steps[1].lookup is None

    def test_unindexed_predicate_is_residual(self):
        plan = compile_plan("/db/dept/emp[sal='90K']", parse_key_spec(KEYS))
        residuals = plan.steps[2].residuals()
        assert len(residuals) == 1

    def test_explain_mentions_lookup_and_fallback(self, backend):
        db = backend.db()
        lines = "\n".join(db.explain("/db/dept[name='x']/emp"))
        assert "key lookup" in lines
        fallback_lines = "\n".join(db.explain("/db"))
        if backend.kind == "chunked":
            assert "snapshot fallback" in fallback_lines

    def test_chunked_key_lookup_opens_only_owning_chunk(self, backend):
        if backend.kind != "chunked":
            pytest.skip("hash routing is a chunked-backend concern")
        result = backend.db().at(3).select("/db/dept[name='marketing']/emp")
        assert len(result.all()) == 1
        # The partition-level lookup routes to the one owning chunk;
        # every other chunk is never considered, let alone parsed.
        assert result.stats.chunks_routed_past == backend.part_count - 1

    def test_chunked_routed_miss_still_answers_exactly(self, backend):
        if backend.kind != "chunked":
            pytest.skip("hash routing is a chunked-backend concern")
        result = backend.db().at(3).select("/db/dept[name='nowhere']/emp")
        assert result.all() == []

    def test_stats_report_pruning(self, backend):
        if backend.kind == "file":
            pytest.skip("pruning counters are for partitioned/stream stores")
        result = backend.db().at(4).select("/db/dept[name='finance']/emp")
        result.all()
        if backend.kind == "chunked":
            assert result.stats.chunks_pruned + result.stats.tree_probes > 0
        if backend.kind == "external":
            assert result.stats.events_skipped > 0


class TestOpen:
    def test_open_path_owns_backend(self, tmp_path):
        path = str(tmp_path / "arch.xml")
        store = create_archive(path, KEYS)
        store.ingest_batch(parse_document(source) for source in VERSIONS)
        store.close()
        with repro.open(path) as db:
            assert db.kind == "file"
            assert db.last_version == 4
            assert len(db.at(4).select("//tel").all()) == 3

    def test_open_backend_and_archive(self, tmp_path):
        path = str(tmp_path / "arch.xml")
        store = create_archive(path, KEYS)
        store.add_version(parse_document(VERSIONS[0]))
        assert repro.open(store).kind == "file"
        assert repro.open(_memory_archive()).kind == "memory"

    def test_backend_db_entry_point(self, tmp_path):
        path = str(tmp_path / "arch")
        store = create_archive(path, KEYS, kind="external")
        store.add_version(parse_document(VERSIONS[0]))
        db = store.db()
        assert isinstance(db, ArchiveDB)
        assert db.kind == "external"

    def test_open_rejects_junk(self):
        with pytest.raises(ArchiveError):
            ArchiveDB(42)  # type: ignore[arg-type]


class TestConfigurations:
    """Compaction and fingerprinting change storage, not answers."""

    @pytest.mark.parametrize(
        "options",
        [
            ArchiveOptions(compaction=True),
            ArchiveOptions(fingerprinter=Fingerprinter(bits=64)),
            ArchiveOptions(fingerprinter=Fingerprinter(bits=2)),
            ArchiveOptions(fingerprinter=Fingerprinter(bits=64), compaction=True),
        ],
    )
    @pytest.mark.parametrize("expression", EXPRESSIONS[:8])
    def test_memory_configurations(self, options, expression):
        archive = Archive(parse_key_spec(KEYS), options)
        for source in VERSIONS:
            archive.add_version(parse_document(source))
        db = repro.open(archive)
        for version in range(1, archive.last_version + 1):
            snapshot = archive.retrieve(version)
            expected = evaluate(snapshot, expression).items
            got = db.at(version).select(expression).all()
            assert _rendered(got) == _rendered(expected)

    def test_chunked_with_fingerprinter_orders_by_key(self, tmp_path):
        options = ArchiveOptions(fingerprinter=Fingerprinter(bits=64))
        path = str(tmp_path / "fp")
        store = create_archive(path, KEYS, kind="chunked", chunk_count=4,
                               options=options)
        store.ingest_batch(parse_document(source) for source in VERSIONS)
        db = ArchiveDB(store)
        snapshot = store.retrieve(3)
        expected = evaluate(snapshot, "/db/dept").items
        got = db.at(3).select("/db/dept").all()
        assert _rendered(got) == _rendered(expected)
        store.close()


class TestCLIQuery:
    def _archive(self, tmp_path, kind="file"):
        import os

        path = str(tmp_path / ("a.xml" if kind == "file" else "a"))
        keys_path = str(tmp_path / "keys.txt")
        with open(keys_path, "w", encoding="utf-8") as handle:
            handle.write(KEYS)
        version_dir = tmp_path / "versions"
        os.makedirs(version_dir, exist_ok=True)
        for number, source in enumerate(VERSIONS, start=1):
            (version_dir / f"v{number:02d}.xml").write_text(source)
        from repro.cli import main

        assert (
            main(
                [
                    "ingest",
                    path,
                    str(version_dir),
                    "--keys",
                    keys_path,
                    "--backend",
                    kind,
                ]
            )
            == 0
        )
        return path

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_query_at(self, tmp_path, capsys, kind):
        from repro.cli import main

        path = self._archive(tmp_path, kind)
        capsys.readouterr()  # drop the ingest chatter
        assert main(["query", path, "//tel/text()", "--at", "4"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert sorted(out) == ["112-3456", "123-4567", "123-6789"]

    def test_query_defaults_to_latest(self, tmp_path, capsys):
        from repro.cli import main

        path = self._archive(tmp_path)
        capsys.readouterr()  # drop the ingest chatter
        assert main(["query", path, "/db/dept/name/text()"]) == 0
        assert capsys.readouterr().out.strip() == "finance"

    def test_query_between(self, tmp_path, capsys):
        from repro.cli import main

        path = self._archive(tmp_path)
        capsys.readouterr()  # drop the ingest chatter
        assert main(["query", path, "/", "--between", "3", "4"]) == 0
        out = capsys.readouterr().out
        assert "deleted /db/dept[name=marketing]" in out

    def test_query_explain_and_stats(self, tmp_path, capsys):
        from repro.cli import main

        path = self._archive(tmp_path)
        capsys.readouterr()  # drop the ingest chatter
        assert main(["query", path, "/db/dept[name='x']", "--explain"]) == 0
        assert "key lookup" in capsys.readouterr().out
        assert main(["query", path, "//tel", "--at", "4", "--stats"]) == 0
        captured = capsys.readouterr()
        assert "planned over the archive tree" in captured.err
