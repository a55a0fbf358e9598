"""The benchmark's inputs and the answers it expects for them.

Releases come from :class:`repro.data.OmimGenerator` under the run's
seed.  Expected answers are computed from the generated releases alone,
never from an archive: see :class:`Truth`.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Optional

import repro
from repro import xmltree
from repro.core.tempquery import keyed_diff
from repro.core.versionset import VersionSet
from repro.data import OmimGenerator
from repro.data.omim import omim_key_spec
from repro.xmltree.model import Element
from repro.xmltree.xpath import evaluate


def releases(seed: int, records: int, count: int) -> Iterator[Element]:
    """``count`` successive releases, holding only the previous one."""
    generator = OmimGenerator(seed=seed, initial_records=records)
    doc = generator.initial_version()
    yield doc
    for _ in range(count - 1):
        doc = generator.next_version(doc)
        yield doc


def generate(seed: int, records: int, count: int) -> tuple[list[Element], list[str]]:
    """``count`` successive releases as trees and as XML text."""
    docs = list(releases(seed, records, count))
    return docs, [xmltree.to_string(doc) for doc in docs]


def _num(record: Element) -> str:
    return record.find("Num").text_content()


def _titles_by_num(doc: Element) -> dict[str, list[str]]:
    return {
        _num(record): [title.text_content() for title in record.find_all("Title")]
        for record in doc.element_children()
    }


def title_query(num: str) -> str:
    return f"/ROOT/Record[Num='{num}']/Title/text()"


def title_path(num: str) -> str:
    return f"/ROOT/Record[Num={num}]/Title"


def change_tuples(changes) -> list[tuple]:
    return sorted(
        (change.kind, change.path, change.old_content, change.new_content)
        for change in changes
    )


def history_tuple(history) -> tuple:
    return (
        history.existence.to_text(),
        sorted((stamps.to_text(), content) for stamps, content in history.changes or []),
    )


class Truth:
    """Expected answers computed from the generated releases alone.

    * a select is the XPath evaluated on the generated release;
    * a ``Title`` history is read off the releases that hold the record;
    * changes between two releases are their keyed comparison
      (:func:`repro.core.tempquery.keyed_diff`) restricted to the
      records whose serialization differs;
    * a retrieved version must normalize like the generated release.
    """

    def __init__(self, docs: list[Element]) -> None:
        self.spec = omim_key_spec()
        self.docs = docs
        self.titles = [_titles_by_num(doc) for doc in docs]
        self._select: dict = {}
        self._changes: dict = {}
        self._normalized: dict = {}

    def nums(self, version: int) -> list[str]:
        return list(self.titles[version - 1])

    def select(self, version: int, expression: str) -> list[str]:
        key = (version, expression)
        if key not in self._select:
            self._select[key] = evaluate(self.docs[version - 1], expression).items
        return self._select[key]

    def history(self, num: str, last: int) -> tuple:
        existence = VersionSet()
        reigns: dict[str, VersionSet] = {}
        for version in range(1, last + 1):
            titles = self.titles[version - 1].get(num)
            if titles is None:
                continue
            existence.add(version)
            for title in titles:
                reigns.setdefault(title, VersionSet()).add(version)
        return (
            existence.to_text(),
            sorted((stamps.to_text(), title) for title, stamps in reigns.items()),
        )

    def changes(self, old: int, new: int) -> list[tuple]:
        key = (old, new)
        if key not in self._changes:
            before = {_num(r): r for r in self.docs[old - 1].element_children()}
            after = {_num(r): r for r in self.docs[new - 1].element_children()}
            differing = {
                num
                for num in before.keys() | after.keys()
                if num not in before
                or num not in after
                or xmltree.to_string(before[num]) != xmltree.to_string(after[num])
            }
            report = keyed_diff(
                _restricted(self.docs[old - 1], differing),
                _restricted(self.docs[new - 1], differing),
                self.spec,
            )
            self._changes[key] = change_tuples(report.changes)
        return self._changes[key]

    def normalized(self, version: int) -> str:
        if version not in self._normalized:
            self._normalized[version] = normalized_digest(self.docs[version - 1])
        return self._normalized[version]


def _restricted(doc: Element, nums: set) -> Element:
    root = Element(doc.tag)
    for record in doc.element_children():
        if _num(record) in nums:
            root.append(record.copy())
    return root


def normalized_digest(doc: Optional[Element]) -> str:
    if doc is None:
        return ""
    text = repro.normalize_document(doc, omim_key_spec())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
