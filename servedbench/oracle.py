"""The correctness gate: ``evaluate_naive`` over an in-process copy.

The copy is a bare :class:`repro.xmldb.store.Store` (no indices) fed
the same loads, unloads and text updates as the cluster, in the order
the cluster acknowledged them.  It mints nids the same way, so an
answer is compared as whole ``(document, pre, nid)`` rows in global
document order — the order the coordinator merges into.
"""

from __future__ import annotations

from repro.query import evaluate_naive, parse_query
from repro.query.ast import NameTest
from repro.xmldb.document import ELEM
from repro.xmldb.store import Store

__all__ = ["Oracle"]


class Oracle:
    def __init__(self, docs: list[tuple[str, str]]):
        self.store = Store()
        self._element_names: dict[str, frozenset[str]] = {}
        for name, xml in docs:
            self.load(name, xml)

    def load(self, name: str, xml: str) -> None:
        doc = self.store.add_document(name, xml)
        self._element_names[name] = frozenset(
            doc.name_of(pre) for pre in range(len(doc))
            if doc.kind[pre] == ELEM)

    def unload(self, name: str) -> None:
        self.store.remove_document(name)
        del self._element_names[name]

    def update_text(self, nid: int, text: str) -> None:
        self.store.update_text(nid, text)

    def rows(self, text: str, document: str | None = None) -> list[tuple]:
        parsed = parse_query(text)
        name = parsed.document or document
        docs = ([self.store.document(name)] if name is not None
                else list(self.store.documents.values()))
        first = parsed.path.steps[0].test
        rows = []
        for doc in docs:
            # Every answer lies at or below a node the first step
            # matches; a document without that element name has none.
            if (isinstance(first, NameTest)
                    and first.name not in self._element_names[doc.name]):
                continue
            rows += [(doc.name, pre, doc.nid[pre])
                     for pre in evaluate_naive(doc, parsed.path)]
        return rows
