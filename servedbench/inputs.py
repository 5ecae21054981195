"""Seeded inputs for the served-path benchmark.

Every input is a pure function of ``--seed``: each label (corpus
dataset, query pool, update stream, ingest stream) draws from its own
``random.Random(f"{seed}/{label}")``, so adding draws to one stream
never shifts another.  The program under test receives only what this
module yields: XML strings and ops.

The update stream names text nodes by nid.  nids are minted in load
order, so they are read off a :class:`repro.xmldb.store.Store` that
shreds the corpus in the order the benchmark loads it.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from typing import Iterator

from repro.workloads import (
    QUERY_SETS,
    generate_dblp,
    generate_epageo,
    generate_psd,
    generate_wiki,
    generate_xmark,
    random_text_updates,
    text_nids,
)
from repro.xmldb.store import Store

__all__ = [
    "CORPUS_SCALE", "DATASETS", "LITERALS_PER_TEMPLATE", "READBACK_EVERY",
    "Template", "corpus", "templates", "query_pool", "lookup_stream",
    "update_stream", "ingest_stream", "ingest_ops", "rng",
]

#: Generator scale of the resident corpus (~1 MiB of XML in total).
CORPUS_SCALE = 0.12

#: The resident corpus, in load order.
DATASETS = ("XMark1", "DBLP", "PSD", "Wiki", "EPAGeo")

_GENERATORS = {
    "XMark1": generate_xmark,
    "DBLP": generate_dblp,
    "PSD": generate_psd,
    "Wiki": generate_wiki,
    "EPAGeo": generate_epageo,
}

#: Per-generator scale of an ingest document (each ~10 KiB of XML).
INGEST_SCALES = {
    "XMark1": 0.07, "DBLP": 0.01, "PSD": 0.006, "Wiki": 0.002,
    "EPAGeo": 0.05,
}

#: Query texts per template in the lookup pool: 23 x 48 = 1104 texts.
#: Plan-cache entries are per (text, document), so the pool spans ~20x
#: PLAN_CACHE_SIZE (256 entries).
LITERALS_PER_TEMPLATE = 48

#: Zipf exponent of the skewed draw over a template's texts.
ZIPF_S = 1.0

#: One update in READBACK_EVERY is followed by an equality read-back
#: of the value it wrote (1 op in 5 when READBACK_EVERY is 4).
READBACK_EVERY = 4

#: Ingest documents resident at once; loading one more unloads the
#: oldest, so per-load checkpoint cost does not drift with run length.
INGEST_WINDOW = 4

#: Updates drawn per resident document per round of the update stream.
UPDATES_PER_ROUND = 400

_LITERAL = re.compile(
    r'(?P<operand>[@\w.:/-]+?)\s*(?P<op><=|>=|=|<|>)\s*'
    r'(?P<literal>"[^"]*"|-?[\d.]+)'
)
_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def rng(seed: int, label: str) -> random.Random:
    """The derived random stream for ``label``."""
    return random.Random(f"{seed}/{label}")


def _derived_seed(seed: int, label: str) -> int:
    return rng(seed, label).getrandbits(31)


def corpus(seed: int) -> list[tuple[str, str]]:
    """``(name, xml)`` of the five resident documents."""
    return [
        (name, _GENERATORS[name](CORPUS_SCALE,
                                 seed=_derived_seed(seed, f"corpus.{name}")))
        for name in DATASETS
    ]


# ---------------------------------------------------------------------------
# Query templates: QUERY_SETS texts with their literals as slots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Template:
    """One QUERY_SETS query with each literal cut out as a slot."""

    dataset: str
    text: str
    parts: tuple[str, ...]           # len(slots) + 1 text pieces
    slots: tuple[tuple[str, str, bool], ...]  # (field, op, quoted)

    def fill(self, literals: list[str]) -> str:
        out = [self.parts[0]]
        for literal, part in zip(literals, self.parts[1:]):
            out += [literal, part]
        return "".join(out)


def templates() -> list[Template]:
    """The 23 value-predicate templates of the resident datasets."""
    result = []
    for dataset in DATASETS:
        for _desc, text in QUERY_SETS[dataset]:
            parts, slots, last = [], [], 0
            for match in _LITERAL.finditer(text):
                field = match["operand"].rsplit("/", 1)[-1]
                parts.append(text[last:match.start("literal")])
                slots.append((field, match["op"],
                              match["literal"].startswith('"')))
                last = match.end("literal")
            parts.append(text[last:])
            result.append(Template(dataset, text, tuple(parts), tuple(slots)))
    return result


def _field_values(xml: str, field: str, quoted: bool) -> list[str]:
    """Values of an element (``name``) or attribute (``@name``) field
    in ``xml`` — the literals a template slot draws from.  Numeric
    slots keep only values the query grammar reads as numbers."""
    if field.startswith("@"):
        pattern = rf'\s{re.escape(field[1:])}="([^"]*)"'
    else:
        name = re.escape(field)
        pattern = rf"<{name}(?:\s[^>]*)?>([^<\"]*)</{name}>"
    values = re.findall(pattern, xml)
    if not quoted:
        values = [v for v in values if _NUMBER.fullmatch(v)]
    return values


def _literal(value: str, quoted: bool) -> str:
    return f'"{value}"' if quoted else value


def _fill(template: Template, pools: dict, r: random.Random) -> str:
    """Draw one literal per slot.  A lower and an upper bound on the
    same field are drawn as a sorted pair, so a two-sided range holds
    anything from one value to the whole field."""
    literals: list[str | None] = [None] * len(template.slots)
    lows = [i for i, (_f, op, _q) in enumerate(template.slots)
            if op in (">", ">=")]
    highs = [i for i, (_f, op, _q) in enumerate(template.slots)
             if op in ("<", "<=")]
    for lo in lows:
        for hi in highs:
            if (literals[lo] is None and literals[hi] is None
                    and template.slots[lo][0] == template.slots[hi][0]):
                pool = pools[template.dataset, template.slots[lo][0], False]
                a, b = sorted((r.choice(pool), r.choice(pool)), key=float)
                literals[lo], literals[hi] = a, b
    for i, (field, _op, quoted) in enumerate(template.slots):
        if literals[i] is None:
            literals[i] = r.choice(pools[template.dataset, field, quoted])
    return template.fill([
        _literal(value, quoted)
        for value, (_f, _op, quoted) in zip(literals, template.slots)
    ])


def _pools(xml_by_dataset: dict[str, str],
           template_list: list[Template]) -> dict:
    pools: dict = {}
    for template in template_list:
        xml = xml_by_dataset[template.dataset]
        original = _LITERAL.findall(template.text)
        for (field, _op, quoted), (_operand, _o, literal) in zip(
                template.slots, original):
            values = _field_values(xml, field, quoted)
            # A field the generated text lacks keeps its original literal.
            pools.setdefault((template.dataset, field, quoted),
                             values or [literal.strip('"')])
    return pools


def query_pool(seed: int, docs: list[tuple[str, str]]) -> list[list[str]]:
    """:data:`LITERALS_PER_TEMPLATE` texts per template (a template with
    fewer literal combinations repeats some)."""
    r = rng(seed, "queries")
    template_list = templates()
    pools = _pools(dict(docs), template_list)
    return [[_fill(template, pools, r) for _ in range(LITERALS_PER_TEMPLATE)]
            for template in template_list]


def lookup_stream(seed: int, pool: list[list[str]]) -> Iterator[tuple]:
    """Endless ``("query", text, None)`` ops: every template once per
    round, in a fresh seeded order each round, each with a literal
    drawn Zipf-skewed from its own texts.  The template mix is the
    same for every seed; the skew is over literals."""
    r = rng(seed, "lookup")
    weights = list(itertools.accumulate(
        1.0 / (rank + 1) ** ZIPF_S for rank in range(LITERALS_PER_TEMPLATE)))
    order = list(range(len(pool)))
    while True:
        r.shuffle(order)
        for t in order:
            yield ("query", r.choices(pool[t], cum_weights=weights)[0], None)


# ---------------------------------------------------------------------------
# Update stream (Figure 10 method) with equality read-backs
# ---------------------------------------------------------------------------


def _readback(doc, pre: int, value: str) -> str:
    element = doc.name_of(doc.parent(pre))
    literal = value if _NUMBER.fullmatch(value) else f'"{value}"'
    return f'doc("{doc.name}")//{element}[text() = {literal}]'


def update_stream(seed: int, docs: list[tuple[str, str]]) -> Iterator[tuple]:
    """Endless ``("update", document, nid, text)`` ops, each round
    drawing :data:`UPDATES_PER_ROUND` random text nodes per document
    with :func:`repro.workloads.random_text_updates`; about one update
    in :data:`READBACK_EVERY` is followed by ``("query", text,
    document)`` reading the written value back."""
    store = Store()
    for name, xml in docs:
        store.add_document(name, xml)
    r = rng(seed, "updates")
    for _round in itertools.count():
        batch = []
        for name, _xml in docs:
            doc = store.document(name)
            count = min(UPDATES_PER_ROUND, len(text_nids(doc)))
            batch += [(name, nid, text) for nid, text in
                      random_text_updates(doc, count, r)]
        r.shuffle(batch)
        for name, nid, text in batch:
            yield ("update", name, nid, text)
            if r.randrange(READBACK_EVERY) == 0:
                doc, pre = store.node(nid)
                yield ("query", _readback(doc, pre, text), name)


# ---------------------------------------------------------------------------
# Ingest stream
# ---------------------------------------------------------------------------


def ingest_stream(seed: int) -> Iterator[tuple[str, str, str]]:
    """Endless ``(name, xml, query)`` documents rotating through the
    five generators.  ``query`` rotates through the dataset's
    templates in a fixed order (the same query mix for every seed),
    with literals drawn from the document itself, restricted to it."""
    r = rng(seed, "ingest")
    by_dataset: dict[str, list[Template]] = {}
    for template in templates():
        by_dataset.setdefault(template.dataset, []).append(template)
    for i in itertools.count():
        dataset = DATASETS[i % len(DATASETS)]
        name = f"ingest{i:06d}"
        xml = _GENERATORS[dataset](INGEST_SCALES[dataset],
                                   seed=_derived_seed(seed, f"ingest.{i}"))
        choices = by_dataset[dataset]
        template = choices[i // len(DATASETS) % len(choices)]
        text = _fill(template, _pools({dataset: xml}, [template]), r)
        yield name, xml, f'doc("{name}"){text}'


def ingest_ops(seed: int) -> Iterator[tuple]:
    """Endless ingest ops: ``("load", name, xml)``, then ``("query",
    text, name)``, then — once more than :data:`INGEST_WINDOW`
    documents are resident — ``("unload", oldest)``."""
    resident: list[str] = []
    for name, xml, text in ingest_stream(seed):
        yield ("load", name, xml)
        yield ("query", text, name)
        resident.append(name)
        if len(resident) > INGEST_WINDOW:
            yield ("unload", resident.pop(0))
