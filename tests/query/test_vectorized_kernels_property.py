"""Randomized differential tests for the batch structural kernels.

Generates seeded adversarial documents — deep single-child chains,
wide flat fanouts, mixed element/attribute/text shapes with heavy tag
reuse — and checks the numpy kernels against brute force over the
naive evaluator, node for node:

* ``ancestor_walk``  ≡ every pre ``c`` whose ``evaluate_path(doc, [c],
  steps)`` reaches the hit set;
* ``structural_verify`` ≡ the candidates inside
  ``evaluate_path(doc, [0], steps)``;
* full ``query()`` (index plans and scan plans) ≡ ``evaluate_naive``.

(The two kernel tests keep their historical ``*_scalar_recursion``
names; the reference they check against is the naive evaluator.)

Tag reuse is the adversarial ingredient: the same name appearing at
many depths produces overlapping containment intervals, which is
exactly what the prefix-maximum interval stabbing must get right.
"""

import random

import numpy as np
import pytest

from repro.core import IndexManager
from repro.query import evaluate_naive, parse_query, query
from repro.query.ast import (
    AttributeTest,
    NameTest,
    Step,
    TextTest,
    WildcardTest,
)
from repro.query.evaluator import evaluate_path
from repro.query.kernels import ancestor_walk, structural_verify

TAGS = ("a", "b", "c", "d")
ATTRS = ("x", "y")


def _random_xml(rng: random.Random, budget: int) -> str:
    """One adversarial document: recursive, tag-poor, mixed-kind."""

    def element(depth: int, budget: int) -> tuple[str, int]:
        tag = rng.choice(TAGS)
        attrs = ""
        if rng.random() < 0.3:
            attrs = f' {rng.choice(ATTRS)}="{rng.randint(0, 9)}"'
        children = []
        budget -= 1
        # Bias the shape: long chains at low fanout rolls, wide
        # fanouts otherwise — both extremes stress the interval maths.
        fanout = rng.choice((1, 1, 1, 2, 2, 3, 8))
        for _ in range(fanout):
            if budget <= 0:
                break
            if rng.random() < 0.35:
                children.append(str(rng.randint(0, 99)))
            else:
                child, budget = element(depth + 1, budget)
                children.append(child)
        return f"<{tag}{attrs}>{''.join(children)}</{tag}>", budget

    body, _ = element(0, budget)
    return f"<root>{body}</root>"


def _random_steps(rng: random.Random) -> tuple[Step, ...]:
    steps = []
    for idx in range(rng.randint(1, 4)):
        axis = "descendant" if idx == 0 or rng.random() < 0.5 else "child"
        roll = rng.random()
        if roll < 0.6:
            test = NameTest(rng.choice(TAGS + ("root", "zzz")))
        elif roll < 0.75:
            test = WildcardTest()
        elif roll < 0.9:
            test = AttributeTest(rng.choice(ATTRS + ("*",)))
        else:
            test = TextTest()
        steps.append(Step(axis=axis, test=test))
    return tuple(steps)


def _load(rng: random.Random, budget: int = 60):
    manager = IndexManager(string=True, typed=("double",))
    manager.load("doc", _random_xml(rng, budget))
    doc = manager.store.document("doc")
    return manager, doc, doc.columns()


@pytest.mark.parametrize("seed", range(25))
def test_ancestor_walk_matches_scalar_recursion(seed):
    rng = random.Random(seed)
    manager, doc, cols = _load(rng)
    all_pres = np.arange(len(doc), dtype=np.int64)
    for _ in range(8):
        steps = _random_steps(rng)
        hits = np.sort(
            rng.sample(range(len(doc)), rng.randint(0, min(12, len(doc))))
        ).astype(np.int64) if len(doc) else all_pres[:0]
        hit_set = set(hits.tolist())
        expected = [
            context
            for context in range(len(doc))
            if hit_set.intersection(evaluate_path(doc, [context], steps))
        ]
        got = ancestor_walk(doc, cols, hits, steps)
        assert got.tolist() == expected, (seed, steps)


@pytest.mark.parametrize("seed", range(25))
def test_structural_verify_matches_scalar_recursion(seed):
    rng = random.Random(1000 + seed)
    manager, doc, cols = _load(rng)
    for _ in range(8):
        steps = _random_steps(rng)
        candidates = np.sort(
            rng.sample(range(len(doc)), rng.randint(0, min(15, len(doc))))
        ).astype(np.int64)
        selected = set(evaluate_path(doc, [0], steps))
        expected = [pre for pre in candidates.tolist() if pre in selected]
        got = structural_verify(doc, cols, candidates, steps, None)
        assert got.tolist() == expected, (seed, steps)


#: Query templates exercising index routes over the adversarial docs.
QUERY_TEMPLATES = (
    "//{t}[{u} = {n}]",
    "//{t}[{u} > {n}]",
    "//{t}[{u} >= {n} and {u} < {m}]",
    "//{t}[@{a} = '{n}']",
    "//{t}[.//{u} = {n}]",
    "//{t}/{u}",
    "//{t}[{u} = {n} or @{a} = '{m}']",
)


@pytest.mark.parametrize("seed", range(15))
def test_full_query_equivalence_on_random_docs(seed):
    rng = random.Random(2000 + seed)
    manager, doc, cols = _load(rng, budget=120)
    for template in QUERY_TEMPLATES:
        text = template.format(
            t=rng.choice(TAGS),
            u=rng.choice(TAGS),
            a=rng.choice(ATTRS),
            n=rng.randint(0, 99),
            m=rng.randint(0, 99),
        )
        indexed = query(manager, text)
        scanned = query(manager, text, use_indexes=False)
        parsed = parse_query(text)
        naive = [doc.nid[pre] for pre in evaluate_naive(doc, parsed.path)]
        assert indexed == scanned == naive, (seed, text)
