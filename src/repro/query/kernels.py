"""Vectorized structural kernels over the pre/size/level columns.

The executor's structural operators: ``ancestor_walk`` finds the
context nodes from which an operand path reaches a batch of index hits,
and ``structural_verify`` keeps the candidates an absolute path
selects.  Both operate on sorted numpy ``pre`` arrays and reduce every
axis question to integer arithmetic on the shredded columns:

* parent — one gather from the ``parent_pre`` plane;
* ancestors — O(depth) parent gathers with per-level dedup;
* "has an ancestor in S" — the containment interval
  ``anc < pre <= anc + size[anc]`` probed with ``searchsorted`` plus a
  prefix maximum over subtree ends (intervals nest, so the running max
  is exact);
* node tests — boolean masks over the ``kind``/``name_id`` columns.

Steps that carry their own nested predicates fall back to
``_predicate_holds`` per *surviving* node — batches shrink before the
fallback runs, so the per-node work is bounded by the candidate set,
not the document.  Agreement with the naive evaluator is enforced by
``tests/query/test_vectorized_equivalence.py`` and the randomized
kernel property suite.
"""

from __future__ import annotations

import numpy as np

from ..xmldb.document import ATTR, ELEM, TEXT, Document
from ..xmldb.columns import EMPTY_PRES, DocColumns
from .ast import (
    AnyTest,
    AttributeTest,
    NameTest,
    SelfTest,
    Step,
    TextTest,
    WildcardTest,
)
from .evaluator import _predicate_holds

__all__ = ["match_test", "ancestor_walk", "structural_verify", "kway_merge"]


def kway_merge(arrays: "list[np.ndarray]") -> "np.ndarray":
    """Merge sorted int64 key arrays into one sorted array.

    The gather half of scatter-gather: each shard returns its hits as a
    sorted key array (``global_doc_index << 40 | pre`` — documents are
    whole-shard-resident, so the per-shard arrays are already in global
    order and, placements being disjoint, duplicate-free across
    shards).  Pairwise merges proceed tournament-style so every element
    moves O(log k) times; each pairwise merge is a vectorized
    searchsorted + slot scatter, not an elementwise Python loop.
    """
    arrays = [a for a in arrays if a.size]
    if not arrays:
        return np.empty(0, dtype=np.int64)
    while len(arrays) > 1:
        merged = []
        for i in range(0, len(arrays) - 1, 2):
            left, right = arrays[i], arrays[i + 1]
            out = np.empty(left.size + right.size, dtype=np.int64)
            # Positions of right's elements in the merged output: their
            # own index plus how many left elements precede them.
            right_slots = (
                np.searchsorted(left, right, side="left")
                + np.arange(right.size)
            )
            mask = np.ones(out.size, dtype=bool)
            mask[right_slots] = False
            out[right_slots] = right
            out[mask] = left
            merged.append(out)
        if len(arrays) % 2:
            merged.append(arrays[-1])
        arrays = merged
    return arrays[0]


def match_test(
    doc: Document, cols: DocColumns, pres: "np.ndarray", test
) -> "np.ndarray":
    """Boolean mask over ``pres``: which nodes satisfy the node test?"""
    if isinstance(test, NameTest):
        name_id = doc.vocabulary.lookup(test.name)
        if name_id is None:
            return np.zeros(pres.size, dtype=bool)
        return (cols.kind[pres] == ELEM) & (cols.name_id[pres] == name_id)
    if isinstance(test, WildcardTest):
        return cols.kind[pres] == ELEM
    if isinstance(test, TextTest):
        return cols.kind[pres] == TEXT
    if isinstance(test, AttributeTest):
        mask = cols.kind[pres] == ATTR
        if test.name != "*":
            name_id = doc.vocabulary.lookup(test.name)
            if name_id is None:
                return np.zeros(pres.size, dtype=bool)
            mask &= cols.name_id[pres] == name_id
        return mask
    if isinstance(test, (SelfTest, AnyTest)):
        return np.ones(pres.size, dtype=bool)
    raise TypeError(f"unknown node test {test!r}")


def _step_filter(
    doc: Document,
    cols: DocColumns,
    pres: "np.ndarray",
    step: Step,
    skip_predicate=None,
) -> "np.ndarray":
    """Nodes of ``pres`` matching the step's test and predicates
    (``skip_predicate`` excluded — the index already answered it)."""
    if pres.size == 0:
        return pres
    pres = pres[match_test(doc, cols, pres, step.test)]
    for predicate in step.predicates:
        if predicate is skip_predicate or pres.size == 0:
            continue
        keep = np.fromiter(
            (_predicate_holds(doc, int(pre), predicate) for pre in pres),
            dtype=bool,
            count=pres.size,
        )
        pres = pres[keep]
    return pres


def ancestor_walk(
    doc: Document,
    cols: DocColumns,
    hits: "np.ndarray",
    steps: tuple[Step, ...],
) -> "np.ndarray":
    """The sorted unique context pres from which the operand ``steps``
    can select some node in ``hits``.

    Walks the steps backwards: the frontier is filtered by the current
    step's test/predicates, then expanded to its predecessors (parents
    for the child axis, the ancestor closure for descendant, itself for
    self).  The predecessors reached past step 0 are the contexts.
    """
    frontier = hits
    for idx in range(len(steps) - 1, -1, -1):
        step = steps[idx]
        frontier = _step_filter(doc, cols, frontier, step)
        if frontier.size == 0:
            return EMPTY_PRES
        if step.axis == "child":
            predecessors = cols.parents_of(frontier)
        elif step.axis == "descendant":
            predecessors = cols.ancestors_of(frontier)
        else:  # self
            predecessors = frontier
        if idx == 0:
            return predecessors
        frontier = predecessors
    return EMPTY_PRES  # pragma: no cover - loop always returns


def structural_verify(
    doc: Document,
    cols: DocColumns,
    candidates: "np.ndarray",
    steps: tuple[Step, ...],
    skip_predicate,
) -> "np.ndarray":
    """The candidates selectable by the absolute ``steps`` from the
    document node.

    Restricts work to the ancestor closure of the candidate batch and
    sweeps the steps *forwards* over it: ``matched`` holds the closure
    nodes reachable by ``steps[:idx+1]``; a child step requires the
    parent in the previous front, a descendant step requires *some*
    strict ancestor in it (interval stabbing, no tree walking).  The
    closure is ancestor-closed, so every chain that selects a
    candidate lives entirely inside it.
    """
    if candidates.size == 0:
        return EMPTY_PRES
    if len(steps) == 1:
        # Single-step path (``//item[...]``): the verify touches only
        # the candidates themselves — no closure, no final intersect.
        step = steps[0]
        mask = match_test(doc, cols, candidates, step.test)
        if step.axis == "child":
            mask &= cols.parent_pre[candidates] == 0
        else:  # descendant (self never starts an absolute path)
            mask &= candidates != 0
        matched = candidates[mask]
        for predicate in step.predicates:
            if predicate is skip_predicate or matched.size == 0:
                continue
            keep = np.fromiter(
                (
                    _predicate_holds(doc, int(pre), predicate)
                    for pre in matched
                ),
                dtype=bool,
                count=matched.size,
            )
            matched = matched[keep]
        return matched
    closure = np.union1d(candidates, cols.ancestors_of(candidates))
    matched = EMPTY_PRES
    for idx, step in enumerate(steps):
        mask = match_test(doc, cols, closure, step.test)
        if idx == 0:
            if step.axis == "child":
                mask &= cols.parent_pre[closure] == 0
            else:  # descendant (self never starts an absolute path)
                mask &= closure != 0
        elif step.axis == "child":
            mask &= cols.parent_in(matched, closure)
        else:
            # descendant — any other axis resolves through the
            # ancestor closure too.
            mask &= cols.has_ancestor_in(matched, closure)
        matched = closure[mask]
        if matched.size == 0:
            return EMPTY_PRES
        for predicate in step.predicates:
            if predicate is skip_predicate:
                continue
            keep = np.fromiter(
                (
                    _predicate_holds(doc, int(pre), predicate)
                    for pre in matched
                ),
                dtype=bool,
                count=matched.size,
            )
            matched = matched[keep]
            if matched.size == 0:
                return EMPTY_PRES
    return np.intersect1d(candidates, matched, assume_unique=False)
