"""The plan executor: sorted numpy row-id pipelines.

Runs the plans built by :mod:`repro.query.planner` against one
document.  Operators exchange :class:`RowBatch` objects — sorted,
duplicate-free numpy ``pre`` arrays — and the structural operators
run the merge/interval kernels of :mod:`repro.query.kernels`:

* ``IndexLookup`` maps the index's nids to owned pres with one
  ``searchsorted`` over the document's sorted nid plane;
* ``AncestorWalk`` / ``StructuralVerify`` become O(depth) batched
  column gathers plus interval stabbing (``anc < pre <= anc + size``);
* ``Intersect`` / ``Union`` are single ``np.intersect1d`` /
  ``np.union1d`` merges.

Each operator records its output cardinality and (inclusive) wall time
into an ``actuals`` dict keyed by the node's ``op_id``; the manager's
metrics registry receives aggregate counters.

**Sortedness invariant**: every batch handed between operators is
sorted ascending with no duplicates.  All kernels both rely on it
(binary-search probes) and preserve it, so no operator ever re-sorts.

**Equivalence**: whatever the plan shape, the result equals
:func:`repro.query.evaluator.evaluate_naive` — index operators only
*narrow the candidate set*, and ``StructuralVerify`` re-establishes the
full path structure before a node is emitted.  It normally re-checks
the full predicate with ``_predicate_holds`` on the (already narrowed)
survivors; parts of that re-check are skipped when the plan shape
proves them redundant.
The base case: an ``AncestorWalk`` over an ``IndexLookup`` whose driver
*is* an atomic predicate guarantees that predicate for every candidate
it emits (each candidate, by construction, reaches an exact, verified
index hit through the operand path), provided the operand path carries
no positional predicate (whose per-context counting the existential
walk cannot reproduce).  The guarantee propagates structurally: an
``Intersect`` guarantees whatever *any* child guarantees (its output is
a subset of each child's), a ``Union`` guarantees what *all* children
guarantee, and an ``or`` predicate is guaranteed once any disjunct is.
For ``and`` predicates the re-check shrinks to the *residual*
conjuncts the plan does not prove — e.g. ``[a >= x and a < y]``
planned as an intersection of two range walks needs no re-check at
all, while a partially covered conjunction re-checks only the
uncovered conjuncts.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.manager import IndexManager
from ..xmldb.columns import EMPTY_PRES, DocColumns
from ..xmldb.document import ATTR, TEXT, Document
from ..xmldb.mvcc import read_epoch
from .ast import BooleanExpr, FunctionPredicate, PositionPredicate
from .evaluator import _predicate_holds, evaluate_naive
from .kernels import ancestor_walk, structural_verify
from .plan import (
    AncestorWalk,
    FullScan,
    IndexLookup,
    Intersect,
    PlanNode,
    StructuralVerify,
    Union,
)

__all__ = ["RowBatch", "execute_plan", "run_vectorized"]


class RowBatch:
    """Sorted, duplicate-free ``pre`` row ids flowing between operators.

    ``pres`` is an int64 array in ascending order; ``doc`` is the owning
    document (batches never mix documents — the planner executes per
    document).  Operators that need values gather them from the
    document's column snapshot by ``pres``, so the batch itself stays
    one flat array.
    """

    __slots__ = ("pres", "doc")

    def __init__(self, pres: "np.ndarray", doc: Document | None = None):
        self.pres = pres
        self.doc = doc

    def __len__(self) -> int:
        return int(self.pres.size)

    def to_pres(self) -> list[int]:
        """Plain Python ints (the executor's external contract)."""
        return [int(pre) for pre in self.pres]


def _string_equal_pres(
    manager: IndexManager, doc: Document, cols: DocColumns, value: str
) -> "np.ndarray":
    """Owned pres whose XDM string value equals ``value``.

    Batch counterpart of ``manager.lookup_string``: one leaf-slice
    scan of the hash bucket, nid→pre mapping via ``searchsorted``
    (which also drops other documents' nids), then collision
    verification per *kind* — leaf nodes compare their heap slot
    directly (no per-node resolution through the store), containers
    fall back to ``string_value``.  Under an active MVCC overlay with
    a pinned epoch all verification goes through ``string_value`` so
    the reader sees its snapshot's values.
    """
    index = manager.string_index
    pres = cols.pres_of_nids(
        index.candidate_nids(value), assume_unique=True
    )
    if pres.size == 0:
        return pres
    if doc.text_overlay is not None and read_epoch() is not None:
        keep = np.fromiter(
            (doc.string_value(int(pre)) == value for pre in pres),
            dtype=bool,
            count=pres.size,
        )
        return pres[keep]
    kinds = cols.kind[pres]
    leaf = (kinds == TEXT) | (kinds == ATTR)
    keep = np.empty(pres.size, dtype=bool)
    texts = doc.texts
    leaf_slots = cols.text_id[pres[leaf]].tolist()
    keep[leaf] = [texts[slot] == value for slot in leaf_slots]
    container = ~leaf
    if container.any():
        keep[container] = _container_values_equal(
            doc, cols, pres[container], value
        )
    return pres[keep]


def _container_values_equal(
    doc: Document, cols: DocColumns, pres: "np.ndarray", value: str
) -> "np.ndarray":
    """Boolean mask: does each container node's XDM string value equal
    ``value``?

    Document/element values concatenate their TEXT descendants.  The
    dominant shape — an element wrapping exactly one text node (every
    field element of the workloads) — is resolved with two
    ``searchsorted`` probes against the sorted TEXT-position plane and
    one direct heap-slot comparison; zero-text containers compare
    against the empty string.  Only multi-text containers (and the
    rare comment/PI candidates, whose value is their own content) fall
    back to ``string_value``.
    """
    kinds = cols.kind[pres]
    concat = (kinds == 0) | (kinds == 1)  # DOC | ELEM
    keep = np.empty(pres.size, dtype=bool)
    text_pos = cols.text_positions()
    cpres = pres[concat]
    lo = np.searchsorted(text_pos, cpres + 1, side="left")
    hi = np.searchsorted(text_pos, cols.end[cpres], side="right")
    count = hi - lo
    ckeep = np.empty(cpres.size, dtype=bool)
    ckeep[count == 0] = value == ""
    one = count == 1
    if one.any():
        texts = doc.texts
        slots = cols.text_id[text_pos[lo[one]]].tolist()
        ckeep[one] = [texts[slot] == value for slot in slots]
    many = count > 1
    if many.any():
        ckeep[many] = [
            doc.string_value(int(pre)) == value for pre in cpres[many]
        ]
    keep[concat] = ckeep
    other = ~concat  # comment / processing-instruction candidates
    if other.any():
        keep[other] = [
            doc.string_value(int(pre)) == value for pre in pres[other]
        ]
    return keep


def _index_nids_batch(manager: IndexManager, node: IndexLookup):
    """``(nids, unique)`` for one ``IndexLookup`` (all documents;
    the pre mapping drops other documents' nids).  Typed lookups
    collect their ``(value, nid)`` keys with the B-tree's leaf-slice
    range scan.  ``unique`` is True when the scan cannot repeat a nid
    (one typed value per node), letting the pre mapping skip its
    dedup."""
    driver = node.driver
    if isinstance(driver, FunctionPredicate):
        if driver.function == "contains":
            return manager.lookup_contains(driver.literal), False
        return manager.lookup_regex(driver.literal), False
    if node.kind == "string":
        return manager.lookup_string(driver.literal), False
    kind, op, value = node.kind, node.op_symbol, node.value
    if node.high_op is not None:
        # Fused range conjunction: one bounded window scan.
        nids = manager.lookup_typed_range_nids(
            kind,
            low=value,
            high=node.high_value,
            include_low=(op == ">="),
            include_high=(node.high_op == "<="),
        )
    elif op == "=":
        nids = manager.lookup_typed_equal_nids(kind, value)
    elif op == "<":
        nids = manager.lookup_typed_range_nids(
            kind, high=value, include_high=False
        )
    elif op == "<=":
        nids = manager.lookup_typed_range_nids(kind, high=value)
    elif op == ">":
        nids = manager.lookup_typed_range_nids(
            kind, low=value, include_low=False
        )
    else:  # >=
        nids = manager.lookup_typed_range_nids(kind, low=value)
    return nids, True


def _plan_answers(plan: PlanNode, predicate) -> bool:
    """True when every candidate ``plan`` emits provably satisfies
    ``predicate`` (see the module docstring for the argument).

    Recurses on both sides: set operators delegate to their inputs
    (``Intersect`` output ⊆ each child, ``Union`` output ⊆ the union),
    boolean predicates decompose (``or`` needs one guaranteed disjunct,
    ``and`` needs all conjuncts).  The base case is the walk whose
    index driver *is* the atom.
    """
    if isinstance(plan, Intersect):
        if any(_plan_answers(child, predicate) for child in plan.children):
            return True
    elif isinstance(plan, Union):
        if plan.children and all(
            _plan_answers(child, predicate) for child in plan.children
        ):
            return True
    elif isinstance(plan, AncestorWalk):
        lookup = plan.children[0]
        if isinstance(lookup, IndexLookup) and any(
            proved is predicate for proved in lookup.proves
        ):
            return not any(
                isinstance(step_predicate, PositionPredicate)
                for step in predicate.operand.steps
                for step_predicate in step.predicates
            )
    if isinstance(predicate, BooleanExpr):
        if predicate.op == "or":
            return any(
                _plan_answers(plan, child) for child in predicate.children
            )
        return all(
            _plan_answers(plan, child) for child in predicate.children
        )
    return False


def _residual_predicates(node: StructuralVerify) -> list:
    """The predicate parts the re-check must still evaluate on
    each survivor; empty when the plan proves the whole predicate."""
    child = node.children[0]
    predicate = node.predicate
    if _plan_answers(child, predicate):
        return []
    if isinstance(predicate, BooleanExpr) and predicate.op == "and":
        return [
            conjunct
            for conjunct in predicate.children
            if not _plan_answers(child, conjunct)
        ]
    return [predicate]


def _run_batch(
    manager: IndexManager,
    doc: Document,
    cols: DocColumns,
    node: PlanNode,
    actuals: dict[int, dict],
) -> RowBatch:
    """Execute one operator; returns its output batch (inclusive time
    and output cardinality are recorded into ``actuals``)."""
    start = time.perf_counter()
    if isinstance(node, FullScan):
        pres = np.asarray(evaluate_naive(doc, node.path), dtype=np.int64)
    elif isinstance(node, IndexLookup):
        if (
            node.kind == "string"
            and not isinstance(node.driver, FunctionPredicate)
            and manager.string_index is not None
        ):
            pres = _string_equal_pres(
                manager, doc, cols, node.driver.literal
            )
        else:
            nids, unique = _index_nids_batch(manager, node)
            pres = cols.pres_of_nids(nids, assume_unique=unique)
    elif isinstance(node, AncestorWalk):
        hits = _run_batch(manager, doc, cols, node.children[0], actuals)
        pres = ancestor_walk(doc, cols, hits.pres, node.operand_steps)
    elif isinstance(node, Intersect):
        batches = [
            _run_batch(manager, doc, cols, child, actuals)
            for child in node.children
        ]
        pres = batches[0].pres if batches else EMPTY_PRES
        for other in batches[1:]:
            pres = np.intersect1d(pres, other.pres, assume_unique=True)
    elif isinstance(node, Union):
        pres = EMPTY_PRES
        for child in node.children:
            branch = _run_batch(manager, doc, cols, child, actuals)
            pres = np.union1d(pres, branch.pres)
    elif isinstance(node, StructuralVerify):
        child = _run_batch(manager, doc, cols, node.children[0], actuals)
        pres = structural_verify(
            doc, cols, child.pres, node.path.steps, node.predicate
        )
        residual = _residual_predicates(node) if pres.size else []
        if residual:
            # Re-check only the predicate parts the plan shape does
            # not already prove.
            keep = np.fromiter(
                (
                    all(
                        _predicate_holds(doc, int(pre), part)
                        for part in residual
                    )
                    for pre in pres
                ),
                dtype=bool,
                count=pres.size,
            )
            pres = pres[keep]
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown plan node {node!r}")
    actuals[node.op_id] = {
        "rows": int(pres.size),
        "seconds": time.perf_counter() - start,
    }
    metrics = manager.metrics
    metrics.counter("query.exec.vectorized_ops").inc()
    metrics.histogram("query.exec.batch_rows").observe(int(pres.size))
    return RowBatch(pres, doc)


def run_vectorized(
    manager: IndexManager,
    doc: Document,
    cols: DocColumns,
    plan: PlanNode,
    actuals: dict[int, dict],
) -> list[int]:
    """Run a plan tree over one document's column snapshot; returns
    matching pres sorted in document order."""
    return _run_batch(manager, doc, cols, plan, actuals).to_pres()


def execute_plan(
    manager: IndexManager,
    doc: Document,
    plan: PlanNode,
    actuals: dict[int, dict] | None = None,
) -> list[int]:
    """Run a plan tree over one document; returns matching pres sorted
    in document order.  ``actuals`` (if given) is filled with
    per-operator ``{"rows", "seconds"}`` entries keyed by ``op_id``."""
    if actuals is None:
        actuals = {}
    result = run_vectorized(manager, doc, doc.columns(), plan, actuals)
    metrics = manager.metrics
    if isinstance(plan, FullScan):
        metrics.counter("query.plans.scan").inc()
    else:
        metrics.counter("query.plans.index").inc()
    metrics.counter("query.rows").inc(len(result))
    return result
