"""Typed plan trees for the query execution engine.

The planner (:mod:`repro.query.planner`) compiles a parsed query into a
tree of these operators for one document; the executor
(:mod:`repro.query.vexecutor`) runs the tree with per-operator
instrumentation.  Shapes:

* ``FullScan`` — the naive evaluator over the whole document (always
  applicable; the baseline every other plan is priced against);
* ``IndexLookup → AncestorWalk`` — a value index supplies the nodes
  whose value matches one atomic predicate, and the predicate's operand
  path is walked ancestor-wards to candidate context nodes;
* ``Union`` / ``Intersect`` — combine candidate context sets of several
  drivers (disjunctive predicates need *all* branches covered and union
  them; conjunctive predicates may intersect several selective
  branches);
* ``StructuralVerify`` — the root of every index plan: verifies the
  outer path structurally and re-checks the full predicate, so results
  always equal :func:`repro.query.evaluator.evaluate_naive`.

Every node carries the planner's cost estimates (``estimated_rows``,
``estimated_cost``) and a stable ``op_id`` the executor uses to report
per-operator actuals in ``explain(..., execute=True)``.
"""

from __future__ import annotations

from typing import Any, Iterator

from .ast import Path, Step

__all__ = [
    "PlanNode",
    "FullScan",
    "IndexLookup",
    "AncestorWalk",
    "Intersect",
    "Union",
    "StructuralVerify",
    "ScatterGather",
    "RemotePlan",
    "render_plan",
]


class PlanNode:
    """Base class of all plan operators."""

    op = "plan"

    def __init__(self, children: tuple["PlanNode", ...] = ()):
        self.children = children
        #: Planner estimates (filled during plan construction).
        self.estimated_rows: float = 0.0
        self.estimated_cost: float = 0.0
        #: Stable pre-order operator id (assigned by :func:`number_plan`).
        self.op_id: int = -1

    # -- rendering ------------------------------------------------------

    def describe(self) -> str:
        """One-line operator description (no estimates)."""
        return self.op

    def walk(self) -> Iterator["PlanNode"]:
        """Pre-order traversal of the tree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self, actuals: dict[int, dict] | None = None) -> dict:
        """JSON-friendly form of the subtree (with actuals if given)."""
        node: dict[str, Any] = {
            "op": self.op,
            "describe": self.describe(),
            "estimated_rows": round(self.estimated_rows, 2),
            "estimated_cost": round(self.estimated_cost, 2),
        }
        if actuals is not None and self.op_id in actuals:
            node["actual"] = actuals[self.op_id]
        if self.children:
            node["children"] = [
                child.to_dict(actuals) for child in self.children
            ]
        return node


class FullScan(PlanNode):
    """Evaluate the whole path with the naive evaluator."""

    op = "FullScan"

    def __init__(self, path: Path, reason: str = ""):
        super().__init__()
        self.path = path
        #: Why the planner scanned ("no index applies", "cost", ...).
        self.reason = reason

    def describe(self) -> str:
        return f"FullScan({self.reason})" if self.reason else "FullScan"


class IndexLookup(PlanNode):
    """Fetch value-matching nodes from one index.

    ``kind`` is ``"string"``, ``"substring"`` or the configured typed
    index's name (``"double"``, ``"dateTime"``, ...).  For typed
    lookups ``value`` holds the literal already cast into the index's
    value domain.

    A typed lookup may carry a *second* bound (``high_op``/
    ``high_value``): the planner fuses conjoined range comparisons over
    the same operand path (``[a >= x and a < y]``) into one bounded
    window scan of the value B-tree.  ``proves`` lists every atomic
    predicate each emitted node is guaranteed to satisfy (the driver
    alone for plain lookups; all fused conjuncts for a window) — the
    executor uses it to elide the per-node predicate re-check.
    """

    op = "IndexLookup"

    def __init__(self, kind: str, driver, op_symbol: str = "=",
                 value: Any = None, high_op: str | None = None,
                 high_value: Any = None,
                 proves: tuple | None = None):
        super().__init__()
        self.kind = kind
        self.driver = driver
        self.op_symbol = op_symbol
        self.value = value
        self.high_op = high_op
        self.high_value = high_value
        self.proves = (driver,) if proves is None else proves

    def describe(self) -> str:
        if self.high_op is not None:
            return (
                f"IndexLookup[{self.kind}] {self.op_symbol} {self.value!r} "
                f"and {self.high_op} {self.high_value!r}"
            )
        literal = getattr(self.driver, "literal", self.value)
        return f"IndexLookup[{self.kind}] {self.op_symbol} {literal!r}"


class AncestorWalk(PlanNode):
    """Walk index hits ancestor-wards through the operand path."""

    op = "AncestorWalk"

    def __init__(self, child: PlanNode, operand_steps: tuple[Step, ...]):
        super().__init__((child,))
        self.operand_steps = operand_steps

    def describe(self) -> str:
        return f"AncestorWalk[{len(self.operand_steps)} step(s)]"


class Intersect(PlanNode):
    """Intersect candidate context sets (conjunctive drivers)."""

    op = "Intersect"

    def __init__(self, children: tuple[PlanNode, ...]):
        super().__init__(children)

    def describe(self) -> str:
        return f"Intersect[{len(self.children)}]"


class Union(PlanNode):
    """Union candidate context sets (disjunctive drivers)."""

    op = "Union"

    def __init__(self, children: tuple[PlanNode, ...]):
        super().__init__(children)

    def describe(self) -> str:
        return f"Union[{len(self.children)}]"


class StructuralVerify(PlanNode):
    """Verify the outer path and re-check the full predicate."""

    op = "StructuralVerify"

    def __init__(self, child: PlanNode, path: Path, predicate):
        super().__init__((child,))
        self.path = path
        self.predicate = predicate

    def describe(self) -> str:
        return f"StructuralVerify[{len(self.path.steps)} step(s)]"


class ScatterGather(PlanNode):
    """Coordinator root: scatter the query to shards, k-way merge.

    Children are one :class:`RemotePlan` per participating shard.  Each
    shard evaluates its local plan (its own IndexLookup/window scans —
    predicate evaluation is pushed down with the query text, so only
    row-id batches cross the process boundary) and returns hits sorted
    by (global document index, pre); the gather side merges them with
    :func:`repro.query.kernels.kway_merge`.
    """

    op = "ScatterGather"

    def __init__(self, children: tuple["RemotePlan", ...]):
        super().__init__(children)

    def describe(self) -> str:
        return f"ScatterGather[{len(self.children)} shard(s)]"


class RemotePlan(PlanNode):
    """One shard's contribution to a scatter-gather plan.

    A display/accounting proxy: the actual operator tree lives in the
    shard process; ``summary`` carries the shard's own ``explain``
    rendering so a coordinator explain still shows where indices were
    used.
    """

    op = "RemotePlan"

    def __init__(self, shard: int, documents: tuple[str, ...],
                 summary: str = ""):
        super().__init__()
        self.shard = shard
        self.documents = documents
        self.summary = summary

    def describe(self) -> str:
        docs = ",".join(self.documents) if self.documents else "-"
        return f"RemotePlan[shard={self.shard} docs={docs}]"


def number_plan(root: PlanNode) -> PlanNode:
    """Assign pre-order ``op_id``\\ s; returns ``root`` for chaining."""
    for op_id, node in enumerate(root.walk()):
        node.op_id = op_id
    return root


def render_plan(
    root: PlanNode, actuals: dict[int, dict] | None = None
) -> str:
    """Indented text rendering of a plan tree with estimates/actuals."""
    lines: list[str] = []

    def visit(node: PlanNode, depth: int) -> None:
        line = (
            f"{'  ' * depth}{node.describe()}  "
            f"(est rows={node.estimated_rows:.1f} "
            f"cost={node.estimated_cost:.1f}"
        )
        if actuals is not None and node.op_id in actuals:
            actual = actuals[node.op_id]
            line += (
                f" | actual rows={actual['rows']} "
                f"time={actual['seconds'] * 1000:.2f}ms"
            )
        lines.append(line + ")")
        for child in node.children:
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)
