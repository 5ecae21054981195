"""Differential suite: batch executor vs. the naive evaluator.

Every workload query, in every planning mode, must return exactly what
a full scan with :func:`repro.query.evaluator.evaluate_naive` returns,
and the executor's supporting caches (contains/regex memo, lazy nid
map, plan-proved predicate elision) must never leak stale results
across mutations.
"""

import pytest

from repro.core import IndexManager
from repro.query import evaluate_naive, parse_query, query
from repro.query.planner import build_plan
from repro.query.plan import (
    AncestorWalk,
    IndexLookup,
    Intersect,
    StructuralVerify,
    Union as PlanUnion,
)
from repro.query.vexecutor import _residual_predicates
from repro.workloads import DATASETS, QUERY_SETS

#: Small generator scale: a few thousand nodes per corpus keeps the
#: sweep in tier-1 time while exercising every query shape.
SCALE = 1.0


@pytest.fixture(scope="module")
def managers():
    loaded = {}
    for name in ("XMark1", "DBLP", "PSD", "Wiki", "EPAGeo"):
        manager = IndexManager(
            string=True, typed=("double",), substring=True
        )
        manager.load(name, DATASETS[name].build(SCALE))
        loaded[name] = manager
    return loaded


def _workload_cases():
    for dataset in ("XMark1", "DBLP", "PSD", "Wiki", "EPAGeo"):
        for query_name, text in QUERY_SETS[dataset]:
            yield pytest.param(
                dataset, text, id=f"{dataset}-{query_name}"
            )


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("dataset,text", _workload_cases())
    def test_three_way_agreement(self, managers, dataset, text):
        manager = managers[dataset]
        indexed = query(manager, text)
        scanned = query(manager, text, use_indexes=False)
        doc = next(iter(manager.store.documents.values()))
        naive = [
            doc.nid[pre]
            for pre in evaluate_naive(doc, parse_query(text).path)
        ]
        assert indexed == scanned == naive

    @pytest.mark.parametrize("use_indexes", [True, False, "auto"])
    def test_modes_agree(self, managers, use_indexes):
        manager = managers["DBLP"]
        text = "//inproceedings[year >= 2000 and year < 2005]"
        assert query(manager, text, use_indexes=use_indexes) == query(
            manager, text, use_indexes=False
        )


class TestPlanProvedPredicates:
    """The residual re-check shrinks exactly as the plan proves parts
    of the predicate, and never drops an unproven conjunct."""

    def _verify_node(self, manager, text):
        parsed = parse_query(text)
        doc = next(iter(manager.store.documents.values()))
        plan = build_plan(manager, doc, parsed.path, True)
        assert isinstance(plan, StructuralVerify)
        return plan

    def test_single_driver_fully_proved(self, managers):
        node = self._verify_node(managers["XMark1"], "//item[price < 10]")
        assert _residual_predicates(node) == []

    def test_fused_range_window(self, managers):
        node = self._verify_node(
            managers["DBLP"],
            "//inproceedings[year >= 2000 and year < 2005]",
        )
        fused = node.children[0]
        # Exact decomposition: window ∪ (walk(¬high) ∩ walk(¬low)) —
        # XPath conjuncts are existential, so the straddling case
        # (one year past the window, another below it) needs the
        # complement branch.
        assert isinstance(fused, PlanUnion)
        window, complement = fused.children
        assert isinstance(window, AncestorWalk)
        assert isinstance(complement, Intersect)
        lookup = window.children[0]
        assert isinstance(lookup, IndexLookup)
        # Both conjuncts fused into one bounded window scan...
        assert lookup.high_op == "<" and lookup.high_value == 2005.0
        assert lookup.op_symbol == ">=" and lookup.value == 2000.0
        assert len(lookup.proves) == 2
        # ...and every branch proves both, so no per-node re-check
        # remains.
        assert _residual_predicates(node) == []

    def test_partially_covered_conjunction_keeps_residual(self, managers):
        manager = managers["XMark1"]
        text = '//item[quantity = 5 and payment = "Cash"]'
        node = self._verify_node(manager, text)
        residual = _residual_predicates(node)
        # The uncovered string-inequality conjunct must be re-checked.
        predicate = node.predicate
        assert all(part in predicate.children for part in residual)
        assert query(manager, text) == query(
            manager, text, use_indexes=False
        )


class TestContainsCache:
    def test_cache_hits_and_epoch_invalidation(self):
        manager = IndexManager(
            string=True, typed=("double",), substring=True
        )
        manager.load(
            "d",
            "<r><a>hay needle stack</a><b>plain</b>"
            "<c x='needle'>t</c></r>",
        )
        first = sorted(manager.lookup_contains("needle"))
        hits_before = manager.metrics.counter(
            "query.text_lookup.cache_hits"
        ).value
        assert sorted(manager.lookup_contains("needle")) == first
        assert (
            manager.metrics.counter("query.text_lookup.cache_hits").value
            == hits_before + 1
        )
        # A text update bumps the epoch: the cache entry must die.
        victim = first[0]
        manager.update_texts([(victim, "gone")])
        stale = sorted(manager.lookup_contains("needle"))
        assert victim not in stale
        assert len(stale) == len(first) - 1

    def test_regex_cache_matches_scalar(self):
        manager = IndexManager(
            string=True, typed=("double",), substring=True
        )
        manager.load("d", "<r><a>abc123</a><b>xyz</b><c>12</c></r>")
        expected = sorted(manager.lookup_regex(r"\d{2,}"))
        assert sorted(manager.lookup_regex(r"\d{2,}")) == expected


class TestLazyNidMap:
    def test_rebuilds_coalesce(self):
        manager = IndexManager(string=True, typed=("double",))
        manager.load("d", "<r><a>1</a><b>2</b><c>3</c></r>")
        doc = manager.store.document("d")
        rebuilds = doc.nid_map_rebuilds
        for _ in range(5):
            doc.rebuild_nid_map()  # marks dirty, does no work
        assert doc.nid_map_rebuilds == rebuilds
        doc.pre_of(doc.nid[1])  # first consumer pays one rebuild
        assert doc.nid_map_rebuilds == rebuilds + 1
        doc.pre_of(doc.nid[2])
        assert doc.nid_map_rebuilds == rebuilds + 1
