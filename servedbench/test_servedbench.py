"""Tests of the benchmark's own inputs and arithmetic.

Run from the repository root::

    python3 -m pytest servedbench/test_servedbench.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import statistics
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import inputs  # noqa: E402
import served  # noqa: E402
from oracle import Oracle  # noqa: E402
from repro.query import parse_query  # noqa: E402
from stats import (  # noqa: E402
    covered,
    percentile,
    quartile_spread,
    self_times,
)


def _digest(seed: int) -> str:
    """Hash of every input stream a seed generates (a bounded prefix of
    the endless ones)."""
    docs = inputs.corpus(seed)
    pool = inputs.query_pool(seed, docs)
    payload = {
        "corpus": docs,
        "pool": pool,
        "lookup": list(itertools.islice(inputs.lookup_stream(seed, pool),
                                        500)),
        "update": list(itertools.islice(inputs.update_stream(seed, docs),
                                        500)),
        "ingest": list(itertools.islice(inputs.ingest_ops(seed), 30)),
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def test_seed_reproduces_inputs_byte_for_byte():
    assert _digest(7) == _digest(7)


def test_another_seed_gives_other_inputs():
    assert _digest(7) != _digest(8)


def test_streams_are_independent_of_each_other():
    # Drawing from one label's stream leaves another's untouched.
    first = inputs.rng(3, "lookup").random()
    inputs.rng(3, "updates").random()
    assert inputs.rng(3, "lookup").random() == first


def test_templates_cover_the_query_sets_and_parse():
    templates = inputs.templates()
    assert len(templates) == 23
    docs = inputs.corpus(1)
    for texts in inputs.query_pool(1, docs):
        assert len(texts) == inputs.LITERALS_PER_TEMPLATE
        for text in texts:
            parse_query(text)


def test_lookup_rounds_visit_every_template_once():
    docs = inputs.corpus(1)
    pool = inputs.query_pool(1, docs)
    owner = {text: t for t, texts in enumerate(pool) for text in texts}
    ops = list(itertools.islice(inputs.lookup_stream(1, pool), 2 * len(pool)))
    for start in (0, len(pool)):
        # A text shared by two templates maps to one of them; the
        # round still has as many ops as templates.
        round_ = ops[start:start + len(pool)]
        assert len({owner[op[1]] for op in round_}) >= len(pool) - 2


def test_ingest_window_unloads_the_oldest():
    ops = list(itertools.islice(inputs.ingest_ops(1), 40))
    resident: list[str] = []
    for op in ops:
        if op[0] == "load":
            resident.append(op[1])
        elif op[0] == "unload":
            assert op[1] == resident.pop(0)
        assert len(resident) <= inputs.INGEST_WINDOW + 1
        if op[0] == "query":
            assert op[2] == resident[-1]


def test_oracle_tracks_updates():
    docs = [("d", "<r><a>1</a><a>2</a><b>x</b></r>")]
    oracle = Oracle(docs)
    assert [row[1] for row in oracle.rows("//a[. = 2]")] == [4]
    nid = oracle.rows("//b")[0][2] + 1  # the text node under <b>
    oracle.update_text(nid, "2")
    assert oracle.rows('//b[text() = "2"]') == [("d", 6, 6)]
    assert oracle.rows("//nothing[. = 1]") == []


def test_every_workload_reports_every_end_to_end_metric():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}
    for workload, kind in served.MAIN_OP.items():
        samples = [served.Sample(("query", "//a", None), 0.0, 0.004),
                   served.Sample((kind, "d"), 0.004, 0.010)]
        metrics = served.end_to_end(samples, [250.0], kind, [1.5, 1.2, 1.3],
                                    2.5, 80.0)
        assert {name: m[1] for name, m in metrics.items()} == units, workload
        assert all(m[0] > 0 for m in metrics.values()), workload


# -- arithmetic ----------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([5.0], 99) == 5.0
    assert percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 0)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    mid, q1, q3, spread = quartile_spread(values)
    expected_q1, _, expected_q3 = statistics.quantiles(values, n=4)
    assert (mid, q1, q3) == (14.5, expected_q1, expected_q3)
    assert spread == pytest.approx((expected_q3 - expected_q1) / 14.5)


def test_covered_is_the_union_length():
    assert covered([]) == 0
    assert covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4)
    assert covered([(0, 10), (2, 3)]) == pytest.approx(10)


def test_self_times_subtract_child_coverage():
    spans = [
        ["op", 0.0, 10.0, None, 1],
        ["parse", 1.0, 2.0, 0, 1],
        ["plan", 2.0, 5.0, 0, 1],
        ["stats", 3.0, 4.0, 2, 1],
        ["exec", 4.5, 7.0, 0, 1],     # overlaps plan: counted once
        ["late", 9.5, 12.0, 0, 1],    # clipped to the parent's end
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10 - (1 + 5 + 0.5))
    assert selfs[2] == pytest.approx(3 - 1)
    assert selfs[3] == pytest.approx(1)
    nested = spans[:4]
    assert sum(self_times(nested).values()) == pytest.approx(10)
