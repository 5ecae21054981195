"""The traced run: the workload's seeded ops down the layer ladder.

Each op gets one request id and runs three times:

1. through the :class:`~repro.shard.ShardCluster` (coordinator, wire,
   worker server, engine);
2. straight to the worker over a second :class:`~repro.client.Client`
   (wire, worker server, engine);
3. on an in-process concurrent :class:`~repro.shard.engine.ShardEngine`
   holding the same state, with spans around the public functions of
   each engine layer.

``shard.coordinator.*_self_ms`` is rung 1 minus rung 2 of the same op,
``server.*_self_ms`` rung 2 minus rung 3.  Rung-3 spans come from
wrappers this module installs over the engine's layer functions in
this process only; nothing inside ``src/`` records time.  Spans are
``[name, start, end, parent, request_id]`` rows kept in memory and
written to ``.servedbench/traces/`` at the end.

Before the ladder, the same op stream runs through the cluster alone
for half the run (the untraced phase): it gives the per-op CPU of the
worker and the coordinator process, the worker's plan-cache hit ratio,
and the baseline for the tracing overhead (rung-1 median in the
ladder minus the untraced median).

Every workload reports every per-layer metric.  For each op kind its
own stream does not issue, each phase ends with a fixed count of ops
from the stream of the workload that does (:data:`SUPPLEMENT`): the
first slice untraced, the next down the ladder.  They run after the
workload's own ops, so they do not change the state those ran on.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from typing import Iterator

import repro.core.manager
import repro.query.planner
import repro.query.vexecutor
import repro.shard.engine
import repro.xmldb.store
from repro import wire
from repro.client import Client
from repro.query import build_plan, execute_plan, parse_query
from repro.shard.engine import ShardEngine
from repro.storage.wal import WriteAheadLog

import inputs
import served
from oracle import Oracle
from stats import median, self_times

__all__ = ["Tracer", "traced", "RECONCILE_SHARE"]

#: Largest accepted gap between the sum of an op kind's per-layer
#: median self times and its median rung-1 latency, as a share of
#: the latter.
RECONCILE_SHARE = 0.25

#: Op kind → (workload whose stream issues it, ops per phase) for the
#: kinds a workload's own stream lacks: 60 update ops hold about 48
#: updates, 18 ingest ops 6 loads and 4 unloads.
SUPPLEMENT = {"update": ("update", 60), "load": ("ingest", 18)}

#: The op kinds each workload's own stream issues.
KINDS = {"lookup": {"query"}, "update": {"update", "query"},
         "ingest": {"load", "query", "unload"}}

#: (module or class, attribute, span name) of every traced function.
_LAYER_FUNCTIONS = (
    # parse_query behind the planner's parse cache, as queries reach it
    (repro.query.planner, "_parse", "query.parse"),
    (repro.query.planner, "build_plan", "query.plan"),
    (repro.query.vexecutor, "run_vectorized", "query.exec"),
    (WriteAheadLog, "append_many", "storage.wal.append"),
    (repro.shard.engine, "save_manager", "storage.persist.checkpoint"),
    (repro.xmldb.store, "shred", "xmldb.shred"),
    # the Figure 7 creation pass (build_document's body) as load runs it
    (repro.core.manager, "compute_fields", "core.build"),
)


class Tracer:
    """In-memory spans of the main thread while an op is active."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request: int | None = None
        self._thread = threading.get_ident()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[list]:
        if self._request is None or threading.get_ident() != self._thread:
            yield []
            return
        parent = self._stack[-1] if self._stack else None
        row = [name, time.perf_counter(), 0.0, parent, self._request]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        try:
            yield row
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def request(self, request_id: int, name: str) -> Iterator[list]:
        """The root span of one op on rung 3."""
        self._request = request_id
        try:
            with self.span(name) as row:
                yield row
        finally:
            self._request = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self, engine: ShardEngine) -> Iterator[None]:
        """Wrap every layer function for the duration of the block."""
        saved = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _name in _LAYER_FUNCTIONS]
        for owner, attr, name in _LAYER_FUNCTIONS:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
        manager = engine.manager
        manager.update_text = self.wrap("core.update", manager.update_text)
        try:
            yield
        finally:
            del manager.update_text
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# The ladder
# ---------------------------------------------------------------------------


class Ladder:
    def __init__(self, run: served.Run, engine: ShardEngine,
                 tracer: Tracer):
        self.cluster = run.cluster
        self.engine = engine
        self.tracer = tracer
        host, port = self.cluster.addresses()[0]
        self.client = Client(host, port)
        self.rungs: list[dict] = []
        self.response_bytes: list[int] = []
        self.rows_ms: list[float] = []
        self.rows: list[int] = []
        self.index_nids: list[int] = []

    def close(self) -> None:
        self.client.close()

    def _documents(self, op: tuple) -> list[str]:
        return [op[2]] if op[2] is not None \
            else list(self.cluster.manifest.doc_order)

    def _worker(self, op: tuple):
        kind = op[0]
        if kind == "query":
            result = self.client.call("query", xpath=op[1], use_indexes=True,
                                      rows=True, documents=self._documents(op))
            self.response_bytes.append(
                len(wire.encode_frame(wire.ok_response(0, result))))
            return result["rows"]
        if kind == "update":
            return self.client.update_text(op[2], op[3])
        # The cluster's rung already loaded the name: unload it
        # directly (untimed by the caller) and time the direct load.
        return self.client.call("load", name=op[1], xml=op[2])

    def _engine(self, op: tuple):
        kind, engine = op[0], self.engine
        if kind == "query":
            # One pinned view for all documents, as the worker's
            # server evaluates a scatter (plan statistics are per view).
            with engine.read_view():
                return [row for name in self._documents(op)
                        for row in engine.query_rows(op[1], name)]
        return _apply(engine, op)

    def step(self, request_id: int, op: tuple) -> served.Sample:
        kind = op[0]
        sample = served.run_op(self.cluster, op)
        if sample.error is not None:
            return sample
        record: dict = {"kind": kind, "request": request_id,
                        "cluster": sample.seconds}
        if kind == "query":
            # Rung 1 just planned the text on the worker, so rungs 2
            # and the rung-1 repeat hit its plan cache: coordinator and
            # server self times compare warm calls with warm calls.
            started = time.perf_counter()
            served.execute(self.cluster, op)
            record["cluster_warm"] = time.perf_counter() - started
        elif kind == "load":
            self.client.call("unload", name=op[1])
        if kind != "unload":
            started = time.perf_counter()
            self._worker(op)
            record["worker"] = time.perf_counter() - started
        with self.tracer.request(request_id, f"shard.engine.{kind}") as root:
            self._engine(op)
        record["engine"] = root[2] - root[1]
        if kind == "query":
            started = time.perf_counter()
            self._engine(op)
            record["engine_warm"] = time.perf_counter() - started
            self._query_extras(op)
        self.rungs.append(record)
        return sample

    def _query_extras(self, op: tuple) -> None:
        """Untraced: engine ``query`` vs ``query_rows`` time, and plan
        actuals (rows, index nids) of the plans queries execute."""
        names = self._documents(op)
        nids_s, rows_s = [], []
        for _ in range(2):
            for fn, seconds in ((self.engine.query, nids_s),
                                (self.engine.query_rows, rows_s)):
                with self.engine.read_view():
                    started = time.perf_counter()
                    for name in names:
                        fn(op[1], name)
                    seconds.append(time.perf_counter() - started)
        self.rows_ms.append((min(rows_s) - min(nids_s)) * 1e3)
        parsed = parse_query(op[1])
        rows = index_nids = 0
        with self.engine.read_view():
            for name in [parsed.document] if parsed.document else names:
                doc = self.engine.store.document(name)
                plan = build_plan(self.engine.manager, doc, parsed.path, True)
                actuals: dict[int, dict] = {}
                rows += len(execute_plan(self.engine.manager, doc, plan,
                                         actuals))
                index_nids += _index_rows(plan.to_dict(actuals))
        self.rows.append(rows)
        self.index_nids.append(index_nids)


def _index_rows(node: dict) -> int:
    own = node["actual"]["rows"] if node["op"] == "IndexLookup" else 0
    return own + sum(_index_rows(child) for child in node.get("children", ()))


def _counters(client: Client) -> dict:
    return client.metrics()["counters"]


def _untraced(run: served.Run, ops: Iterator[tuple],
              seconds: float) -> tuple[list[served.Sample], dict]:
    """The op stream through the cluster alone, with CPU and plan-cache
    counters read around it."""
    pid = served.worker_pid()
    host, port = run.cluster.addresses()[0]
    with Client(host, port) as probe:
        before = _counters(probe)
        cpu = (served.cpu_seconds(pid), served.cpu_seconds(os.getpid()))
        samples: list[served.Sample] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            samples.append(served.run_op(run.cluster, next(ops)))
        cpu_after = (served.cpu_seconds(pid), served.cpu_seconds(os.getpid()))
        after = _counters(probe)
    hits = after.get("query.plan_cache.hits", 0) - before.get(
        "query.plan_cache.hits", 0)
    misses = after.get("query.plan_cache.misses", 0) - before.get(
        "query.plan_cache.misses", 0)
    probe_stats = {
        "ops": len(samples),
        "worker_cpu": cpu_after[0] - cpu[0],
        "coordinator_cpu": cpu_after[1] - cpu[1],
        "hit_ratio": hits / (hits + misses) if hits + misses else None,
    }
    return samples, probe_stats


def _apply(engine: ShardEngine, op: tuple):
    """Apply one update, load or unload op to the in-process engine."""
    if op[0] == "update":
        return engine.update_text(op[2], op[3])
    if op[0] == "load":
        return engine.load(op[1], op[2])
    return engine.unload(op[1])


def _replay(engine: ShardEngine, samples: list[served.Sample]) -> None:
    """Bring the in-process engine to the cluster's state."""
    for sample in samples:
        if sample.error is None and sample.op[0] != "query":
            _apply(engine, sample.op)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def layer_metrics(ladder: Ladder, tracer: Tracer,
                  untraced: list[served.Sample],
                  probes: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics plus reconciliation notes.  A layer function's
    time is the median, over the ops that called it, of the op's total
    time in it."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_request: dict[int, list[int]] = {}
    for idx, span in enumerate(spans):
        by_request.setdefault(span[4], []).append(idx)
    metrics: dict[str, tuple[float, str, int]] = {}
    notes: list[str] = []

    def put(name: str, values: list[float], unit: str = "ms",
            scale: float = 1e3) -> None:
        if values:
            metrics[name] = (median(values) * scale, unit, len(values))

    def per_op(name: str) -> list[float]:
        totals: dict[int, float] = {}
        for span in spans:
            if span[0] == name:
                totals[span[4]] = totals.get(span[4], 0.0) + span[2] - span[1]
        return list(totals.values())

    for kind in ("query", "update", "load"):
        recs = [r for r in ladder.rungs if r["kind"] == kind]
        if not recs:
            continue
        coordinator = [r.get("cluster_warm", r["cluster"]) - r["worker"]
                       for r in recs]
        server = [r["worker"] - r.get("engine_warm", r["engine"])
                  for r in recs]
        put(f"shard.coordinator.{kind}_self_ms", coordinator)
        if kind != "load":
            put(f"server.{kind}_self_ms", server)
        # Reconciliation: per-layer median self times against the
        # median rung-1 latency of the same ops.
        totals: list[dict[str, float]] = []
        for r in recs:
            own: dict[str, float] = {}
            for idx in by_request.get(r["request"], ()):
                own[spans[idx][0]] = own.get(spans[idx][0], 0.0) + selfs[idx]
            totals.append(own)
        names = {name for own in totals for name in own}
        parts = median(coordinator) + median(server) + sum(
            median([own.get(name, 0.0) for own in totals]) for name in names)
        top = median([r["cluster"] for r in recs])
        share = abs(parts - top) / top
        metrics[f"trace.{kind}.reconcile_share"] = (share, "ratio", len(recs))
        notes.append(
            f"{kind}: layer self-time medians sum to {parts * 1e3:.3f} ms, "
            f"rung-1 median {top * 1e3:.3f} ms, gap {share:.1%} "
            f"({'within' if share <= RECONCILE_SHARE else 'OVER'} "
            f"{RECONCILE_SHARE:.0%})")
        base = [s.seconds for s in untraced if s.op[0] == kind]
        if base:
            metrics[f"trace.{kind}.overhead_ms"] = (
                (top - median(base)) * 1e3, "ms", len(recs))

    put("wire.response_bytes_per_query", ladder.response_bytes, "bytes", 1)
    put("shard.engine.rows_ms", ladder.rows_ms, scale=1)
    put("query.parse_ms", per_op("query.parse"))
    put("query.plan_ms", per_op("query.plan"))
    if probes["hit_ratio"] is not None:
        metrics["query.plan_cache.hit_ratio"] = (probes["hit_ratio"], "ratio",
                                                 1)
    put("query.exec_ms", per_op("query.exec"))
    put("query.rows_per_query", ladder.rows, "rows", 1)
    if sum(ladder.rows):
        metrics["query.index_nids_per_row"] = (
            sum(ladder.index_nids) / sum(ladder.rows), "ratio",
            len(ladder.rows))
    put("core.update_ms", per_op("core.update"))
    put("storage.wal.append_ms", per_op("storage.wal.append"))
    checkpoints = per_op("storage.persist.checkpoint")
    put("storage.persist.checkpoint_ms", checkpoints)
    if checkpoints:
        metrics["storage.checkpoints"] = (len(checkpoints), "count", 1)
    put("xmldb.shred_ms", per_op("xmldb.shred"))
    put("core.build_ms", per_op("core.build"))
    if probes["ops"]:
        metrics["shard.worker.cpu_ms_per_op"] = (
            probes["worker_cpu"] * 1e3 / probes["ops"], "ms", probes["ops"])
        metrics["shard.coordinator.cpu_ms_per_op"] = (
            probes["coordinator_cpu"] * 1e3 / probes["ops"], "ms",
            probes["ops"])
    return metrics, notes


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _StorageBytes:
    """Bytes the engine's WAL appends and its checkpoints write,
    measured from the files around the traced calls."""

    def __init__(self, path: str):
        self.path = path
        self.wal: list[int] = []
        self.records: list[int] = []
        self.snapshots: list[int] = []

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        append = WriteAheadLog.append_many
        save = repro.shard.engine.save_manager
        wal_path = os.path.join(self.path, "wal.log")

        def append_many(wal, records):
            before = os.path.getsize(wal_path)
            append(wal, records)
            self.wal.append(os.path.getsize(wal_path) - before)
            self.records.append(len(records))

        def save_manager(manager, path, epoch=None):
            result = save(manager, path, epoch=epoch)
            self.snapshots.append(served.dir_bytes(path)
                                  - os.path.getsize(wal_path))
            return result

        WriteAheadLog.append_many = append_many
        repro.shard.engine.save_manager = save_manager
        try:
            yield
        finally:
            WriteAheadLog.append_many = append
            repro.shard.engine.save_manager = save


def traced(workload: str, seed: int, seconds: float,
           base: str) -> tuple[dict, int, list[str]]:
    docs = inputs.corpus(seed)
    ops = served.workload_ops(workload, seed, docs)
    extra = [(served.workload_ops(source, seed, docs), count)
             for kind, (source, count) in SUPPLEMENT.items()
             if kind not in KINDS[workload]]
    run = served.set_up(base, docs, times=1)
    engine_dir = os.path.join(base, "engine")
    engine = ShardEngine(engine_dir, sync=served.SYNC,
                         checkpoint_every=served.CHECKPOINT_EVERY,
                         concurrent=True, group_commit=True)
    tracer = Tracer()
    meter = _StorageBytes(engine_dir)
    ladder = None
    try:
        for name, xml in docs:
            engine.load(name, xml)
        primed = served.prime(run.cluster, ops, workload)
        untraced, probes = _untraced(run, ops, seconds / 2)
        untraced += [served.run_op(run.cluster, next(stream))
                     for stream, count in extra for _ in range(count)]
        _replay(engine, primed + untraced)
        ladder = Ladder(run, engine, tracer)
        samples: list[served.Sample] = []
        with tracer.installed(engine), meter.installed():
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                samples.append(ladder.step(len(samples) + 1, next(ops)))
            for stream, count in extra:
                for _ in range(count):
                    samples.append(ladder.step(len(samples) + 1,
                                               next(stream)))
    finally:
        if ladder is not None:
            ladder.close()
        run.cluster.stop()
        engine.close()
    oracle = Oracle(docs)
    failures = served.verify(primed + untraced + samples, oracle,
                             full_rows=False)
    metrics, notes = layer_metrics(ladder, tracer, untraced, probes)
    updates = sum(meter.records)
    if updates:
        metrics["storage.wal.bytes_per_update"] = (
            sum(meter.wal) / updates, "bytes", updates)
    if meter.snapshots:
        metrics["storage.persist.bytes_written_per_xml_byte"] = (
            median(meter.snapshots) / served.xml_bytes(oracle), "ratio",
            len(meter.snapshots))
    for note in notes:
        print(f"reconcile {note}")
    out_dir = os.path.join(os.path.dirname(base), "traces")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{workload}-seed{seed}.json"),
              "w") as fh:
        json.dump({"spans": tracer.spans, "rungs": ladder.rungs}, fh)
    return metrics, len(primed) + len(untraced) + len(samples), failures
