"""The served 1-shard path: set-up, timed closed loop, oracle gate.

One :class:`~repro.shard.ShardCluster` with a single worker process
(``transport="process"``, ``sync="flush"``) is driven from this
process over its one coordinator connection, one op at a time (a
closed loop with one client).  Answers are recorded during the timed
window and checked against the :class:`~oracle.Oracle` after it, so
no oracle work falls inside a timed interval.
"""

from __future__ import annotations

import glob
import os
import shutil
import time
from dataclasses import dataclass
from statistics import fmean
from typing import Any, Iterator

from repro.errors import ReproError
from repro.shard import ShardCluster
from repro.workloads import QUERY_SETS

import inputs
from oracle import Oracle
from stats import median, percentile

__all__ = [
    "SYNC", "CHECKPOINT_EVERY", "SETUPS", "MAIN_OP", "TAIL",
    "REFERENCE_SPEED", "CLIENT_CPU", "WORKER_CPU", "host_speed", "pin",
    "Sample", "Run", "set_up",
    "workload_ops", "execute", "run_op", "prime", "run_window", "verify",
    "xml_bytes", "timed", "end_to_end", "worker_pid",
    "cpu_seconds", "rss_mb", "dir_bytes",
]

#: WAL durability of the worker (the cluster default), on every run.
SYNC = "flush"

#: Auto-checkpoint period in logged updates.  The update workload
#: completes dozens of checkpoints in a run; the stalls (one update in
#: 64 waits for one) show in its ops_per_s.
CHECKPOINT_EVERY = 64

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Wall-clock length of a block of the timed window; the host's speed
#: is probed between blocks.
BLOCK_SECONDS = 1.0

#: Rate of :func:`host_speed` on an uncontended 2-vCPU cloud host, the
#: speed every timing is scaled to.  Each vCPU of such a host runs a
#: fixed loop anywhere from 190 to 360 times a second, in phases lasting
#: from a second to minutes, independently of the other vCPU and mostly
#: without any steal in ``/proc/stat`` (neighbours sharing its core and
#: caches).  Each latency and each set-up is multiplied by the worker
#: vCPU's speed measured around it over this reference, so runs made
#: in slow and fast phases compare.  The probe runs no code of the
#: program under test, so a change to the program moves the scaled
#: timings as it moves the raw ones.
REFERENCE_SPEED = 300.0

#: Passes of the probe loop per :func:`host_speed` call (~25 ms).
PROBE_PASSES = 8

#: The vCPUs the benchmark process (client and coordinator) and the
#: worker process are pinned to, so that the probe measures the vCPU
#: the worker runs on.  With a single vCPU both share it.
CLIENT_CPU = min(os.sched_getaffinity(0))
WORKER_CPU = max(os.sched_getaffinity(0))

#: Ops of the workload's own stream run after set-up and before the
#: window (untimed, but checked): the plan cache fills and the ingest
#: window reaches its steady size.  A count, not a time, so the state
#: the window starts from does not depend on the machine's speed.
PRIME_OPS = {"lookup": 230, "update": 250, "ingest": 15}

#: The op kind that defines each workload; ``op_p50_ms`` and
#: ``op_p90_ms`` are its latency (on ``lookup`` the same ops as the
#: ``query_*`` metrics).
MAIN_OP = {"lookup": "query", "update": "update", "ingest": "load"}

#: Tail percentile of the latency metrics: the highest one with about
#: ten samples beyond it on the workload with the fewest (ingest runs
#: under a hundred loads and queries).
TAIL = 90

_WARMUP = [text for dataset in inputs.DATASETS
           for _desc, text in QUERY_SETS[dataset]]


@dataclass
class Sample:
    op: tuple
    start: float
    end: float
    result: Any = None
    error: str | None = None
    block: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Run:
    """The set-up cluster and how long each set-up took."""

    cluster: ShardCluster
    root: str
    setup_seconds: list[float]
    setup_speed: list[float]


def set_up(base: str, docs: list[tuple[str, str]],
           times: int = SETUPS) -> Run:
    """Start a cluster, load the corpus and warm it with one pass of
    the 23 QUERY_SETS queries, ``times`` times; keep the last."""
    seconds: list[float] = []
    speed: list[float] = []
    for attempt in range(times):
        root = os.path.join(base, f"cluster{attempt}")
        before = host_speed()
        started = time.perf_counter()
        cluster = ShardCluster(root, shards=1, transport="process",
                               sync=SYNC,
                               checkpoint_every=CHECKPOINT_EVERY).start()
        try:
            pin(os.getpid(), CLIENT_CPU)
            pin(worker_pid(), WORKER_CPU)
            for name, xml in docs:
                cluster.load(name, xml)
            for text in _WARMUP:
                cluster.query(text)
        except BaseException:
            cluster.stop()
            raise
        seconds.append(time.perf_counter() - started)
        speed.append((before + host_speed()) / 2)
        if attempt < times - 1:
            cluster.stop()
            shutil.rmtree(root)
    return Run(cluster, root, seconds, speed)


def workload_ops(workload: str, seed: int,
                 docs: list[tuple[str, str]]) -> Iterator[tuple]:
    if workload == "lookup":
        return inputs.lookup_stream(seed, inputs.query_pool(seed, docs))
    if workload == "update":
        return inputs.update_stream(seed, docs)
    if workload == "ingest":
        return inputs.ingest_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")


def execute(cluster: ShardCluster, op: tuple):
    kind = op[0]
    if kind == "query":
        return cluster.query(op[1], document=op[2])
    if kind == "update":
        return cluster.update_text(op[1], op[2], op[3])
    if kind == "load":
        return cluster.load(op[1], op[2])
    if kind == "unload":
        return cluster.unload(op[1])
    raise ValueError(f"unknown op {kind!r}")


def run_op(cluster: ShardCluster, op: tuple) -> Sample:
    sample = Sample(op, time.perf_counter(), 0.0)
    try:
        sample.result = execute(cluster, op)
    except ReproError as exc:
        sample.error = f"{type(exc).__name__}: {exc}"
    sample.end = time.perf_counter()
    return sample


def prime(cluster: ShardCluster, ops: Iterator[tuple],
          workload: str) -> list[Sample]:
    """Run the first :data:`PRIME_OPS` ops of the stream."""
    return [run_op(cluster, next(ops)) for _ in range(PRIME_OPS[workload])]


def _probe_pass() -> None:
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i % 997] = counts.get(i % 997, 0) + i


def host_speed() -> float:
    """Passes per second of a fixed pure-Python loop on
    :data:`WORKER_CPU`: how fast the worker's vCPU runs right now.
    Called between ops, while the worker is idle."""
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {WORKER_CPU})
    try:
        started = time.perf_counter()
        for _ in range(PROBE_PASSES):
            _probe_pass()
        return PROBE_PASSES / (time.perf_counter() - started)
    finally:
        os.sched_setaffinity(0, mask)


def pin(pid: int, cpu: int) -> None:
    """Pin every thread of process ``pid`` to ``cpu``; threads it
    starts later inherit the pinning."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:
            pass  # the thread ended after the listing


def run_window(cluster: ShardCluster, ops: Iterator[tuple],
               seconds: float) -> tuple[list[Sample], list[float]]:
    """Closed loop for ``seconds`` of ops: each op is sent once the
    previous one answered.  Drawing the next op is outside its timed
    interval.

    Returns the samples, each tagged with its block (one per
    :data:`BLOCK_SECONDS` of wall time), and every block's host speed:
    the mean of the :func:`host_speed` probes run before and after it,
    outside the window's time."""
    samples: list[Sample] = []
    speed: list[float] = []
    probe = host_speed()
    deadline = time.perf_counter() + seconds
    block_end = time.perf_counter() + BLOCK_SECONDS
    while time.perf_counter() < deadline:
        sample = run_op(cluster, next(ops))
        sample.block = len(speed)
        samples.append(sample)
        if sample.end >= block_end or sample.end >= deadline:
            after = host_speed()
            speed.append((probe + after) / 2)
            probe = after
            block_end = time.perf_counter() + BLOCK_SECONDS
            deadline += block_end - BLOCK_SECONDS - sample.end
    return samples, speed


def verify(samples: list[Sample], oracle: Oracle,
           full_rows: bool = True) -> list[str]:
    """Replay acknowledged ops into the oracle in order and compare
    every answer; returns one message per failed op.  ``full_rows``
    compares nids too; without it only ``(document, pre)``, for runs
    whose worker minted extra nids (the traced ingest ladder)."""
    width = 3 if full_rows else 2
    failures = []
    memo: dict[tuple, list] = {}
    for sample in samples:
        op = sample.op
        if sample.error is not None:
            failures.append(f"{op[0]} {op[1]!r}: {sample.error}")
            continue
        kind = op[0]
        if kind == "query":
            key = (op[1], op[2])
            if key not in memo:
                memo[key] = [row[:width] for row in oracle.rows(*key)]
            if [tuple(row[:width]) for row in sample.result] != memo[key]:
                failures.append(f"query {op[1]!r}: {len(sample.result)} "
                                f"rows, oracle {len(memo[key])}")
            continue
        memo.clear()
        if kind == "update":
            oracle.update_text(op[2], op[3])
        elif kind == "load":
            oracle.load(op[1], op[2])
        elif kind == "unload":
            oracle.unload(op[1])
    return failures


def xml_bytes(oracle: Oracle) -> int:
    """UTF-8 bytes of the resident documents serialized as XML."""
    return sum(len(doc.serialize().encode())
               for doc in oracle.store.documents.values())


def timed(workload: str, seed: int, seconds: float,
          base: str) -> tuple[dict, int, list[str]]:
    """One timed run: set up, measure ``seconds``, checkpoint, check.
    Returns ``(metrics, attempted, failures)``."""
    docs = inputs.corpus(seed)
    ops = workload_ops(workload, seed, docs)
    run = set_up(base, docs)
    try:
        primed = prime(run.cluster, ops, workload)
        samples, speed = run_window(run.cluster, ops, seconds)
        run.cluster.checkpoint()
        worker_rss = rss_mb(worker_pid())
        stored = dir_bytes(run.root)
    finally:
        run.cluster.stop()
    print(f"host speed per block: median {median(speed):.0f}, "
          f"min {min(speed):.0f}, max {max(speed):.0f} "
          f"(reference {REFERENCE_SPEED:.0f})")
    oracle = Oracle(docs)
    failures = verify(primed + samples, oracle)
    setup = [t * v / REFERENCE_SPEED
             for t, v in zip(run.setup_seconds, run.setup_speed)]
    metrics = end_to_end(samples, speed, MAIN_OP[workload], setup,
                         stored / xml_bytes(oracle), worker_rss)
    return metrics, len(primed) + len(samples), failures


# ---------------------------------------------------------------------------
# Process probes (/proc)
# ---------------------------------------------------------------------------


def worker_pid() -> int:
    """The one worker process this benchmark started."""
    children: list[int] = []
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path) as fh:
            children += [int(pid) for pid in fh.read().split()]
    if len(children) != 1:
        raise RuntimeError(f"expected one worker process, found {children}")
    return children[0]


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of ``pid`` so far."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmRSS for pid {pid}")


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(top, name))
               for top, _dirs, names in os.walk(path) for name in names)


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------


def end_to_end(samples: list[Sample], speed: list[float], main_op: str,
               setup_seconds: list[float], store_ratio: float,
               worker_rss: float) -> dict:
    """Metric name → ``(value, unit, samples)``, each latency scaled to
    :data:`REFERENCE_SPEED` by its block's host speed.  Every workload
    reports the same metrics: ``query_*`` over its queries, ``op_*``
    over its ``main_op`` ops.

    Query latency is a mean and a tail rather than a median: on
    ``ingest`` every query misses the plan cache, string-equality
    misses cost ~5x numeric ones and make up just under half of the
    queries, so a median would jump between the two modes from run to
    run while the mean moves with their costs."""
    cost = [s.seconds * speed[s.block] / REFERENCE_SPEED for s in samples]

    def latencies_ms(kind: str) -> list[float]:
        lat = [c * 1e3 for s, c in zip(samples, cost) if s.op[0] == kind]
        if not lat:
            raise RuntimeError(f"no {kind} ops in the window")
        return lat

    query, main = latencies_ms("query"), latencies_ms(main_op)
    return {
        "setup_s": (median(setup_seconds), "s", len(setup_seconds)),
        "ops_per_s": (len(samples) / sum(cost), "1/s", len(samples)),
        "query_mean_ms": (fmean(query), "ms", len(query)),
        f"query_p{TAIL}_ms": (percentile(query, TAIL), "ms", len(query)),
        "op_p50_ms": (median(main), "ms", len(main)),
        f"op_p{TAIL}_ms": (percentile(main, TAIL), "ms", len(main)),
        "store_bytes_per_xml_byte": (store_ratio, "ratio", 1),
        "worker_rss_mb": (worker_rss, "MiB", 1),
    }
