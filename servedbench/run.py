"""Served-path benchmark of the XML value indices.

Run from the repository root::

    python3 servedbench/run.py --workload lookup --seed 1 --seconds 10 --trace 0

``--trace 0`` is a timed run: it sets up a 1-shard process cluster,
drives the workload's seeded ops through it for ``--seconds`` in a
closed loop, checks every answer against ``evaluate_naive`` and
prints the end-to-end metrics.  ``--trace 1`` is the separate traced
run: it replays the same ops down the layer ladder (cluster, worker,
in-process engine) and prints the per-layer metrics (see
``ladder.py``).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; ``metrics``
holds exactly the ``end_to_end`` (or, traced, ``per_layer``) metrics
of ``BENCHMARK.json`` in their units, and a run that cannot report
every one of them exits with an error instead.

Workloads: ``lookup`` (read-only value-predicate queries), ``update``
(the paper's Figure 10 random text updates with read-backs) and
``ingest`` (windowed load/query/unload of small documents).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(ROOT, ".servedbench")

WORKLOADS = ("lookup", "update", "ingest")

#: Settings that would change what the program under test runs.
REFUSED_ENV = ("REPRO_SCALAR_EXEC", "REPRO_PARALLEL_BACKEND",
               "REPRO_BENCH_SCALE")


def _fs_type(path: str) -> str:
    """Filesystem type of the mount holding ``path``."""
    best, fstype = "", "unknown"
    path = os.path.realpath(path)
    with open("/proc/self/mounts") as fh:
        for line in fh:
            parts = line.split()
            mount = parts[1]
            if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                    and len(mount) >= len(best):
                best, fstype = mount, parts[2]
    return fstype


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    import inputs
    import served

    docs = inputs.corpus(seed)
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "data_fs": _fs_type(DATA), "sync": served.SYNC,
        "checkpoint_every": served.CHECKPOINT_EVERY,
        "transport": "process", "shards": 1, "clients": 1,
        "client_cpu": served.CLIENT_CPU, "worker_cpu": served.WORKER_CPU,
        "reference_speed": served.REFERENCE_SPEED,
        "corpus_scale": inputs.CORPUS_SCALE,
        "corpus_bytes": sum(len(xml.encode()) for _name, xml in docs),
    }


def manifest_units(trace: bool) -> dict[str, str]:
    """Name → unit of every metric ``BENCHMARK.json`` lists for the run:
    ``per_layer`` for a traced run, ``end_to_end`` otherwise."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        print(f"refusing to run with {', '.join(refused)} set",
              file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # A terminated run still stops its worker (the finally blocks run).
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))

    import ladder
    import served

    print(json.dumps({"provenance": provenance(
        args.workload, args.seed, args.seconds, bool(args.trace))}))
    base = os.path.join(DATA, f"run-{os.getpid()}")
    os.makedirs(base)
    try:
        if args.trace:
            metrics, attempted, failures = ladder.traced(
                args.workload, args.seed, args.seconds, base)
        else:
            metrics, attempted, failures = served.timed(
                args.workload, args.seed, args.seconds, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    units = manifest_units(bool(args.trace))
    got = {name: unit for name, (_value, unit, _count) in metrics.items()}
    if got != units:
        print(f"metrics {sorted(got.items())} do not match BENCHMARK.json "
              f"{sorted(units.items())}", file=sys.stderr)
        return 1
    metrics = {name: metrics[name] for name in units}
    for name, (value, unit, count) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit:8s} n={count}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _count) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
