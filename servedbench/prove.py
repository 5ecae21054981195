"""Steadiness proof: rerun each workload and report every metric's spread.

Run from the repository root::

    python3 servedbench/prove.py                 # 10 seeds x every workload
    python3 servedbench/prove.py --runs 5 --workloads update --sets 2

Each run is ``servedbench/run.py`` with its own ``--seed`` (seeds
``1..runs``; the second of ``--sets 2`` uses ``runs+1..2*runs``).  For
every workload and end-to-end metric of ``BENCHMARK.json`` it prints
the median, the quartiles of :func:`statistics.quantiles` and the
spread ``(q3 - q1) / median`` against the metric's bound, and with
two sets how much worse the second median is than the first.  A
spread at or above a third of the bound (``setup_s`` excepted) and a
second median worse than the first by more than the bound are
flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from stats import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, seed: int, seconds: int) -> tuple[dict, str]:
    """The run's result object and its host-speed line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode:
        raise RuntimeError(f"{workload} seed {seed} exited with "
                           f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    speed = next((line for line in lines if line.startswith("host speed")),
                 "")
    return json.loads(lines[-1]), speed


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}

    steady = True
    for workload in args.workloads:
        sets: list[dict[str, list[float]]] = []
        for which in range(args.sets):
            values: dict[str, list[float]] = {}
            for i in range(args.runs):
                seed = which * args.runs + i + 1
                result, speed = _run(workload, seed, args.seconds)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: {result['failed']} of "
                          f"{result['attempted']} ops failed")
                    steady = False
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                print(f"{workload:7s} seed {seed:3d} " + " ".join(
                    f"{name}={metric['value']:.4g}"
                    for name, metric in result["metrics"].items())
                    + f" | {speed}", flush=True)
            sets.append(values)
        for name, bound in bounds.items():
            if name not in sets[0]:
                continue
            for which, values in enumerate(sets):
                mid, q1, q3, spread = quartile_spread(values[name])
                flag = "ok" if name == "setup_s" or spread < bound / 3 \
                    else "SPREAD"
                if flag != "ok":
                    steady = False
                line = (f"{workload:7s} set{which + 1} {name:26s} "
                        f"median {mid:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                        f"spread {spread:6.3f} / bound {bound:.2f}  {flag}")
                if which == 1:
                    first = quartile_spread(sets[0][name])[0]
                    worse = (mid - first if lower[name] else first - mid) \
                        / abs(first)
                    line += f"  worse by {worse:+.3f}"
                    if worse > bound:
                        line += " DRIFT"
                        steady = False
                print(line, flush=True)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
