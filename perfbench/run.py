#!/usr/bin/env python3
"""Layered benchmark of tropstab.

Run from the root of a checkout:

    python3 perfbench/run.py --workload group_suites --seed 1 --seconds 25 --trace 0

The run imports the program from ``src/`` and repeats rounds of the
workload (see ``workloads.py``) until ``--seconds`` have passed, checking
every output against ``reference.py``.  With ``--trace 0`` it reports the
end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` it
installs the tracer of ``layers.py`` around the timed part and reports the
per-layer metrics instead.  The last line of standard output is one JSON
object; failures are described on standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORKLOAD_NAMES = ("group_suites", "weight_fans", "dense_queries")

#: Operations a run attempts at least, so that, when they pass, ten
#: latencies lie beyond the 90th percentile.
MIN_QUERIES = 100
#: No round starts unless it can end within this many seconds of measuring.
TIME_LIMIT = 140.0
#: Set-up is measured once after every round, and at least this often.
SETUP_REPEATS = 7

#: Set-up as a user pays it: a fresh interpreter imports the package and
#: its command line, then answers one small query.
SETUP_CHILD = r"""
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import tropstab, tropstab.cli
t1 = time.perf_counter()
import io
sys.stdout = io.StringIO()
code = tropstab.cli.main(["stabilize", "--matrix", '[["1","1"],["0","1"]]',
                          "--point", '["0","0"]'])
t2 = time.perf_counter()
sys.stdout = sys.__stdout__
print(code, t1 - t0, t2 - t0)
"""


def load_program():
    """Import tropstab from the checkout's ``src/``, and nothing else."""
    if not (SRC / "tropstab" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'tropstab'} not found; "
                         "run from the root of a tropstab checkout")
    sys.path.insert(0, str(SRC))
    import tropstab.cli  # noqa: F401  (loads every module the tracer wraps)
    import tropstab
    if Path(tropstab.__file__).resolve().parent != (SRC / "tropstab").resolve():
        raise SystemExit(f"error: imported tropstab from {tropstab.__file__}")


def measure_setup():
    """(import seconds, set-up seconds) of one fresh interpreter, or None
    if its set-up query fails."""
    done = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    fields = done.stdout.split()
    if done.returncode != 0 or len(fields) != 3 or fields[0] != "0":
        print(f"FAILED set-up query: {done.stdout.strip()} {done.stderr.strip()}",
              file=sys.stderr)
        return None
    return float(fields[1]), float(fields[2])


def run_round(ops, tracer=None):
    """Call every operation; returns (seconds, [(output, error, latency)])."""
    results = []
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            try:
                out, err = op.call(), None
            except Exception as exc:  # recorded as a failed operation; the run goes on
                out, err = None, f"raised {type(exc).__name__}: {exc}"
            results.append((out, err, time.perf_counter() - t0))
        seconds = time.perf_counter() - start
    return seconds, results


def check_round(ops, results):
    """Yield (case index, op, problem or None, checked cases, latency)."""
    for i, (op, (out, err, latency)) in enumerate(zip(ops, results)):
        problem, cases = err, 0
        if err is None:
            try:
                problem, cases = op.check(out, op.expected)
            except Exception as exc:  # malformed output is a failed operation
                problem = f"output not readable: {type(exc).__name__}: {exc}"
        yield i, op, problem, cases, latency


class Tally:
    """What a run attempted, what failed, and what the passing operations took."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.attempted = self.failed = self.cases = 0
        self.correct = True
        self.round_s = []
        self.latencies = []

    def add_round(self, index, ops, seconds, results, log=sys.stderr):
        self.round_s.append(seconds)
        for i, op, problem, cases, latency in check_round(ops, results):
            self.attempted += 1
            if problem is None:
                self.cases += cases
                self.latencies.append(latency)
                continue
            self.failed += 1
            known = op.known_fault is not None and problem.startswith(op.known_error)
            if not known:
                self.correct = False
            if not known or index == 0:
                note = f" (known fault: {op.known_fault})" if known else ""
                print(f"FAILED {self.workload} seed={self.seed} round={index} case={i} "
                      f"[{op.label}]: {problem}{note}", file=log)


def round_rng(workload, seed, index):
    """The generator of one round's inputs; replays any round of any run."""
    return random.Random(f"{workload}/{seed}/{index}")


def run_workload(workload, seed, seconds, tracer=None, between_rounds=None):
    import workloads
    build = workloads.WORKLOADS[workload]
    tally = Tally(workload, seed)
    start = time.monotonic()
    longest = 0.0
    index = 0
    while True:
        began = time.monotonic()
        ops = build(round_rng(workload, seed, index))
        workloads.fresh_caches()
        tally.add_round(index, ops, *run_round(ops, tracer))
        if between_rounds:
            between_rounds()
        index += 1
        now = time.monotonic()
        longest = max(longest, now - began)
        elapsed = now - start
        enough = tracer is not None or tally.attempted >= MIN_QUERIES
        if (elapsed >= seconds and enough) or elapsed + longest > TIME_LIMIT:
            return tally


def end_to_end(tally, setup_s):
    """The end-to-end metrics; the latency ones only if two or more
    operations passed, since they are taken over passing operations, and
    ``setup_s`` only if every set-up query passed."""
    values = {
        "wall_s": statistics.median(tally.round_s),
        "cases_per_s": tally.cases / sum(tally.round_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lat = tally.latencies
    if len(lat) >= 2:
        values["query_p50_ms"] = 1e3 * statistics.median(lat)
        values["query_p90_ms"] = 1e3 * statistics.quantiles(lat, n=10)[8]
    if setup_s is not None:
        values["setup_s"] = setup_s
    return values


def per_layer(tally, tracer, import_s):
    """Per-round means of the traced totals, plus source line counts."""
    rounds = len(tally.round_s)
    values = {f"{layer}.self_s": s / rounds for layer, s in tracer.self_s.items()}
    values.update({key: s / rounds for key, s in tracer.inclusive.items()})
    values.update({key: n / rounds for key, n in tracer.counts.items()})
    if import_s is not None:
        values["cli.import_s"] = import_s
    values["traced.wall_s"] = statistics.median(tally.round_s)
    for path in sorted((SRC / "tropstab").glob("*.py")):
        lines = len(path.read_text(encoding="utf-8").splitlines())
        if path.stem != "__init__":
            values[f"{path.stem}.lines"] = lines
        values["src.lines"] = values.get("src.lines", 0) + lines
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    load_program()
    tracer = None
    if args.trace:
        from layers import Tracer
        tracer = Tracer()
    # set-up samples spread over the run see more of the machine's states
    setups = []
    tally = run_workload(args.workload, args.seed, args.seconds, tracer,
                         between_rounds=lambda: setups.append(measure_setup()))
    setups += [measure_setup() for _ in range(SETUP_REPEATS - len(setups))]
    import_s = setup_s = None
    if None in setups:
        tally.correct = False
    else:
        import_s = statistics.median(s[0] for s in setups)
        setup_s = statistics.median(s[1] for s in setups)

    if tracer is None:
        wanted, values = declared["end_to_end"], end_to_end(tally, setup_s)
    else:
        wanted, values = declared["per_layer"], per_layer(tally, tracer, import_s)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and tally.correct:
        raise SystemExit(f"error: BENCHMARK.json declares unknown metrics {missing}")
    # a run with wrong answers still reports its counts, without the
    # metrics it could not measure
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
