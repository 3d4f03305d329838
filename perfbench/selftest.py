#!/usr/bin/env python3
"""Show that the benchmark's checks catch a wrong answer.

For each workload, build its first round at a tiny size, confirm that it
passes as built, then corrupt one reference answer and run it again: the
run must report exactly that operation as failed, naming its seed and
case index.  A last case makes a malformed query of ``dense_queries`` fail
otherwise than its known fault does, which must also count as a wrong
answer.  Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import io
import sys

import run

SEED = 1


def _more_cases(op):
    op.expected["cases"]["oracle_equivalence"] += 1


def _bigger(op):
    op.expected["dimension"] += 1


def _flip(op):
    op.expected["stabilizes"] = not op.expected["stabilizes"]


def _crash(op):
    op.call = lambda: (3, "", "Traceback (most recent call last):\nTypeError\n")


#: (workload, which operation to corrupt: the first that passes the test,
#: corruption)
INJECTIONS = (
    ("group_suites", lambda op: "oracle_equivalence" in op.expected.get("cases", {}),
     _more_cases),
    ("weight_fans", lambda op: "dimension" in op.expected, _bigger),
    ("dense_queries", lambda op: "stabilizes" in op.expected, _flip),
    ("dense_queries", lambda op: op.known_fault is not None, _crash),
)


def failures(workload, ops):
    """(tally, failure lines other than known faults) for one round."""
    import workloads
    workloads.fresh_caches()
    log = io.StringIO()
    tally = run.Tally(workload, SEED)
    tally.add_round(0, ops, *run.run_round(ops), log=log)
    return tally, [line for line in log.getvalue().splitlines() if "known fault" not in line]


def main():
    run.load_program()
    import workloads
    bad = 0
    for workload, chosen, corrupt in INJECTIONS:
        build = workloads.WORKLOADS[workload]
        clean, lines = failures(workload, build(run.round_rng(workload, SEED, 0), True))
        if lines or not clean.correct:
            print(f"BAD {workload}: the tiny round fails as built: {lines}")
            bad += 1
            continue
        ops = build(run.round_rng(workload, SEED, 0), True)
        index = next(i for i, op in enumerate(ops) if chosen(op))
        corrupt(ops[index])
        tally, lines = failures(workload, ops)
        want = f"FAILED {workload} seed={SEED} round=0 case={index} "
        newly_failed = ops[index].known_fault is None
        ok = (not tally.correct and tally.failed == clean.failed + newly_failed
              and len(lines) == 1 and lines[0].startswith(want))
        print(f"{'ok ' if ok else 'BAD'} {workload}: {lines[0] if lines else 'no failure reported'}")
        bad += not ok
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
