"""Print one sha256 over every benchmark job's result, to tell whether a
change to the library changed any result.

    python3 tests/results_hash.py TREE WORKLOAD SEED [--jobs]
    python3 tests/results_hash.py --pin

TREE is a checkout of this repository, WORKLOAD one of stream, design and
overflow. The job lists come from TREE/bench and the library from TREE/src;
neither is changed. One pass runs every job once, untraced, under the
benchmark's per-operation budget and address-space cap, and the digest
takes each job's key with its result or its refusal (type and text). Floats
go in as float.hex, codes by head, tail and str, and a round trip as its
container bytes and decoded symbols; no timing goes in. A job stopped by
its budget or by the memory cap counts as stopped, whichever came first.
Equal digests from two trees at one workload and seed mean every result is
the same float, code and byte. --jobs also prints one line per job: the first 16 hex digits of a sha256
over that job's key and outcome alone, in the same form, then its key. So
a diff of two trees' lines names the jobs whose results moved:

    diff <(python3 tests/results_hash.py A stream 31 --jobs) \
         <(python3 tests/results_hash.py B stream 31 --jobs)

--pin writes those lines of seed 31 for all three workloads, each behind
its workload's name, from the checkout that holds this file to
tests/results_pins.txt, which tests/test_results_pinned.py reruns in
tier-1. A change that moves a result on purpose re-pins and names each
moved job.

Uses the standard library alone; pytest does not collect it.
"""
from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "tests" / "results_pins.txt"
PIN_SEED = 31
WORKLOADS = ("stream", "design", "overflow")


def canonical(x):
    """x as nested lists of strings, floats as float.hex."""
    if isinstance(x, float):
        return x.hex()
    if x is None or isinstance(x, (bool, int, str)):
        return repr(x)
    if isinstance(x, (bytes, bytearray)):
        return x.hex()
    if isinstance(x, (list, tuple)):
        if set(map(type, x)) <= {int}:     # decoded symbols, in one pass
            return list(map(repr, x))
        return [canonical(v) for v in x]
    if hasattr(x, "head") and hasattr(x, "tail"):   # a code
        return ["code", canonical(x.head), canonical(x.tail), str(x)]
    # a value's fields, in a tree from before the value base its dataclass
    # fields
    names = (x._fields() if callable(getattr(x, "_fields", None))
             else getattr(x, "__dataclass_fields__", None))
    if names is not None:
        return [type(x).__name__] + [[name, canonical(getattr(x, name))]
                                     for name in names
                                     if not name.startswith("_")]
    raise TypeError(f"no canonical form for {type(x).__name__}")


def outcomes(epc, workload: str, seed: int):
    """(key, outcome kind, line) per job of the workload at seed, each job
    run once under the benchmark's budget with this epc; the bench modules
    are imported from the first bench directory on sys.path."""
    import run
    from common import Budget, BudgetExpired
    from tracing import NullTracer

    wl = run.WORKLOADS[workload]
    jobs = wl.setup(epc, random.Random(seed))["jobs"]
    budget, tracer = Budget(wl.BUDGET_S), NullTracer()
    for job in jobs:
        try:
            with budget:
                result = wl.run(job, epc, tracer)
        except (BudgetExpired, MemoryError):
            outcome = ["stopped"]
        except Exception as exc:
            kind = "refused" if isinstance(exc, epc.EpcError) else "failed"
            outcome = [kind, type(exc).__name__, str(exc)]
        else:
            if workload == "stream":    # drop the encode and decode times
                result = result[:2]
            outcome = ["result", canonical(result)]
        yield job.key, outcome[0], repr([canonical(job.key), outcome]).encode()


def job_line(key, line: bytes) -> str:
    """A job's line: its outcome's short digest, then its key."""
    return f"{hashlib.sha256(line).hexdigest()[:16]} {key!r}"


def _fresh(tree: Path):
    """TREE's epc, freshly imported under the benchmark's cap, with TREE's
    bench first on sys.path."""
    sys.path[:0] = [str(tree / "bench"), str(tree / "src")]
    import run
    run.cap_address_space()
    return run.fresh_epc()


def main(argv) -> int:
    if argv[1:] == ["--pin"]:
        epc = _fresh(ROOT)
        with open(PINS, "w") as fh:
            for workload in WORKLOADS:
                for key, _, line in outcomes(epc, workload, PIN_SEED):
                    print(workload, job_line(key, line), file=fh)
        print(f"pinned seed {PIN_SEED} in {PINS}")
        return 0
    per_job = argv[4:] == ["--jobs"]
    if len(argv) != 4 + per_job:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    tree, workload, seed = Path(argv[1]).resolve(), argv[2], int(argv[3])
    epc = _fresh(tree)
    digest = hashlib.sha256()
    counts = {}
    for key, kind, line in outcomes(epc, workload, seed):
        counts[kind] = counts.get(kind, 0) + 1
        digest.update(line)
        digest.update(b"\n")
        if per_job:
            print(job_line(key, line))
    shown = ", ".join(f"{n} {kind}" for kind, n in sorted(counts.items()))
    print(f"{workload} seed {seed}: {sum(counts.values())} jobs, {shown}")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
