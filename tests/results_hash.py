"""Print one sha256 over every benchmark job's result, to tell whether a
change to the library changed any result.

    python3 tests/results_hash.py TREE WORKLOAD SEED [--jobs]

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

Uses the standard library alone; pytest does not collect it.
"""
from __future__ import annotations

import dataclasses
import hashlib
import random
import sys
from pathlib import Path


def canonical(x):
    """x as nested lists of strings, floats as float.hex."""
    if isinstance(x, float):
        return x.hex()
    if x is None or isinstance(x, (bool, int, str)):
        return repr(x)
    if isinstance(x, (bytes, bytearray)):
        return x.hex()
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    if hasattr(x, "head") and hasattr(x, "tail"):   # a code
        return ["code", canonical(x.head), canonical(x.tail), str(x)]
    if dataclasses.is_dataclass(x):
        return [type(x).__name__] + [
            [f.name, canonical(getattr(x, f.name))]
            for f in dataclasses.fields(x) if not f.name.startswith("_")]
    raise TypeError(f"no canonical form for {type(x).__name__}")


def main(argv) -> int:
    per_job = argv[4:] == ["--jobs"]
    if len(argv) != 4 + per_job:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    tree, workload, seed = Path(argv[1]).resolve(), argv[2], int(argv[3])
    sys.path[:0] = [str(tree / "bench"), str(tree / "src")]
    import run
    from common import Budget, BudgetExpired
    from tracing import NullTracer

    wl = run.WORKLOADS[workload]
    run.cap_address_space()
    epc = run.fresh_epc()
    jobs = wl.setup(epc, random.Random(seed))["jobs"]
    budget, tracer = Budget(wl.BUDGET_S), NullTracer()
    digest = hashlib.sha256()
    outcomes = {}
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
        outcomes[outcome[0]] = outcomes.get(outcome[0], 0) + 1
        line = repr([canonical(job.key), outcome]).encode()
        digest.update(line)
        digest.update(b"\n")
        if per_job:
            print(hashlib.sha256(line).hexdigest()[:16], repr(job.key))
    counts = ", ".join(f"{n} {kind}" for kind, n in sorted(outcomes.items()))
    print(f"{workload} seed {seed}: {len(jobs)} jobs, {counts}")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
