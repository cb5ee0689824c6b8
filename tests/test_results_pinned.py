"""Every benchmark job's result at seed 31, against its committed pin.

The job lists come from bench/ (read, not changed) and the library is the
epc this test run imported: no fresh import and no address-space cap, so
later tests see the same classes and the process keeps its limits. Each
job runs once under its workload's CPU budget. Re-pin with
`python3 tests/results_hash.py --pin` and name each moved job.
"""
import signal
import sys
import time

import epc
import results_hash


def test_every_benchmark_result_matches_its_pin():
    bench = str(results_hash.ROOT / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    pins = {workload: [] for workload in results_hash.WORKLOADS}
    for line in results_hash.PINS.read_text().splitlines():
        workload, pin = line.split(" ", 1)
        pins[workload].append(pin)
    handler = signal.getsignal(signal.SIGPROF)
    start = time.process_time()
    moved = []
    try:
        for workload, pinned in pins.items():
            got = [results_hash.job_line(key, line) for key, _, line in
                   results_hash.outcomes(epc, workload, results_hash.PIN_SEED)]
            assert len(got) == len(pinned), f"{workload}: job count moved"
            moved += [f"{workload} job {n}: {line.split(' ', 1)[1]}"
                      for n, (line, pin) in enumerate(zip(got, pinned))
                      if line != pin]
    finally:
        signal.signal(signal.SIGPROF, handler)
    assert not moved, "results moved:\n" + "\n".join(moved)
    assert time.process_time() - start < 5.0
