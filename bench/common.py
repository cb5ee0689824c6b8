"""Pieces shared by the three workloads: outcomes, the per-operation budget,
seeded stratified sampling and the tolerance-aware comparisons used by the
output checks."""
from __future__ import annotations

import heapq
import math
import signal
import time
from dataclasses import dataclass, field

VERIFIED, REFUSED, FAILED = "verified", "refused", "failed"


class BudgetExpired(BaseException):
    """Raised from SIGPROF when an operation overruns its budget. It derives
    from BaseException so that no `except Exception` inside the library can
    swallow it."""


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


# Every duration the benchmark reports is CPU time of its one thread. The
# closed loop is single-threaded and CPU-bound, so on an idle machine this
# equals wall time; on a shared virtual machine it leaves out the time the
# CPU was taken away (steal), which moves wall-clock figures by 10-20% from
# one minute to the next and says nothing about the program. The thread clock
# stays exact while the ITIMER_PROF budget is armed; the process clock then
# falls back to scheduler ticks.
clock = time.thread_time

# CPU time still moves with the load other tenants put on the shared core
# (their hyperthread, caches and memory bus): on the reference machine the
# same operation took 26 ms in one minute and 49 ms in the next. So a fixed
# probe of plain Python work, independent of epc, runs before every
# operation, and each operation's times are scaled by PROBE_REF_S over the
# median probe time of the operations around it (run.Tally.scales): they
# read as CPU time at the probe speed of an uncontended core of the
# reference machine (a 2-core Intel Xeon VM).
PROBE_REF_S = 4.0e-4


def _probe() -> int:
    acc, table = 0, {}
    for i in range(600):
        acc = (acc * 31 + i) & 0xFFFF
        table[i & 63] = acc
    words = [str(i) for i in range(300)]
    index = {w: i for i, w in enumerate(sorted(words, key=len))}
    heap = [(i * 7 % 101, i) for i in range(200)]
    heapq.heapify(heap)
    while len(heap) > 1:
        a, b = heapq.heappop(heap), heapq.heappop(heap)
        heapq.heappush(heap, (a[0] + b[0], a[1]))
    return acc + len(index) + len("".join(words))


def probe_s() -> float:
    """CPU time of one run of the fixed probe."""
    t0 = clock()
    _probe()
    return clock() - t0


class Budget:
    """Per-operation CPU-time budget through signal.setitimer(ITIMER_PROF)."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self._armed = False
        signal.signal(signal.SIGPROF, self._expire)

    def _expire(self, signum, frame) -> None:
        if self._armed:
            raise BudgetExpired(f"budget of {self.seconds} s expired")

    def __enter__(self) -> "Budget":
        self._armed = True
        signal.setitimer(signal.ITIMER_PROF, self.seconds)
        return self

    def __exit__(self, *exc) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_PROF, 0.0)


@dataclass
class Job:
    """One operation's inputs. `key` names the inputs in full (it is what the
    job-list fingerprint hashes); `layer` is the layer whose output the check
    inspects."""

    kind: str
    key: tuple
    layer: str
    args: dict = field(default_factory=dict)


def log_grid(lo: float, hi: float, k: int, shift: float = 0.5) -> list[float]:
    """k points spread log-uniformly over [lo, hi]: point i sits at fraction
    (i + shift) / k of the way in log x. The grid, not the seed, fixes sizes
    and means, so a pass costs the same from seed to seed; the seed varies
    the content (symbols, weights, heads) and the order."""
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (b - a) * (i + shift) / k) for i in range(k)]


def normalized(weights) -> tuple[float, ...]:
    total = math.fsum(weights)
    return tuple(w / total for w in weights)


def lognormal_weights(rng, n: int, sigma: float) -> tuple[float, ...]:
    return normalized([math.exp(sigma * rng.gauss(0.0, 1.0)) for _ in range(n)])


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def require_kraft(epc, lengths, extra_length: int = 0) -> None:
    """Exact Kraft sum <= 1 in integer arithmetic."""
    num, den = epc.bits.kraft_total(lengths, extra_length)
    require(num <= den, f"Kraft sum {num}/{den} exceeds 1")


# Campbell: the optimal base-a exponential penalty lies in [H_alpha, H_alpha+1)
# with alpha = 1/(1 + log2 a); redundancy-type objectives lie in [0, 1).
BOUND_TOL = 1e-9


def require_floor(value: float, floor: float, what: str) -> None:
    require(floor - BOUND_TOL <= value < floor + 1.0 + BOUND_TOL,
            f"{what} {value!r} outside [{floor!r}, {floor!r} + 1)")
