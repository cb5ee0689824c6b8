"""`overflow`: each operation is one optimize_overflow solve.

The max_decay_rate / decay_rate_bound bisections and the models power sums
dominate; huffman and light_tail are called many times on small inputs at
changing bases, where `design` makes one large build; codec is not used. The
grid (sources x arrivals x loads) is repeated to fill the run.
"""
from __future__ import annotations

import math

from common import BOUND_TOL, Job, lognormal_weights, require

BUDGET_S = 1.0
# CPU seconds of one pass, its three budget expiries included, on the reference machine (2-core Xeon VM, at
# reference probe speed); a run makes round(--seconds / PASS_S) passes
PASS_S = 6.0
LOADS = (0.5, 0.8, 0.95)
MIN_ENTROPY = max(LOADS)   # bits, so that every Deterministic gap is >= 1
FINITE_SIZES = (16, 256, 1024)
# three seeded draws of each random source kind
SIGMAS = (0.5, 1.25, 2.0)        # lognormal spread of the finite weights
HEAD_LENGTHS = (8, 12, 16)       # geometric-tailed heads
TAIL_RATIOS = (0.2, 0.35, 0.5)
TABLE_SHAPE = 2.0     # the sampled transform is that of a gamma law

# Known defects, kept in on purpose and counted: each is run every pass.
DEFECT_JOBS = (("poisson", 1.0, 3.82), ("poisson", 5.0, 5.77))


def _table(epc, rng, mean_gap):
    """A TableTransform sampled from a gamma transform on a jittered grid."""
    law = epc.GammaArrivals(TABLE_SHAPE, TABLE_SHAPE / mean_gap)
    jitter = 1.0 + 0.1 * rng.random()
    points = [law.rate * 1e-4 * jitter * 2.0 ** (j / 2.0) for j in range(40)]
    return epc.TableTransform(((0.0, 1.0),) + tuple(
        (s, law.transform(s)) for s in points))


def setup(epc, rng) -> dict:
    sources = [(("geometric", r), epc.Geometric(r)) for r in (0.5, 0.9, 0.99)]
    sources += [(("poisson", m), epc.Poisson(m)) for m in (1.0, 5.0, 20.0)]
    data = []
    # the grids fix each draw's shape, the seed draws the values
    for sigma, h, ratio in zip(SIGMAS, HEAD_LENGTHS, TAIL_RATIOS):
        for n in FINITE_SIZES:
            probs = lognormal_weights(rng, n, sigma)
            data.append(probs)
            sources.append((("finite", n, hash(probs)),
                            epc.ExplicitFinite(probs)))
        head = [math.exp(0.5 * rng.gauss(0.0, 1.0)) for _ in range(h)]
        total = math.fsum(head) + head[-1] * ratio / (1.0 - ratio)
        head = tuple(w / total for w in head)
        data.append(head)
        sources.append((("tailed", hash(head), ratio),
                        epc.with_geometric_tail(head, ratio)))
    jobs = []
    for key, model in sources:
        entropy = epc.shannon_entropy(model)
        if entropy < MIN_ENTROPY:
            # a lognormal draw this skewed would need a gap under one bit
            # time at load 0.95, which Deterministic rejects; draw again
            return setup(epc, rng)
        for load in LOADS:
            gap = entropy / load
            arrivals = [
                ("deterministic", epc.Deterministic(gap)),
                ("exponential", epc.ExponentialArrivals(1.0 / gap)),
                ("gamma4", epc.GammaArrivals(4.0, 4.0 / gap)),
                ("table", _table(epc, rng, gap)),
            ]
            for name, arr in arrivals:
                jobs.append(Job("solve", key + (name, load), "overflow",
                                {"model": model, "arrivals": arr}))
    for _, mean, gap in DEFECT_JOBS:
        jobs.append(Job("solve", ("poisson", mean, "deterministic", gap),
                        "overflow", {"model": epc.Poisson(mean),
                                     "arrivals": epc.Deterministic(gap)}))
    rng.shuffle(jobs)
    return {"jobs": jobs, "data": data}


def run(job, epc, t):
    with t.span("overflow.solve"):
        res = epc.optimize_overflow(job.args["model"], job.args["arrivals"])
    t.add("overflow.fixed_point_iters", res.iterations)
    t.add("light_tail.split_total",
          sum(code.split for _, code in res.trace
              if isinstance(code, epc.UnaryEndedCode)))
    return res


def check(job, res, epc, state) -> None:
    rate = res.decay_rate
    require(rate >= 0.0, f"{job.key}: negative decay rate {rate!r}")
    f = epc.overflow_functional(job.args["model"], res.code,
                                job.args["arrivals"], rate)
    require(f <= 1.0 + BOUND_TOL, f"{job.key}: f(s*) = {f!r} > 1")
    rates = [r for r, _ in res.trace]
    require(all(a <= b + 1e-12 for a, b in zip(rates, rates[1:])),
            f"{job.key}: iterate rates not nondecreasing: {rates}")
    require(res.iterations == len(res.trace),
            f"{job.key}: {res.iterations} iterations, {len(res.trace)} iterates")
