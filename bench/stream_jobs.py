"""`stream`: each operation encodes one container and decodes it again.

bits, codec and golomb do nearly all the work. Container lengths are
log-uniform over 16..65536 symbols, so the median container is small and its
latency is set by descriptor parsing and table building, while symbol
throughput is set by per-bit reads in the large ones. A decoder that moves
work into table building therefore shows up on decode_sym_per_s and
op_p50_ms in opposite directions.
"""
from __future__ import annotations

import math

from common import Job, clock, log_grid, normalized, require

BUDGET_S = 10.0
# CPU seconds of one pass on the reference machine (2-core Xeon VM, at
# reference probe speed); a run makes round(--seconds / PASS_S) passes
PASS_S = 8.5
MIN_LEN, MAX_LEN = 16, 65536
CONTAINERS = 24   # per family and pass
POOL = MAX_LEN    # symbols drawn per source; containers are slices of it
POISSON_MEAN = 4.0


def _geometric_pool(rng, ratio: float) -> list[int]:
    ln_r = math.log(ratio)
    return [int(math.log(1.0 - rng.random()) / ln_r) for _ in range(POOL)]


def _poisson_pool(rng, mean: float) -> list[int]:
    limit = math.exp(-mean)
    out = []
    for _ in range(POOL):
        k, prod = 0, rng.random()
        while prod > limit:
            k += 1
            prod *= rng.random()
        out.append(k)
    return out


def _zipf(size: int) -> tuple[float, ...]:
    return normalized([1.0 / (i + 1) for i in range(size)])


def _zipf_pool(rng, probs) -> list[int]:
    cum, acc = [], 0.0
    for p in probs:
        acc += p
        cum.append(acc)
    return rng.choices(range(len(probs)), cum_weights=cum, k=POOL)


def setup(epc, rng) -> dict:
    """Build the stream codes and the symbol pools, then cut the containers."""
    families = {}
    for k in (1, 3, 64):
        # ratio 2**(-1/k) makes k the optimal Golomb parameter
        ratio = 0.5 ** (1.0 / k)
        if epc.optimal_k_exponential(ratio, 1.0) != k:
            raise RuntimeError(f"ratio {ratio} does not select Golomb k={k}")
        families[f"golomb{k}"] = (epc.GolombCode(k), _geometric_pool(rng, ratio))
    for size in (256, 4096):
        probs = _zipf(size)
        lengths = epc.exp_huffman(probs, 1.0).lengths
        families[f"zipf{size}"] = (epc.ExplicitCode.from_lengths(lengths),
                                   _zipf_pool(rng, probs))
    pool = _poisson_pool(rng, POISSON_MEAN)
    source = epc.Poisson(POISSON_MEAN)
    families["unary1"] = (epc.build_unary_ended(source, 1.0), pool)
    families["unary2"] = (epc.build_unary_ended(source, 2.0), pool)
    families["unary_mmr"] = (epc.build_unary_ended_mmr(source), pool)

    jobs = []
    for f, (name, (code, pool)) in enumerate(families.items()):
        doubled = pool + pool
        # each family's grid is offset, so the lengths interleave and the
        # latency distribution has no steps for the median to sit between
        shift = (f + 0.5) / len(families)
        for length in log_grid(MIN_LEN, MAX_LEN, CONTAINERS, shift):
            n = int(round(length))
            start = rng.randrange(POOL)
            jobs.append(Job("roundtrip", (name, n, start), "codec",
                            {"code": code, "symbols": doubled[start:start + n]}))
    rng.shuffle(jobs)
    return {"jobs": jobs, "pools": {n: p for n, (_, p) in families.items()}}


def run(job, epc, t):
    symbols = job.args["symbols"]
    t0 = clock()
    with t.span("codec.encode"):
        blob = epc.encode(symbols, job.args["code"])
    t1 = clock()
    with t.span("codec.decode"):
        decoded = epc.decode(blob)
    t2 = clock()
    return blob, decoded, t1 - t0, t2 - t1


def check(job, result, epc, state) -> None:
    _, decoded, _, _ = result
    require(decoded == job.args["symbols"],
            f"round trip of {job.key} changed the symbols")


def account(result) -> dict:
    """The stream-only counts of a verified operation."""
    blob, decoded, enc_s, dec_s = result
    return {"symbols": len(decoded), "bits": 8 * len(blob),
            "encode_s": enc_s, "decode_s": dec_s}


def stream_metrics(totals) -> dict:
    syms = totals["symbols"]
    return {"encode_sym_per_s": syms / totals["encode_s"],
            "decode_sym_per_s": syms / totals["decode_s"],
            "payload_bits_per_sym": totals["bits"] / syms}
