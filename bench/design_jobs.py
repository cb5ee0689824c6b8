"""`design`: each operation is one code construction, its evaluation and a
check.

huffman, light_tail, models and analysis do the work; bits and codec do
almost none, so this workload should stay flat under codec changes.
Finite jobs run every merge rule over weight sets whose size is log-uniform
over 16..32768, light-tail jobs build unary-ended codes for Poisson and
geometric-tailed sources, and sweep jobs render the figure data sets.
"""
from __future__ import annotations

import csv
import io
import math

from common import (BOUND_TOL, Job, close, log_grid, lognormal_weights,
                    require, require_floor, require_kraft)

BUDGET_S = 10.0
# CPU seconds of one pass on the reference machine (2-core Xeon VM, at
# reference probe speed); a run makes round(--seconds / PASS_S) passes
PASS_S = 8.5
MIN_N, MAX_N = 16, 32768
BLOCKS = 12          # finite jobs: one per rule in each block of sizes
POISSON_MEANS = 16   # Poisson means per light-tail penalty
TAILED_SOURCES = 16
LIGHT_BASES = (1.0, 1.5, 2.0)

EXP_BASES = (0.7, 1.0, 1.1, 2.0)
RULES = [("exp", b) for b in EXP_BASES] + [("maxred", None), ("dth", 8.0),
                                            ("dth", 128.0)]

# Known defects, kept in on purpose and counted: each is run every pass.
DEFECT_JOBS = (
    [("light", "poisson", 40.0, 1.0)]
    + [("light", "poisson", m, a) for m in (70.0, 100.0, 1000.0)
       for a in LIGHT_BASES]
    + [("light", "poisson", 1000.0, "mmr"), ("entropy", "poisson", 1000.0, None)]
)


def _penalty(epc, rule):
    if rule == "mmr":
        return epc.MaxRedundancy()
    return epc.Linear() if rule == 1.0 else epc.Exponential(rule)


def _tailed_head(rng, i):
    """The i-th seeded head, with a geometric tail light enough for every
    base used: a grid fixes its length and tail ratio, the seed its values."""
    h = 4 + 2 * i
    ratio = 0.1 + 0.25 * (5 * i % TAILED_SOURCES) / (TAILED_SOURCES - 1)
    head = [math.exp(rng.gauss(0.0, 1.0)) for _ in range(h)]
    total = math.fsum(head) + head[-1] * ratio / (1.0 - ratio)
    return tuple(w / total for w in head), ratio


def setup(epc, rng) -> dict:
    jobs, data = [], []
    # finite: a log grid of sizes, each block of len(RULES) neighbouring
    # sizes dealt to the rules in rotation, so every rule spans the range
    sizes = log_grid(MIN_N, MAX_N, BLOCKS * len(RULES))
    units = []
    for b in range(BLOCKS):
        for i in range(len(RULES)):
            rule, param = RULES[(i + b) % len(RULES)]
            n = int(round(sizes[b * len(RULES) + i]))
            sigma = rng.uniform(0.5, 2.5)
            probs = lognormal_weights(rng, n, sigma)
            data.append(probs)
            model = epc.ExplicitFinite(probs)
            key = (rule, param, n, round(sigma, 12))
            unit = [Job("finite", key, "huffman",
                        {"rule": rule, "param": param, "model": model})]
            if rule == "exp":
                # twin: the two-queue engine on a sorted copy of the weights
                unit.append(Job("two_queue", key, "huffman",
                                {"base": param, "probs": tuple(sorted(probs)),
                                 "partner": key, "model": model}))
            units.append(unit)
    # light tail: Poisson means log-uniform over 1..1000, on interleaved
    # grids per penalty, and geometric-tailed sources under every penalty
    rules = LIGHT_BASES + ("mmr",)
    for j, rule in enumerate(rules):
        shift = (j + 0.5) / len(rules)
        for mean in log_grid(1.0, 1000.0, POISSON_MEANS, shift):
            units.append([_light(epc, "poisson", round(mean, 9), rule)])
    for i in range(TAILED_SOURCES):
        head, ratio = _tailed_head(rng, i)
        data.append(head)
        source = epc.with_geometric_tail(head, ratio)
        for rule in rules:
            units.append([Job("light", ("tailed", hash(head), ratio, rule),
                              "light_tail",
                              {"source": source, "rule": rule})])
    for kind, _, mean, rule in DEFECT_JOBS:
        if kind == "light":
            units.append([_light(epc, "poisson", mean, rule)])
        else:
            units.append([Job("entropy", ("poisson", mean), "models",
                              {"mean": mean, "source": epc.Poisson(mean)})])
    for figure in (2, 3, 4, 5):
        units.append([Job("sweep", (figure,), "analysis", {"figure": figure})])
    rng.shuffle(units)
    return {"jobs": [job for unit in units for job in unit], "data": data}


def _light(epc, kind, mean, rule):
    return Job("light", (kind, mean, rule), "light_tail",
               {"source": epc.Poisson(mean), "rule": rule})


# ------------------------------------------------------------------ runners

def run(job, epc, t):
    return _RUN[job.kind](job.args, epc, t)


def _run_finite(a, epc, t):
    rule, param, model = a["rule"], a["param"], a["model"]
    probs = model.probs
    with t.span("huffman.build"):
        if rule == "exp":
            tree = epc.exp_huffman(probs, param)
        elif rule == "maxred":
            tree = epc.maxred_huffman(probs)
        else:
            tree = epc.dth_huffman(probs, param)
    t.add("huffman.merges", len(probs) - 1)
    with t.span("models.eval"):
        if rule == "exp":
            penalty = _penalty(epc, param)
            floor = epc.renyi_entropy(model, param)
        elif rule == "maxred":
            penalty, floor = epc.MaxRedundancy(), 0.0
        else:
            penalty, floor = epc.DthRedundancy(param), 0.0
        value = epc.evaluate_penalty(model, epc.LengthSeq(tree.lengths), penalty)
    return tree, value, floor


def _run_two_queue(a, epc, t):
    probs = a["probs"]
    with t.span("huffman.build"):
        tree = epc.exp_huffman_two_queue(probs, a["base"])
    t.add("huffman.merges", len(probs) - 1)
    with t.span("models.eval"):
        floor = epc.renyi_entropy(a["model"], a["base"])
    return tree, floor


def _run_light(a, epc, t):
    source, rule = a["source"], a["rule"]
    with t.span("light_tail.build"):
        if rule == "mmr":
            code = epc.build_unary_ended_mmr(source)
        else:
            code = epc.build_unary_ended(source, rule)
    t.add("light_tail.split_total", code.split)
    with t.span("models.eval"):
        value = epc.evaluate_penalty(source, code.lengths(), _penalty(epc, rule))
        floor = 0.0 if rule == "mmr" else epc.renyi_entropy(source, rule)
    return code, value, floor


def _run_entropy(a, epc, t):
    with t.span("models.eval"):
        return epc.shannon_entropy(a["source"])


def _run_sweep(a, epc, t):
    spec = epc.SweepSpec(figure=a["figure"])
    with t.span("analysis.sweep"):
        text = epc.sweep(spec)
    return spec, text


_RUN = {"finite": _run_finite, "two_queue": _run_two_queue,
        "light": _run_light, "entropy": _run_entropy, "sweep": _run_sweep}


# ------------------------------------------------------------------- checks

def check(job, result, epc, state) -> None:
    _CHECK[job.kind](job, result, epc, state)


def _check_finite(job, result, epc, state):
    tree, value, floor = result
    rule = job.args["rule"]
    require_kraft(epc, tree.lengths)
    # the engine's root-weight objective against direct evaluation
    require(close(tree.objective, value, 1e-9),
            f"{job.key}: engine objective {tree.objective!r} != "
            f"evaluated {value!r}")
    require_floor(value, floor, f"{job.key} penalty")
    if rule == "exp":
        state[job.key] = tree.objective


def _check_two_queue(job, result, epc, state):
    tree, floor = result
    require_kraft(epc, tree.lengths)
    require_floor(tree.objective, floor, f"{job.key} two-queue penalty")
    heap = state.get(job.args["partner"])
    if heap is not None:   # None only when the heap partner did not verify
        require(close(tree.objective, heap, 1e-12),
                f"{job.key}: two-queue {tree.objective!r} != heap {heap!r}")


def _check_light(job, result, epc, state):
    code, value, floor = result
    require_kraft(epc, code.head_lengths, len(code.tail_prefix))
    require_floor(value, floor, f"{job.key} penalty")


def _check_entropy(job, result, epc, state):
    # independent route: direct summation of -p log2 p around the mode
    mean = job.args["mean"]
    width = int(40.0 * math.sqrt(mean)) + 40
    lo, hi = max(0, int(mean) - width), int(mean) + width
    terms = []
    for i in range(lo, hi + 1):
        ln_p = -mean + i * math.log(mean) - math.lgamma(i + 1)
        terms.append(-math.exp(ln_p) * ln_p / math.log(2.0))
    require(close(result, math.fsum(terms), 1e-9),
            f"Poisson({mean}) entropy {result!r} != {math.fsum(terms)!r}")


def _check_sweep(job, result, epc, state):
    spec, text = result
    rows = list(csv.reader(io.StringIO(text)))[1:]
    figure = spec.figure
    if figure == 2:
        expected = len(spec.bases) * len(spec.ratios())
    elif figure == 3:
        expected = len(spec.ratios())
    elif figure == 4:
        expected = int(math.floor((spec.base_stop - spec.base_start)
                                  / spec.base_step + 1e-9)) + 1
    else:
        expected = len(spec.ratios()) * (1 + len(spec.orders))
    require(len(rows) == expected,
            f"figure {figure}: {len(rows)} rows, expected {expected}")
    if figure == 4:
        at_one = [float(g) for a, g in rows if float(a) == 1.0]
        require(len(at_one) == 1 and close(at_one[0], (math.sqrt(5.0) - 1) / 2,
                                           1e-9),
                f"figure 4 value at base 1 is {at_one}")
        return
    # optimal Golomb redundancies lie in [0, 1) (Campbell's bound)
    for row in rows:
        red = float(row[-1])
        require(-BOUND_TOL <= red < 1.0 + BOUND_TOL,
                f"figure {figure}: redundancy {red!r} in row {row}")


_CHECK = {"finite": _check_finite, "two_queue": _check_two_queue,
          "light": _check_light, "entropy": _check_entropy,
          "sweep": _check_sweep}
