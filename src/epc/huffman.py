"""Bottom-up optimal code construction for finite weight lists.

Every penalty here is a generalized Huffman merge (Parker, "Conditions for
optimality of the Huffman algorithm", SIAM J. Comput. 1980), run by the one
two-queue loop `_run` (van Leeuwen, "On the construction of Huffman trees",
ICALP 1976):

  exponential   merged weight = base * (w_j + w_k), or
                ln base + logaddexp(w_j, w_k) on w = ln w
  order-d       merged weight = 2**d * (w_j + w_k) on w = p**(1+d), or
                d ln 2 + logaddexp(w_j, w_k) on w = ln p**(1+d)
  minimax       merged weight = 2 * max(w_j, w_k), or
                ln 2 + max(w_j, w_k) on w = ln w

Each rule merges plain weights and merges their logs instead when the plain
root is not a positive normal float. Order d also takes logs when d >= 64
or when its smallest weight is not a normal float. Rounding orders ties
differently in the two spaces, so merging every input in logs would change
some lengths.

Ties are broken deterministically: lower weight first, then already-merged
nodes before original items, then first-created first (for items, lower
index first). The two smallest nodes are merged each round and the earlier
pop takes the 0 branch.
"""
from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

from .models import DthRedundancy, MaxRedundancy, Penalty
from .numeric import LN2, check_positive, logaddexp

__all__ = [
    "CodeTree", "TwoQueueTrace", "merge",
    "exp_huffman", "exp_huffman_two_queue", "maxred_huffman", "dth_huffman",
]


@dataclass(frozen=True)
class CodeTree:
    """Result of one construction run.

    objective is in bits (or expected bits); root_weight is the raw combined
    weight the objective was derived from (its log when the merge ran in
    logs). The codewords are built from the merge lists on first read.
    """

    lengths: tuple[int, ...]
    root_weight: float
    objective: float
    _merges: tuple = field(repr=False)     # (first, second) from _run

    @cached_property
    def codewords(self) -> tuple[str, ...]:
        return tuple(_codewords(*self._merges))


def _check_weights(weights, noun: str = "weights") -> list[float]:
    weights = list(map(float, weights))
    if not weights:
        raise ValueError("need at least one weight")
    if not all(map(math.isfinite, weights)):
        raise ValueError(f"{noun} must be finite")
    if min(weights) <= 0.0:
        raise ValueError(f"{noun} must be strictly positive")
    return weights


def _normal(x: float) -> bool:
    """Whether x is a positive normal float: a plain root the rules keep."""
    return sys.float_info.min <= x < math.inf


def _codewords(first, second) -> list[str]:
    """The items' codewords from the merge lists.

    Items are nodes 0..n-1 and merge j is node n + j, with children
    first[j] (the earlier pop, on the 0 branch) and second[j]. A merge is
    created after its children, so one reverse walk reaches each parent
    before its children; the parent is then the last node held, and is
    dropped once its children have their codewords, so a deep tree holds
    each codeword string once.
    """
    code = [""] * (2 * len(first) + 1)
    for x, y in zip(reversed(first), reversed(second)):
        prefix = code.pop()
        code[x] = prefix + "0"
        code[y] = prefix + "1"
    return code


def _depths(first, second) -> list[int]:
    """Every node's depth, by node id, in the reverse walk of _codewords."""
    n = len(first) + 1
    depth = [0] * (2 * n - 1)
    for j in range(n - 2, -1, -1):
        depth[first[j]] = depth[second[j]] = depth[n + j] + 1
    return depth


def _lengths(merges) -> tuple[int, ...]:
    return tuple(_depths(*merges)[:len(merges[0]) + 1])


def _run(weights: list[float], combine: Callable[[float, float], float]):
    """Merge the two smallest nodes until one is left; return the root
    weight and the merge lists (first, second): merge j's children.

    Items queue once, sorted by (weight, index), before an inf sentinel.
    Merges queue in `merged` by (weight, node id), the slots past the tail
    inf; at equal weight the merged head pops first. A merge is appended
    when no live merge is above it, and placed among the live merges by
    bisection otherwise, so every pop is the smallest live node whatever
    `combine` does. A merge may fall below merges already popped
    (c * (a + b) < b when c < 1/2); only one below a live merge takes the
    bisection, which the rules here reach at most by rounding.
    """
    n = len(weights)
    order = sorted(range(n), key=weights.__getitem__)   # stable
    items = [weights[i] for i in order]
    items.append(math.inf)
    merged = [math.inf] * n
    ids = [0] * n
    first = [0] * (n - 1)
    second = [0] * (n - 1)
    i = 0
    head = tail = 0
    w = weights[0]
    for j in range(n - 1):
        if merged[head] <= items[i]:
            a = merged[head]
            first[j] = ids[head]
            head += 1
        else:
            a = items[i]
            first[j] = order[i]
            i += 1
        if merged[head] <= items[i]:
            b = merged[head]
            second[j] = ids[head]
            head += 1
        else:
            b = items[i]
            second[j] = order[i]
            i += 1
        w = combine(a, b)
        if head == tail or w >= merged[tail - 1]:
            merged[tail] = w
            ids[tail] = n + j
        else:
            at = bisect.bisect_right(merged, w, head, tail)
            merged.insert(at, w)
            ids.insert(at, n + j)
        tail += 1
    return w, (tuple(first), tuple(second))


def _exp_tree(weights: list[float], base: float, root: float,
              merges, ln_root: float) -> CodeTree:
    lengths = _lengths(merges)
    if base == 1.0:
        try:
            cost = math.fsum(w * n for w, n in zip(weights, lengths))
        except OverflowError:   # a partial sum past the float range
            cost = math.inf
        if cost == math.inf:
            raise ValueError("the expected length overflows a float")
    else:
        cost = ln_root / math.log(base)
    return CodeTree(lengths, root, cost, merges)


def _plain_or_logs(weights: list[float], plain, in_logs):
    """Merge the weights by `plain`, or their logs by `in_logs` when the
    plain root is not a positive normal float; return the root, the
    merge lists and whether the merge ran in logs."""
    root, merges = _run(weights, plain)
    if _normal(root):
        return root, merges, False
    return (*_run(list(map(math.log, weights)), in_logs), True)


def exp_huffman(weights, base: float) -> CodeTree:
    """Minimize log_base sum w * base**n (expected length when base == 1)."""
    check_positive("base", base)
    weights = _check_weights(weights)
    ln_base = math.log(base)
    root, merges, logged = _plain_or_logs(
        weights, lambda a, b: base * (a + b),
        lambda a, b: ln_base + logaddexp(a, b))
    return _exp_tree(weights, base, root, merges,
                     root if logged else math.log(root))


@dataclass
class TwoQueueTrace:
    """Observation hooks for the sorted-input construction."""

    order_violations: int = 0
    max_compound_queue: int = 0
    drained: Optional[tuple[int, ...]] = None   # node seqs queued when q1 empties
    depths: dict = field(default_factory=dict)  # node seq -> final depth


def exp_huffman_two_queue(weights, base: float,
                          trace: Optional[TwoQueueTrace] = None) -> CodeTree:
    """Same penalty as exp_huffman on plain weights, built with two FIFO
    queues, no sort and no bisection.

    Requires weights sorted nondecreasing and a positive normal root weight
    (exp_huffman merges logs otherwise). Queue one holds the items
    smallest-first; queue two receives merged nodes in creation order and,
    by the combining rule here, never needs reordering. Nodes compare as in
    exp_huffman, so merged nodes are preferred at equal weight. A merge's
    seq in the trace is its creation number.
    """
    check_positive("base", base)
    weights = _check_weights(weights)
    if any(a > b for a, b in zip(weights, weights[1:])):
        raise ValueError("weights must be sorted nondecreasing")
    n = len(weights)
    q1 = weights + [math.inf]
    q2 = [math.inf] * n   # merge j in slot j; the slots past it read inf
    first = [0] * (n - 1)
    second = [0] * (n - 1)
    head1 = head2 = 0
    drained_at = None
    root = weights[0]
    for j in range(n - 1):
        if q2[head2] <= q1[head1]:
            a = q2[head2]
            first[j] = n + head2
            head2 += 1
        else:
            a = q1[head1]
            first[j] = head1
            head1 += 1
        if q2[head2] <= q1[head1]:
            b = q2[head2]
            second[j] = n + head2
            head2 += 1
        else:
            b = q1[head1]
            second[j] = head1
            head1 += 1
        root = q2[j] = base * (a + b)
        if trace is not None:
            # order is a property of the live queue, not of past appends
            live = j + 1 - head2
            if live > 1 and root < q2[j - 1]:
                trace.order_violations += 1
            trace.max_compound_queue = max(trace.max_compound_queue, live)
            if head1 >= n and drained_at is None:
                drained_at = tuple(range(head2, j + 1))
    if not _normal(root):
        raise ValueError(f"root weight {root!r} must be finite and normal; "
                         "exp_huffman merges such inputs in logs")
    if trace is not None:
        trace.drained = drained_at if drained_at is not None else ()
        depth = _depths(first, second)      # by node id
        trace.depths.update((j, depth[n + j]) for j in range(n - 1))
    return _exp_tree(weights, base, root, (tuple(first), tuple(second)),
                     math.log(root))


def maxred_huffman(weights) -> CodeTree:
    """Minimize max over i of n(i) + log2 w(i).

    The merge doubles the larger weight; the resulting root weight equals
    max w * 2**n and the objective is its log2. Lengths are invariant under
    scaling all weights by a common factor.
    """
    weights = _check_weights(weights)
    root, merges, logged = _plain_or_logs(
        weights, lambda a, b: 2.0 * max(a, b), lambda a, b: LN2 + max(a, b))
    objective = root / LN2 if logged else math.log2(root)
    return CodeTree(_lengths(merges), root, objective, merges)


def dth_huffman(probs, order: float) -> CodeTree:
    """Minimize (1/d) log2 sum p**(1+d) 2**(d n): the exponential merge on
    weights p**(1+d) at base 2**d. Orders of 64 and up, and inputs whose
    smallest p**(1+d) is not a normal float or whose largest p**(1+d) or
    root weight overflows, merge ln p**(1+d) instead."""
    check_positive("order", order)
    probs = _check_weights(probs, "probabilities")
    d = order
    root = None
    if d < 64.0:
        try:
            weights = [p ** (1.0 + d) for p in probs]
        except OverflowError:   # a raw weight above one, at a high order
            weights = None
        if weights and min(weights) >= sys.float_info.min:
            scale = 2.0 ** d
            root, merges = _run(weights, lambda a, b: scale * (a + b))
    if root is not None and _normal(root):
        objective = math.log2(root) / d
    else:
        ln_scale = d * LN2
        root, merges = _run([(1.0 + d) * math.log(p) for p in probs],
                            lambda a, b: ln_scale + logaddexp(a, b))
        objective = root / ln_scale
    return CodeTree(_lengths(merges), root, objective, merges)


def merge(weights, penalty: Penalty) -> CodeTree:
    """The optimal finite code for a penalty object: its merge rule, run by
    the one engine (Linear and Exponential merge at their base)."""
    if isinstance(penalty, MaxRedundancy):
        return maxred_huffman(weights)
    if isinstance(penalty, DthRedundancy):
        return dth_huffman(weights, penalty.order)
    return exp_huffman(weights, penalty.base)
