"""Bottom-up optimal code construction for finite weight lists.

Every penalty here is a generalized Huffman merge (Parker, "Conditions for
optimality of the Huffman algorithm", SIAM J. Comput. 1980), run by the one
heap loop `_run`:

  exponential   merged weight = base * (w_j + w_k)
  order-d       merged weight = 2**d * (w_j + w_k) on w = p**(1+d), or
                d ln 2 + logaddexp(w_j, w_k) on w = ln p**(1+d)
  minimax       merged weight = 2 * max(w_j, w_k)

Order d merges plain weights when d < 64 and every weight, merged or not,
is a normal float, logs otherwise; rounding orders ties differently in the
two spaces, so merging every order in logs would change some lengths.

Ties are broken deterministically: lower weight first, then already-merged
nodes before original items, then first-created first. The two smallest keys
are merged each round and the earlier pop takes the 0 branch.
"""
from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

from .models import DthRedundancy, MaxRedundancy, Penalty
from .numeric import LN2, check_positive, logaddexp

__all__ = [
    "CodeTree", "TwoQueueTrace", "merge",
    "exp_huffman", "exp_huffman_two_queue", "maxred_huffman", "dth_huffman",
]

# merge-preference order at equal weight: merged nodes win
_COMPOUND, _LEAF = 0, 1


@dataclass(frozen=True)
class CodeTree:
    """Result of one construction run.

    objective is in bits (or expected bits); root_weight is the raw combined
    weight the objective was derived from.
    """

    lengths: tuple[int, ...]
    codewords: tuple[str, ...]
    root_weight: float
    objective: float


def _check_weights(weights, noun: str = "weights") -> list[float]:
    weights = [float(w) for w in weights]
    if not weights:
        raise ValueError("need at least one weight")
    if not all(map(math.isfinite, weights)):
        raise ValueError(f"{noun} must be finite")
    if any(w <= 0.0 for w in weights):
        raise ValueError(f"{noun} must be strictly positive")
    return weights


def _run(weights: list[float], combine: Callable[[float, float], float]):
    """Merge the two smallest nodes until one is left; return that root.

    A node is a (weight, kind, seq, children) tuple: a leaf's seq is its
    item index, a merged node's its creation number. (kind, seq) is unique,
    so tuple comparison is the tie-break and never reaches the children.
    """
    heap = [(w, _LEAF, i, None) for i, w in enumerate(weights)]
    heapq.heapify(heap)
    for seq in range(len(heap) - 1):
        first = heapq.heappop(heap)   # takes the 0 branch
        second = heap[0]
        heapq.heapreplace(heap, (combine(first[0], second[0]), _COMPOUND, seq,
                                 (first, second)))
    return heap[0]


def _collect(root, n: int) -> tuple[tuple[int, ...], tuple[str, ...]]:
    codewords = [""] * n
    stack = [(root, "")]
    while stack:
        (_, kind, seq, children), prefix = stack.pop()
        if kind == _LEAF:
            codewords[seq] = prefix
        else:
            stack.append((children[0], prefix + "0"))
            stack.append((children[1], prefix + "1"))
    return tuple(map(len, codewords)), tuple(codewords)


def _exp_tree(weights: list[float], base: float, root) -> CodeTree:
    lengths, codewords = _collect(root, len(weights))
    if base == 1.0:
        cost = math.fsum(w * n for w, n in zip(weights, lengths))
    else:
        cost = math.log(root[0]) / math.log(base)
    return CodeTree(lengths, codewords, root[0], cost)


def exp_huffman(weights, base: float) -> CodeTree:
    """Minimize log_base sum w * base**n (expected length when base == 1)."""
    check_positive("base", base)
    weights = _check_weights(weights)
    return _exp_tree(weights, base,
                     _run(weights, lambda a, b: base * (a + b)))


@dataclass
class TwoQueueTrace:
    """Observation hooks for the sorted-input construction."""

    order_violations: int = 0
    max_compound_queue: int = 0
    drained: Optional[tuple[int, ...]] = None   # node seqs queued when q1 empties
    depths: dict = field(default_factory=dict)  # node seq -> final depth


def exp_huffman_two_queue(weights, base: float,
                          trace: Optional[TwoQueueTrace] = None) -> CodeTree:
    """Same penalty as exp_huffman, built with two FIFO queues, no heap.

    Requires weights sorted nondecreasing. Queue one holds the original items
    smallest-first; queue two receives merged nodes in creation order and, by
    the combining rule here, never needs reordering. Nodes compare as in the
    heap engine, so merged nodes are preferred at equal weight.
    """
    check_positive("base", base)
    weights = _check_weights(weights)
    if any(a > b for a, b in zip(weights, weights[1:])):
        raise ValueError("weights must be sorted nondecreasing")
    n = len(weights)
    q1 = [(w, _LEAF, i, None) for i, w in enumerate(weights)]
    head1 = 0  # q1 is consumed front to back; q2 grows at the tail
    q2: list = []
    head2 = 0
    drained_at = None

    def pop_min():
        nonlocal head1, head2
        if head1 < n and (head2 == len(q2) or q1[head1] < q2[head2]):
            head1 += 1
            return q1[head1 - 1]
        head2 += 1
        return q2[head2 - 1]

    for seq in range(n - 1):
        first = pop_min()
        second = pop_min()
        merged = (base * (first[0] + second[0]), _COMPOUND, seq,
                  (first, second))
        q2.append(merged)
        if trace is not None:
            # order is a property of the live queue, not of past appends
            if len(q2) - head2 > 1 and merged[0] < q2[-2][0]:
                trace.order_violations += 1
            trace.max_compound_queue = max(trace.max_compound_queue,
                                           len(q2) - head2)
            if head1 >= n and drained_at is None:
                drained_at = tuple(node[2] for node in q2[head2:])
    root = pop_min()
    if trace is not None:
        trace.drained = drained_at if drained_at is not None else ()
        stack = [(root, 0)]
        while stack:
            (_, kind, seq, children), depth = stack.pop()
            if kind == _COMPOUND:
                trace.depths[seq] = depth
                stack.extend((child, depth + 1) for child in children)
    return _exp_tree(weights, base, root)


def maxred_huffman(weights) -> CodeTree:
    """Minimize max over i of n(i) + log2 w(i).

    The merge doubles the larger weight; the resulting root weight equals
    max w * 2**n and the objective is its log2. Lengths are invariant under
    scaling all weights by a common factor.
    """
    weights = _check_weights(weights)
    root = _run(weights, lambda a, b: 2.0 * max(a, b))
    lengths, codewords = _collect(root, len(weights))
    return CodeTree(lengths, codewords, root[0], math.log2(root[0]))


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
            root = _run(weights, lambda a, b: scale * (a + b))
    if root is not None and root[0] < math.inf:
        objective = math.log2(root[0]) / d
    else:
        ln_scale = d * LN2
        root = _run([(1.0 + d) * math.log(p) for p in probs],
                    lambda a, b: ln_scale + logaddexp(a, b))
        objective = root[0] / ln_scale
    lengths, codewords = _collect(root, len(probs))
    return CodeTree(lengths, codewords, root[0], objective)


def merge(weights, penalty: Penalty) -> CodeTree:
    """The optimal finite code for a penalty object: its merge rule, run by
    the one engine (Linear and Exponential merge at their base)."""
    if isinstance(penalty, MaxRedundancy):
        return maxred_huffman(weights)
    if isinstance(penalty, DthRedundancy):
        return dth_huffman(weights, penalty.order)
    return exp_huffman(weights, penalty.base)
