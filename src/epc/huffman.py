"""Bottom-up optimal code construction for finite weight lists.

Every penalty is one generalized Huffman merge (Parker, "Conditions for
optimality of the Huffman algorithm", SIAM J. Comput. 1980) at its tilt
(d, b, ln b) from models: b * (w_j + w_k) on the weights w = p**(1+d), or
ln b + logaddexp(w_j, w_k) on w = (1+d) ln p. d is 0 for the exponential
penalties (b = 1 is expected length) and b = 2**d at order d. Maximal
redundancy, the d -> inf limit, merges by 2 * max(w_j, w_k), or
ln 2 + max(w_j, w_k) on w = ln p. The one two-queue loop `_run` (van
Leeuwen, "On the construction of Huffman trees", ICALP 1976) runs each,
computing the rule inline at every merge.

The loop sorts its items once. A caller that already holds the weights'
stable sort passes it, and the plain merge at d = 0, whose weights are the
inputs themselves, skips the sort: a finite source keeps its own, and
sorted input is its own order.

The plain weights merge where d < 64 and both the smallest of them and the
root are positive normal floats; otherwise their logs do, sorted input
too, from the list a caller passes where it holds them (the light-tail
reduction). Rounding orders ties differently in the two spaces, so
merging every input in logs would change some lengths.

Ties are broken deterministically: lower weight first, then already-merged
nodes before original items, then first-created first (for items, lower
index first). The two smallest nodes are merged each round and the earlier
pop takes the 0 branch.
"""
from __future__ import annotations

import bisect
import math
import operator
import sys
from dataclasses import dataclass, field
from functools import cached_property
from math import exp, log1p

from .models import DthRedundancy, Exponential, MaxRedundancy, Penalty
from .numeric import LN2, check_weights

__all__ = [
    "CodeTree", "merge",
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


def _lengths(merges) -> tuple[int, ...]:
    """The items' depths, by the reverse walk of _codewords."""
    first, second = merges
    n = len(first) + 1
    depth = [0] * (2 * n - 1)
    for j in range(n - 2, -1, -1):
        depth[first[j]] = depth[second[j]] = depth[n + j] + 1
    return tuple(depth[:n])


def _run(weights, scale: float, kind: str, order=None):
    """Merge the two smallest nodes until one is left; return the root
    weight and the merge lists (first, second): merge j's children.

    kind names the rule, applied inline to the earlier pop a and the later
    b, where a <= b: "sum" is scale * (a + b) and "max" scale * b; in logs
    "ln_sum" is scale + logaddexp(a, b), written out as b + log1p(e**(a-b))
    with e**-inf taken as zero, and "ln_max" is scale + b.

    Items queue once, sorted by (weight, index) in `order`, the stable sort
    of the weights (computed here unless given), before an inf sentinel.
    Merges queue in `merged` by (weight, node id), the slots past the tail
    inf; at equal weight the merged head pops first. A merge is appended
    when no live merge is above it, and placed among the live merges by
    bisection otherwise, so every pop is the smallest live node whatever
    the rule's arithmetic does. A merge may fall below merges already
    popped (c * (a + b) < b when c < 1/2); only one below a live merge
    takes the bisection, which the rules here reach at most by rounding.
    """
    n = len(weights)
    if order is None:
        order = sorted(range(n), key=weights.__getitem__)   # stable
    items = [weights[i] for i in order]
    items.append(math.inf)
    merged = [math.inf] * n
    ids = [0] * n
    first = [0] * (n - 1)
    second = [0] * (n - 1)
    ln_zero = -math.inf
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
        if kind == "sum":
            w = scale * (a + b)
        elif kind == "ln_sum":
            # two -inf logs (masses past the floats at a high order) add
            # to -inf, where a - b would be nan
            w = scale + (b + log1p(exp(a - b)) if a != ln_zero else b)
        elif kind == "max":
            w = scale * b
        else:
            w = scale + b
        if head == tail or w >= merged[tail - 1]:
            merged[tail] = w
            ids[tail] = n + j
        else:
            at = bisect.bisect_right(merged, w, head, tail)
            merged.insert(at, w)
            ids.insert(at, n + j)
        tail += 1
    return w, (tuple(first), tuple(second))


def _tilted(weights, tilt, ln_weights=None, order=None) -> CodeTree:
    """The optimal tree at a tilt (d, b, ln b), or at the minimax limit
    None. ln_weights, where given, lists the weights' logs, read only when
    the merge takes logs; the weights may then be zero. order,
    where given, is the weights' stable sort; only the plain merge at d = 0
    reads it, since p**(1+d) and logs can round distinct weights to ties."""
    if tilt is None:
        d, b, ln_b = 0.0, 2.0, LN2
        plain, in_logs = "max", "ln_max"
    else:
        d, b, ln_b = tilt
        plain, in_logs = "sum", "ln_sum"
    root = None
    if b is not None:
        try:
            ws = [p ** (1.0 + d) for p in weights] if d else weights
        except OverflowError:   # a raw weight above one, at a high order
            ws = [0.0]
        if min(ws) >= sys.float_info.min:
            root, merges = _run(ws, b, plain, None if d else order)
    logged = root is None or not sys.float_info.min <= root < math.inf
    if logged:
        ys = ln_weights or list(map(math.log, weights))
        root, merges = _run([(1.0 + d) * y for y in ys] if d else ys, ln_b,
                            in_logs)
    lengths = _lengths(merges)
    if not ln_b:    # base one: the expected length
        try:
            cost = math.fsum(w * n for w, n in zip(weights, lengths))
        except OverflowError:   # a partial sum past the float range
            cost = math.inf
        if cost == math.inf:
            raise ValueError("the expected length overflows a float")
    elif logged:
        cost = root / ln_b
    else:
        cost = math.log2(root) if tilt is None else math.log(root) / ln_b
    return CodeTree(lengths, root, cost, merges)


def merge(weights, penalty: Penalty) -> CodeTree:
    """The optimal finite code for a penalty object, merged at its tilt."""
    return _tilted(check_weights(weights), penalty._tilt)


def exp_huffman(weights, base: float) -> CodeTree:
    """Minimize log_base sum w * base**n (expected length when base == 1)."""
    return merge(weights, Exponential(base))


def exp_huffman_two_queue(weights, base: float) -> CodeTree:
    """exp_huffman on weights sorted nondecreasing, merged in their own
    order with no sort. Kept only for the design benchmark's `two_queue`
    jobs, which call it by name."""
    tilt = Exponential(base)._tilt
    weights = check_weights(weights)
    if any(map(operator.gt, weights, weights[1:])):
        raise ValueError("weights must be sorted nondecreasing")
    # a stable sort of sorted weights is the identity
    return _tilted(weights, tilt, order=range(len(weights)))


def maxred_huffman(weights) -> CodeTree:
    """Minimize max over i of n(i) + log2 w(i).

    The merge doubles the larger weight; the resulting root weight equals
    max w * 2**n and the objective is its log2. Lengths are invariant under
    scaling all weights by a common factor.
    """
    return merge(weights, MaxRedundancy())


def dth_huffman(probs, order: float) -> CodeTree:
    """Minimize (1/d) log2 sum p**(1+d) 2**(d n): the exponential merge on
    weights p**(1+d) at base 2**d."""
    tilt = DthRedundancy(order)._tilt
    return _tilted(check_weights(probs, "probabilities"), tilt)
