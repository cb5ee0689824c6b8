"""Optimal codes for infinite alphabets whose tail decays fast enough, and
the one place a (source, penalty) pair picks its code family.

The construction reduces the source to its first r+1 probabilities plus one
pseudo-symbol carrying the (penalty-weighted) tail, runs the finite optimizer
on that reduced set, and then replaces the pseudo-symbol's codeword with an
all-1s prefix from which the remaining symbols continue in unary. The code
is those lengths, a LengthSeq; its codeword strings are built when asked.
"""
from __future__ import annotations

import math
from typing import Callable

from .errors import NotLightTailedError
from .golomb import GolombCode, optimal_k
from .huffman import _tilted
from .models import (_LN_MAX, _TINY, Exponential, Geometric, LengthSeq,
                     MaxRedundancy, Penalty, SourceModel, UnaryTail, _exp,
                     _ln_series, tail_weight)
from .numeric import LN2, ceil_snapped, check_positive

__all__ = [
    "UnaryEndedCode",
    "find_split_exponential", "find_split_mmr",
    "build_unary_ended", "build_unary_ended_mmr", "optimal_code",
]

_REL_TOL = 1e-12
_SPLIT_CAP = 10 ** 4


class UnaryEndedCode(LengthSeq):
    """Finite head code plus a unary continuation behind an all-1s prefix.

    Symbols 0..split take the canonical words of head_lengths; symbol
    i > split encodes as the all-1s tail_prefix of spine_length bits, then
    i - split - 1 ones, then a zero: the run at k = 1. A LengthSeq, whose
    codeword writes each word when asked for; a container holds it only
    Kraft-complete.
    """

    def __init__(self, head_lengths, spine_length: int) -> None:
        super().__init__(head_lengths, UnaryTail(spine_length))

    head_lengths = property(lambda self: self.head)
    spine_length = property(lambda self: self.tail.spine)
    tail_prefix = property(lambda self: "1" * self.spine_length)
    split = property(lambda self: len(self.head) - 1)

    def lengths(self) -> LengthSeq:
        return LengthSeq._of_tree(self.head, self.tail)

    def __repr__(self) -> str:
        return (f"UnaryEndedCode(head_lengths={self.head!r}, "
                f"spine_length={self.spine_length})")


# ------------------------------------------------------------ split search

def _minprefix_ok(value: float, floor: float) -> bool:
    return value <= floor * (1.0 + _REL_TOL)


def find_split_exponential(model: SourceModel, base: float) -> int:
    """Smallest r past which every symbol's probability is dominated by all
    earlier ones and also dominates its own weighted tail; the reduction to
    r+2 weights is then penalty-exact.

    A geometric-tailed source is probed only up to one symbol past its head,
    its tail weights taken in one backward pass; past that both conditions
    close in closed form."""
    check_positive("base", base)
    if model.size is not None:
        raise ValueError("finite sources need no tail split")
    rho = model.tail_ratio
    if rho is None:
        return _capped(max(_reach(2.0 * base * model.mean) - 2,
                           _reach(math.e * model.mean) - 1, 0))
    # past the head the tail is purely geometric; there the step-to-step
    # parts of the dominance conditions reduce to base*(rho + rho^2) <= 1,
    # which always holds at base <= 1/2
    if base * (rho + rho * rho) > 1.0 + _REL_TOL:
        raise NotLightTailedError("tail ratio too large for this base")
    probe_end = model.tail_start + 1
    p = model.masses(probe_end + 2)
    # tw[j] is tail_weight(model, j, base), by T(j) = base*(p(j+1) + T(j+1))
    tw = [0.0] * (probe_end + 1)
    tw[probe_end] = tail_weight(model, probe_end, base)
    for j in range(probe_end - 1, 0, -1):
        tw[j] = base * (p[j + 1] + tw[j + 1])
    floor = p[0]
    worst = 0
    for j in range(1, probe_end + 1):
        pj = p[j]
        if not (_minprefix_ok(pj, floor) and _minprefix_ok(tw[j], floor)):
            worst = j
        floor = min(floor, pj)
    # in the pure tail both conditions collapse to max(1,c)*p(j) <= floor
    # with c the tail-weight factor; once that holds it keeps holding, so
    # the first index past the probe where it holds ends the split search
    c = base * rho / (1.0 - base * rho)
    first = probe_end + 1
    holds_from = _tail_threshold(p[first] * max(1.0, c), floor, rho, first)
    return _capped(worst if holds_from == first else holds_from - 1)


def _reach(x: float) -> int:
    """ceil(x), clamped past the cap so that a huge Poisson mean is refused
    by _capped rather than by the ceiling of an infinity."""
    return ceil_snapped(min(x, 2.0 * _SPLIT_CAP))


def _capped(split: int) -> int:
    """The split, refused past _SPLIT_CAP: the build lists split + 1 point
    masses, so an uncapped split would cost time and memory without bound."""
    if split > _SPLIT_CAP:
        raise NotLightTailedError(f"no split found at or below {_SPLIT_CAP}")
    return split


def _tail_threshold(first_value: float, floor: float, rho: float,
                    first_index: int) -> int:
    """Smallest index at or past first_index where a geometric run starting
    at first_value has decayed to the floor."""
    if _minprefix_ok(first_value, floor):
        return first_index
    steps = ceil_snapped(math.log(floor / first_value) / math.log(rho))
    return first_index + max(steps, 0)


def find_split_mmr(model: SourceModel) -> int:
    """Smallest r with p(j) >= 2 p(j+1) for all j >= r and p(i) >= p(r) for
    all i < r; the mmr reduction doubles the first tail probability.

    A geometric-tailed source is probed only up to one symbol past its
    head: past that the halving rule is constant in j, and the floor
    condition closes in closed form."""
    if model.size is not None:
        raise ValueError("finite sources need no tail split")
    rho = model.tail_ratio
    if rho is None:
        return _capped(max(_reach(math.e * model.mean) - 1, 0))
    if rho > 0.5 + _REL_TOL:
        raise NotLightTailedError("tail ratio above 1/2 fails the halving rule")
    probe_end = model.tail_start + 1
    p = model.masses(probe_end + 2)
    halving_from = 0
    for j in range(probe_end + 1):
        if p[j] < 2.0 * p[j + 1] - _REL_TOL * p[j]:
            halving_from = j + 1
    floor = math.inf   # min probability strictly before the candidate
    for r in range(probe_end + 2):
        if r >= halving_from and floor >= p[r] * (1.0 - _REL_TOL):
            return r
        floor = min(floor, p[r])
    # pure geometric tail from here on; find where it sinks under the floor
    return _capped(max(halving_from, _tail_threshold(
        p[probe_end + 1], floor, rho, probe_end + 1)))


# -------------------------------------------------------------- assembly

def _assemble(weights, multiset) -> list[int]:
    """Reassign an optimal length multiset so heavier items get shorter
    codewords (stable on ties). Any such rearrangement preserves the optimum
    under every penalty used here, and it pins down the worked-example
    length patterns exactly."""
    # a reversed sort is still stable: tied weights keep their index order
    order = sorted(range(len(weights)), key=weights.__getitem__, reverse=True)
    ranked = sorted(multiset)
    out = [0] * len(weights)
    for pos, i in enumerate(order):
        out[i] = ranked[pos]
    return out


def _build(model: SourceModel, penalty: Penalty) -> UnaryEndedCode:
    """Reduce at the split to p(0), ..., p(r) and the tail's pseudo-weight,
    merge at the penalty's tilt, attach the tail. Where a reduced weight is
    not a normal float, the source's logs are merged and ranked instead."""
    tilt = penalty._tilt
    if tilt is None:    # the halving rule doubles the first tail mass
        r = find_split_mmr(model)
        ln_tail, tail = LN2 + model.ln_mass(r + 1), 2.0 * model.mass(r + 1)
    else:   # sum_{k>r} p(k) b**(k-r), as tail_weight sums it
        r = find_split_exponential(model, tilt[1])
        ln_tail = tilt[2] + _ln_series(model, r + 1, 1.0, tilt[2])
        tail = _exp(ln_tail, "the tail weight")
    weights = model.masses(r + 1) + [tail]
    ys = (model.ln_masses(0, r + 1) + [ln_tail] if min(weights) < _TINY
          else None)
    *head, spine = _assemble(ys or weights, _tilted(weights, tilt, ys).lengths)
    # the pseudo-symbol's word is the spine the unary run continues
    return UnaryEndedCode._of_tree(tuple(head), UnaryTail(spine))


def build_unary_ended(model: SourceModel, base: float) -> UnaryEndedCode:
    """Optimal infinite code under the base-exponential penalty for a
    light-tailed source."""
    return _build(model, Exponential(base))


def build_unary_ended_mmr(model: SourceModel) -> UnaryEndedCode:
    """Optimal infinite code under maximal pointwise redundancy for a
    source obeying the halving rule past the split."""
    return _build(model, MaxRedundancy())


# ------------------------------------------------------------ code choice

def optimal_code(model: SourceModel, penalty: Penalty) -> LengthSeq:
    """The optimal code for a source under a penalty object, the one choice
    of code family: a GolombCode for Geometric, a finite source's masses,
    checked when it was made, merged in the order it keeps, and a
    UnaryEndedCode for other sources (not at a positive order d)."""
    tilt = penalty._tilt
    if isinstance(model, Geometric):
        return GolombCode(optimal_k(model.ratio, penalty))
    if model.size is not None:
        return LengthSeq._of_tree(
            _tilted(model.probs, tilt, order=model._order).lengths)
    if tilt is not None and tilt[0] > 0.0:
        raise ValueError("dth-power redundancy codes need a geometric source")
    return _build(model, penalty)


def _base_check(model: SourceModel) -> Callable[[float], object] | None:
    """The split search optimal_code(model, Exponential(e**s)) runs before
    it merges, as a function of s, or None for a Golomb or finite code. Its
    refusals, a split past _SPLIT_CAP and base*(rho + rho^2) > 1, test
    quantities that grow with s, so one stands at every larger s."""
    if isinstance(model, Geometric) or model.size is not None:
        return None
    return lambda s: find_split_exponential(model, math.exp(min(s, _LN_MAX)))
