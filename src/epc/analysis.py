"""Redundancy evaluation and the analytic sweeps behind the plots.

Redundancy here is always penalty minus the matching entropy: the Renyi
entropy of order 1/(1 + log2 base) for the exponential penalty, Shannon
for the plain mean. The closed forms for geometric sources oscillate in
log2(-1/log2 theta); the sweep writers sample those curves on regular
grids and emit plain CSV.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional

from .golomb import GolombCode, optimal_k, optimal_k_mmr
from .models import (DthRedundancy, Exponential, Geometric, LengthSeq,
                     Linear, MaxRedundancy, Penalty, SourceModel,
                     evaluate_penalty, renyi_entropy, shannon_entropy)
from .numeric import frac_snapped, isfinite, shown

__all__ = [
    "avg_redundancy", "mmr_optimal_redundancy",
    "mmr_asymptotic", "avg_redundancy_asymptotic",
    "SweepSpec", "sweep",
]

_LOG2_LOG2_E = math.log2(math.log2(math.e))


def _finite(name: str, x: float) -> float:
    if not isfinite(x):
        raise ValueError(f"{name} must be finite, got {shown(x)}")
    return x


def avg_redundancy(model: SourceModel, lengths: LengthSeq,
                   base: float) -> float:
    """Exponential penalty minus the matching Renyi entropy."""
    return (evaluate_penalty(model, lengths, Exponential(base))
            - renyi_entropy(model, base))


def mmr_optimal_redundancy(ratio: float) -> float:
    """Best achievable worst-case pointwise redundancy for Geometric(ratio),
    ratio >= 1/2, in closed form.

    As ratio -> 1 it approaches mmr_asymptotic(x), x = log2(-1/log2 ratio),
    at the rate |R - A| <= (1 - ratio)/(2 ln 2) * (1 + O(1 - ratio)): with
    u = -1/log2 ratio and k = ceil(u), R - A = log2((1 - ratio) u log2 e)
    + (k - u)/u, where the first term is -(1 - ratio)/(2 ln 2) and the
    second lies in [0, 1/u) = [0, (1 - ratio)/ln 2), both to first order.
    """
    if not 0.5 <= ratio < 1.0:
        raise ValueError("ratio must lie in [1/2, 1)")
    l2t = math.log2(ratio)
    k = optimal_k_mmr(ratio)
    fx = frac_snapped(math.log2(-1.0 / l2t))
    return (2.0 + math.log2(-(1.0 - ratio) / l2t) - k * l2t
            - 2.0 ** (1.0 - fx) - fx)


def mmr_asymptotic(x: float) -> float:
    """ratio -> 1 limit of the worst-case redundancy, as a function of the
    fractional part x of log2(-1/log2 ratio).

    1-periodic, with minimum 1 - log2(log2 e) at x = 0 and maximum
    2 - log2 e at x = 1 - log2(log2 e). mmr_optimal_redundancy(ratio) stays
    within (1 - ratio)/(2 ln 2) * (1 + O(1 - ratio)) of it, so its sweep
    extremes near ratio = 1 miss these two limits by up to that much.
    """
    fx = frac_snapped(_finite("x", x))
    return 3.0 - _LOG2_LOG2_E - 2.0 ** (1.0 - fx) - fx


def avg_redundancy_asymptotic(x: float) -> float:
    """ratio -> 1 limit of the mean-length redundancy on the same axis."""
    fx = frac_snapped(_finite("x", x))
    return (1.0 - _LOG2_LOG2_E - math.log2(math.e)
            + 2.0 ** (2.0 - 2.0 ** (1.0 - fx)) - fx)


# ------------------------------------------------------------------ sweeps

_MAX_POINTS = 10 ** 6


def _grid_size(name: str, start: float, stop: float, step: float) -> int:
    """How many points start, start + step, ... reach stop, the endpoint
    included up to snap tolerance; a grid that is not finite, that runs
    backwards or that lists more than _MAX_POINTS is refused by name."""
    if not all(map(isfinite, (start, stop, step))):
        raise ValueError(f"the {name} grid must be finite")
    if step <= 0.0:
        raise ValueError(f"the {name} step must be positive, got {step!r}")
    if stop < start:
        raise ValueError(f"the {name} grid stops at {stop!r}, below its "
                         f"start {start!r}")
    steps = (stop - start) / step + 1e-9
    if steps >= _MAX_POINTS:
        raise ValueError(f"the {name} grid lists more than {_MAX_POINTS} "
                         "points")
    return int(steps) + 1


def _arange(start: float, stop: float, step: float) -> list[float]:
    # computed from the index, which avoids the drift of repeated adds
    n = _grid_size("sweep", start, stop, step)
    return [start + i * step for i in range(n)]


@dataclass(frozen=True)
class SweepSpec:
    """Grid parameters for one figure's data set.

    figure 2: penalty vs ratio for several exponential bases
    figure 3: mean length vs ratio (base 1)
    figure 4: limiting base-dependence factor
    figure 5: worst-case curves vs the oscillation coordinate
    """

    figure: int
    ratio_start: Optional[float] = None
    ratio_stop: Optional[float] = None
    ratio_step: Optional[float] = None
    bases: tuple[float, ...] = (0.75, 0.9, 1.1, 1.25, 1.5, 2.0)
    base_start: float = 0.5
    base_stop: float = 4.0
    base_step: float = 0.01
    orders: tuple[int, ...] = (1, 2, 4, 16, 256, 65536)

    def __post_init__(self) -> None:
        if self.figure not in (2, 3, 4, 5):
            raise ValueError("figure must be 2, 3, 4 or 5")
        _grid_size("ratio", *self._ratio_grid())
        _grid_size("base", self.base_start, self.base_stop, self.base_step)

    def _ratio_grid(self) -> tuple[float, float, float]:
        defaults = {2: (0.05, 0.95, 0.01), 3: (0.05, 0.95, 0.01),
                    5: (0.5, 0.99, 0.005)}
        grid = defaults.get(self.figure, (0.0, 0.0, 1.0))
        given = (self.ratio_start, self.ratio_stop, self.ratio_step)
        return tuple(d if g is None else g for d, g in zip(grid, given))

    def ratios(self) -> list[float]:
        return _arange(*self._ratio_grid())


def _fmt(x: float) -> str:
    return "%.12g" % x


def _best_golomb(ratio: float, penalty: Penalty) -> tuple[int, float]:
    """The optimal Golomb parameter for Geometric(ratio) and its value."""
    k = optimal_k(ratio, penalty)
    return k, evaluate_penalty(Geometric(ratio), GolombCode(k), penalty)


def sweep(spec: SweepSpec) -> str:
    """Render the figure's data set as CSV text, rows in grid order."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    if spec.figure == 2:
        w.writerow(["a", "theta", "k", "penalty", "entropy", "redundancy"])
        for a in spec.bases:
            if a <= 0.5:
                raise ValueError("exponential base must exceed 1/2")
            for th in spec.ratios():
                k, pen = _best_golomb(th, Exponential(a))
                ent = renyi_entropy(Geometric(th), a)
                w.writerow([_fmt(a), _fmt(th), k, _fmt(pen), _fmt(ent),
                            _fmt(pen - ent)])
    elif spec.figure == 3:
        w.writerow(["theta", "k", "mean_length", "entropy", "redundancy"])
        for th in spec.ratios():
            k, mean = _best_golomb(th, Linear())
            ent = shannon_entropy(Geometric(th))
            w.writerow([_fmt(th), k, _fmt(mean), _fmt(ent), _fmt(mean - ent)])
    elif spec.figure == 4:
        w.writerow(["a", "g"])
        for a in _arange(spec.base_start, spec.base_stop, spec.base_step):
            g = (math.sqrt(1.0 + 4.0 / a) - 1.0) / 2.0
            w.writerow([_fmt(a), _fmt(g)])
    else:
        w.writerow(["theta", "x", "curve", "k", "value"])
        for th in spec.ratios():
            x = math.log2(-1.0 / math.log2(th))
            k, value = _best_golomb(th, MaxRedundancy())
            w.writerow([_fmt(th), _fmt(x), "mmr", k, _fmt(value)])
            for d in spec.orders:
                k, value = _best_golomb(th, DthRedundancy(d))
                w.writerow([_fmt(th), _fmt(x), "d=%d" % d, k, _fmt(value)])
    return out.getvalue()
