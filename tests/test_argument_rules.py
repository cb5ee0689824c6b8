"""One rule per argument kind.

Every public entry point that takes a ratio, a Golomb k, a symbol, or a
finite (or finite nonnegative, or finite positive) float refuses the same
bad inputs with that kind's one message, the value cut short, and reads an
integer through operator.index wherever an integer goes.
"""
import math

import pytest

from epc import (Deterministic, DthRedundancy, ExplicitFinite, Exponential,
                 ExponentialArrivals, GammaArrivals, Geometric, GolombCode,
                 LengthSeq, Linear, OverflowResult, Poisson, SweepSpec,
                 TableTransform, UnaryTail, avg_redundancy_asymptotic,
                 complete_binary, encode, exp_huffman, find_split_exponential,
                 mmr_asymptotic, optimal_k, optimal_k_exponential,
                 optimal_k_mmr, overflow_functional, point_mass, power_sum,
                 renyi_entropy, tail_weight, with_geometric_tail)

_FAR = 10 ** 400    # no float holds it; its repr has 401 digits
_NAN = math.nan
_UNARY = LengthSeq((), UnaryTail(0))
_CODE = LengthSeq((1, 2), UnaryTail(2))     # a head, then a unary run

_RATIO = "must lie in (0, 1), got "
_K = "k must be a positive integer, got "
_INTEGER = "symbols are integers, got "
_NEGATIVE = "symbols are nonnegative"
_FINITE = "must be finite, got "
_NONNEGATIVE = "must be finite and nonnegative, got "
_POSITIVE = "must be positive, got "

# kind -> (the entry points, each a call of the one argument, and the bad
# inputs with the kind's text for each). 10**400 is a valid symbol (its
# mass rounds to 0) and a valid complete-binary k, so only -10**400 is bad
# there; -1 is a valid x for the asymptotic curves.
_KINDS = {
    "ratio": ({
        "Geometric": Geometric,
        "with_geometric_tail": lambda r: with_geometric_tail((0.5,), r),
        "optimal_k": lambda r: optimal_k(r, Linear()),
        "optimal_k_exponential": lambda r: optimal_k_exponential(r, 2.0),
        "optimal_k_mmr": optimal_k_mmr,
    }, [(_NAN, _RATIO), (_FAR, _RATIO), (-_FAR, _RATIO), (-1, _RATIO)]),
    "k": ({
        "GolombCode": GolombCode,
        "complete_binary": lambda k: complete_binary(0, k),
    }, [(_NAN, _K), (-_FAR, _K), (2.0, _K), ("3", _K), (-1, _K), (0, _K)]),
    "symbol": ({
        "point_mass": lambda i: point_mass(Poisson(3.0), i),
        "length_at": _CODE.length_at,
        "codeword": _CODE.codeword,
        "encode": lambda i: encode([i], GolombCode(3)),
        "complete_binary-x": lambda x: complete_binary(x, 3),
    }, [(_NAN, _INTEGER), (-_FAR, _NEGATIVE), (2.0, _INTEGER),
        ("3", _INTEGER), (-1, _NEGATIVE)]),
    # tail_weight's j is a symbol with the floor -1: the whole support
    "symbol-from-minus-one": ({
        "tail_weight": lambda j: tail_weight(Poisson(3.0), j, 2.0),
    }, [(_NAN, _INTEGER), (-_FAR, _NEGATIVE), (2.0, _INTEGER),
        ("3", _INTEGER), (-2, _NEGATIVE)]),
    "finite": ({
        "mmr_asymptotic": mmr_asymptotic,
        "avg_redundancy_asymptotic": avg_redundancy_asymptotic,
        "Deterministic": Deterministic,
    }, [(_NAN, _FINITE), (_FAR, _FINITE), (-_FAR, _FINITE),
        (math.inf, _FINITE)]),
    "nonnegative": ({
        "overflow_functional": lambda s: overflow_functional(
            Geometric(0.5), _UNARY, ExponentialArrivals(1.0), s),
        "overflow_estimate": OverflowResult(
            _UNARY, 0.5, False, ()).overflow_estimate,
        "Deterministic.ln_transform": Deterministic(2.0).ln_transform,
        "ExponentialArrivals.ln_transform": ExponentialArrivals(
            1.0).ln_transform,
        "GammaArrivals.ln_transform": GammaArrivals(2.0, 1.0).ln_transform,
        "TableTransform.ln_transform": TableTransform(
            ((0.0, 1.0), (1.0, 0.5))).ln_transform,
        "transform": Deterministic(2.0).transform,
    }, [(_NAN, _NONNEGATIVE), (_FAR, _NONNEGATIVE), (-_FAR, _NONNEGATIVE),
        (-1, _NONNEGATIVE), (math.inf, _NONNEGATIVE)]),
    "positive": ({
        "Poisson": Poisson,
        "Exponential": Exponential,
        "DthRedundancy": DthRedundancy,
        "ExponentialArrivals": ExponentialArrivals,
        "GammaArrivals-shape": lambda a: GammaArrivals(a, 1.0),
        "GammaArrivals-rate": lambda r: GammaArrivals(1.0, r),
        "tail_weight": lambda b: tail_weight(Poisson(3.0), 2, b),
        "power_sum": lambda b: power_sum(Geometric(0.5), _UNARY, b),
        "renyi_entropy": lambda b: renyi_entropy(Geometric(0.5), b),
        "find_split_exponential": lambda b: find_split_exponential(
            Poisson(3.0), b),
        "exp_huffman": lambda b: exp_huffman((0.5, 0.5), b),
        "SweepSpec": lambda s: SweepSpec(figure=2, ratio_step=s),
    }, [(_NAN, _FINITE), (_FAR, _FINITE), (-_FAR, _FINITE),
        (math.inf, _FINITE), (-10 ** 300, _POSITIVE), (0, _POSITIVE),
        (-1, _POSITIVE)]),
}


def _label(x) -> str:
    return {_FAR: "+far", -_FAR: "-far", -10 ** 300: "-1e300"}.get(x, repr(x))


_CASES = [pytest.param(call, x, text, id=f"{kind}-{name}-{_label(x)}")
          for kind, (calls, bad) in _KINDS.items()
          for name, call in calls.items() for x, text in bad]


@pytest.mark.parametrize("call, x, text", _CASES)
def test_each_kind_refuses_its_bad_inputs_with_one_text(call, x, text):
    with pytest.raises(ValueError) as exc:
        call(x)
    message = str(exc.value)
    assert text in message and len(message) < 100, message


class _Index:
    """An integer in all but type: it answers __index__ alone."""

    def __init__(self, n: int) -> None:
        self.n = n

    def __index__(self) -> int:
        return self.n


@pytest.mark.parametrize("call, n", [
    (GolombCode, 3),
    (lambda k: complete_binary(0, k), 5),
    (lambda x: complete_binary(x, 5), 4),
    (lambda i: point_mass(Poisson(3.0), i), 2),
    (lambda j: tail_weight(Poisson(3.0), j, 2.0), -1),
    (_CODE.length_at, 3),
    (_CODE.codeword, 3),
    (lambda i: encode([i, 1], GolombCode(3)), 9),
], ids=["GolombCode", "complete_binary-k", "complete_binary-x", "point_mass",
        "tail_weight", "length_at", "codeword", "encode"])
def test_an_index_integer_goes_wherever_an_integer_goes(call, n):
    assert call(_Index(n)) == call(n)


def test_tail_weight_from_minus_one_weighs_the_whole_support():
    # sum over k >= 0 of p(k) base**(k+1): 0.5 * 3 + 0.5 * 9, and for
    # Poisson(3) at base 2 the generating function 2 e**(3 (2 - 1))
    assert tail_weight(ExplicitFinite((0.5, 0.5)), -1, 3.0) == \
        pytest.approx(6.0, rel=1e-15)
    assert tail_weight(Poisson(3.0), -1, 2.0) == \
        pytest.approx(2.0 * math.exp(3.0), rel=1e-13)
