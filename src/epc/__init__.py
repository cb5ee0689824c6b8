"""Optimal binary prefix codes under exponential and redundancy penalties.

Covers finite alphabets (generalized Huffman engines), geometric sources
(Golomb codes with closed-form parameter choice), light-tailed infinite
sources (finite head plus a unary spine), a self-describing container
format for integer streams, and buffer-overflow decay rate optimization.

`import epc` loads the code builders: errors, bits, numeric, models,
huffman, golomb and light_tail. The container codec (codec), the overflow
solver (overflow), the sweeps (analysis) and the command line front end
(cli) load on the first read of one of their names, or of the module.
"""

from importlib import import_module

from .errors import (ContainerError, DivergenceError, EpcError,
                     NotLightTailedError, StabilityError)
from .models import (Exponential, DthRedundancy, MaxRedundancy, Linear,
                     Geometric, Poisson, ExplicitFinite, ExplicitTailed,
                     with_geometric_tail, UnaryTail, LengthSeq,
                     point_mass, tail_weight, total_mass, power_sum,
                     expected_length, evaluate_penalty,
                     shannon_entropy, renyi_entropy)
from .huffman import (CodeTree, exp_huffman, exp_huffman_two_queue,
                      maxred_huffman, dth_huffman)
from .bits import complete_binary
from .golomb import (GolombCode, optimal_k_exponential, optimal_k_mmr,
                     optimal_k)
from .light_tail import (UnaryEndedCode, find_split_exponential,
                         find_split_mmr, build_unary_ended,
                         build_unary_ended_mmr, optimal_code)

# name -> the module that defines it, each module also under its own name;
# __getattr__ (PEP 562) imports it on the first read and binds the value here
_LAZY = {name: module for module, names in {
    "codec": ("ExplicitCode", "encode", "decode", "read_container"),
    "overflow": ("Deterministic", "ExponentialArrivals", "GammaArrivals",
                 "TableTransform", "DecayRate", "OverflowResult",
                 "overflow_functional", "max_decay_rate",
                 "decay_rate_bound", "optimize_overflow"),
    "analysis": ("avg_redundancy", "mmr_optimal_redundancy",
                 "mmr_asymptotic", "avg_redundancy_asymptotic",
                 "SweepSpec", "sweep"),
    "cli": (),
}.items() for name in (module, *names)}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return __all__


__version__ = "0.1.0"

__all__ = [
    "EpcError", "DivergenceError", "NotLightTailedError", "StabilityError",
    "ContainerError",
    "Exponential", "DthRedundancy", "MaxRedundancy", "Linear",
    "Geometric", "Poisson", "ExplicitFinite", "ExplicitTailed",
    "with_geometric_tail", "UnaryTail", "LengthSeq",
    "point_mass", "tail_weight", "total_mass", "power_sum",
    "expected_length", "evaluate_penalty", "shannon_entropy",
    "renyi_entropy",
    "CodeTree", "exp_huffman", "exp_huffman_two_queue",
    "maxred_huffman", "dth_huffman",
    "GolombCode", "complete_binary",
    "optimal_k_exponential", "optimal_k_mmr", "optimal_k",
    "UnaryEndedCode", "find_split_exponential", "find_split_mmr",
    "build_unary_ended", "build_unary_ended_mmr", "optimal_code",
    "ExplicitCode", "encode", "decode", "read_container",
    "Deterministic", "ExponentialArrivals", "GammaArrivals",
    "TableTransform", "DecayRate", "OverflowResult", "overflow_functional",
    "max_decay_rate", "decay_rate_bound", "optimize_overflow",
    "avg_redundancy", "mmr_optimal_redundancy", "mmr_asymptotic",
    "avg_redundancy_asymptotic", "SweepSpec", "sweep",
    "__version__",
]
