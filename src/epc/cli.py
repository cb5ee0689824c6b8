"""Command line front end.

Subcommands:
  optimize   best code for a source under a penalty
  huffman    run a tree engine on raw weights
  encode     pack symbols into the container format
  decode     unpack a container back to symbols
  overflow   buffer-overflow decay rate optimization
  sweep      CSV data sets for the analytic figures

Exit status: 0 on success, 1 on a domain error (bad parameter values,
divergent sums, malformed containers), 2 on usage errors.

optimize and huffman load only the code builders; encode and decode import
the container codec, overflow the overflow solver and sweep the figure
sweeps, each where it runs.
"""
from __future__ import annotations

import argparse
import math
import sys

from .errors import EpcError
from .golomb import GolombCode
from .huffman import merge
from .light_tail import optimal_code
from .models import (DthRedundancy, ExplicitFinite, Exponential, Geometric,
                     LengthSeq, Linear, MaxRedundancy, Poisson,
                     evaluate_penalty)

__all__ = ["run", "main"]


def _parse_penalty(text: str):
    """exp:<base> | dth:<order> | mmr | linear"""
    if text == "mmr":
        return MaxRedundancy()
    if text == "linear":
        return Linear()
    kind, sep, arg = text.partition(":")
    if sep and kind == "exp":
        return Exponential(float(arg))
    if sep and kind == "dth":
        return DthRedundancy(float(arg))
    raise ValueError(f"unknown penalty {text!r}")


def _read_weights(path: str) -> list[float]:
    with open(path) as fh:
        return [float(tok) for tok in fh.read().split()]


def _add_model_flags(sub: argparse.ArgumentParser, golomb: bool = False,
                     infinite: bool = True, penalty: bool = True) -> None:
    """One required source flag (golomb adds --golomb; without infinite,
    --weights alone), then --penalty unless penalty is False."""
    grp = sub.add_mutually_exclusive_group(required=True) if infinite else sub
    if golomb:
        grp.add_argument("--golomb", type=int, metavar="K",
                         help="Golomb code with the given parameter")
    if infinite:
        grp.add_argument("--geometric", type=float, metavar="RATIO",
                         help="geometric source with the given ratio")
        grp.add_argument("--poisson", type=float, metavar="MEAN",
                         help="Poisson source with the given mean")
    grp.add_argument("--weights", metavar="FILE", required=not infinite,
                     help="finite source, whitespace-separated weights")
    if penalty:
        sub.add_argument("--penalty", type=_parse_penalty, default=Linear(),
                         help="exp:<base> | dth:<order> | mmr | linear")


def _model_from(args):
    if args.geometric is not None:
        return Geometric(args.geometric)
    if args.poisson is not None:
        return Poisson(args.poisson)
    w = _read_weights(args.weights)
    try:
        total = math.fsum(w)
    except OverflowError:   # a sum past the float range: scale by the largest
        top = max(w)
        w = [x / top for x in w]
        total = math.fsum(w)
    if total <= 0.0:
        raise ValueError("weights must have positive total")
    return ExplicitFinite(tuple(x / total for x in w))


def _print_tree(weights, penalty, label: str) -> int:
    tree = merge(weights, penalty)
    print(LengthSeq(tree.lengths))
    print("%s %.12g" % (label, tree.objective))
    return 0


# ----------------------------------------------------------------- optimize

def _cmd_optimize(args) -> int:
    model, penalty = _model_from(args), args.penalty
    if model.size is not None:
        # the engine's own objective; a re-evaluation can differ in the last
        # printed digit
        return _print_tree(model.probs, penalty, "penalty")
    code = optimal_code(model, penalty)
    # valued before anything prints, so a refused value prints no code
    value = evaluate_penalty(model, code, penalty)
    print(code)
    print("penalty %.12g" % value)
    return 0


def _cmd_huffman(args) -> int:
    return _print_tree(_read_weights(args.weights), args.penalty, "objective")


# ------------------------------------------------------------ encode/decode

def _code_for_stream(args):
    from .codec import ExplicitCode
    if args.golomb is not None:
        return GolombCode(args.golomb)
    code = optimal_code(_model_from(args), args.penalty)
    if code.tail is None:   # printed by encode as an explicit code
        return ExplicitCode(code.head)
    return code


def _cmd_encode(args) -> int:
    from .codec import encode
    code = _code_for_stream(args)
    if args.input is None:
        text = sys.stdin.read()
    else:
        with open(args.input) as fh:
            text = fh.read()
    symbols = [int(tok) for tok in text.split()]
    blob = encode(symbols, code)
    with open(args.output, "wb") as fh:
        fh.write(blob)
    print(f"{code}: {len(symbols)} symbols -> {len(blob)} bytes")
    return 0


def _cmd_decode(args) -> int:
    from .codec import decode
    with open(args.input, "rb") as fh:
        data = fh.read()
    sys.stdout.write("".join(f"{sym}\n" for sym in decode(data)))
    return 0


# ----------------------------------------------------------------- overflow

def _read_table(path: str):
    """A TableTransform from rows of two numbers, s and the transform at s,
    split by commas or spaces; blank lines are skipped."""
    from .overflow import TableTransform
    rows = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            parts = line.replace(",", " ").split()
            if not parts:
                continue
            if len(parts) != 2:
                raise ValueError(f"{path} line {number}: need two numbers, "
                                 f"s and the transform, got {len(parts)}")
            rows.append((float(parts[0]), float(parts[1])))
    return TableTransform(tuple(rows))


def _arrivals_from(args):
    from .overflow import Deterministic, ExponentialArrivals, GammaArrivals
    if args.deterministic is not None:
        return Deterministic(args.deterministic)
    if args.exponential is not None:
        return ExponentialArrivals(args.exponential)
    if args.gamma is not None:
        return GammaArrivals(args.gamma[0], args.gamma[1])
    return _read_table(args.table)


def _cmd_overflow(args) -> int:
    from .overflow import optimize_overflow
    result = optimize_overflow(_model_from(args), _arrivals_from(args))
    if args.buffer_size is not None:    # refused before anything is printed
        estimate = result.overflow_estimate(args.buffer_size)
    if args.trace:
        for i, (rate, code) in enumerate(result.trace, 1):
            print("iter %d: decay rate %.12g  %s" % (i, rate, code))
    print(result.code)
    print("decay rate %.12g" % result.decay_rate)
    if result.at_boundary:
        print("at stability boundary")
    if args.buffer_size is not None:
        print("overflow estimate at %g bits: %.6g"
              % (args.buffer_size, estimate))
    return 0


# -------------------------------------------------------------------- sweep

def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(","))


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


def _cmd_sweep(args) -> int:
    from .analysis import SweepSpec, sweep
    given = {name: getattr(args, name) for name in SweepSpec._fields()}
    text = sweep(SweepSpec(**{name: value for name, value in given.items()
                              if value is not None}))
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)
    return 0


# ------------------------------------------------------------------ parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epc", description="prefix codes under exponential penalties")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("optimize", help="best code for a source")
    _add_model_flags(p)
    p.set_defaults(func=_cmd_optimize)

    p = subs.add_parser("huffman", help="tree engine on raw weights")
    _add_model_flags(p, infinite=False)
    p.set_defaults(func=_cmd_huffman)

    p = subs.add_parser("encode", help="pack symbols into a container")
    _add_model_flags(p, golomb=True)
    p.add_argument("--input", metavar="FILE",
                   help="whitespace-separated integers (default stdin)")
    p.add_argument("--output", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_encode)

    p = subs.add_parser("decode", help="unpack a container")
    p.add_argument("--input", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_decode)

    p = subs.add_parser("overflow", help="optimize the overflow decay rate")
    _add_model_flags(p, penalty=False)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--deterministic", type=float, metavar="GAP")
    grp.add_argument("--exponential", type=float, metavar="RATE")
    grp.add_argument("--gamma", type=float, nargs=2,
                     metavar=("SHAPE", "RATE"))
    grp.add_argument("--table", metavar="FILE",
                     help="sampled intermission transform, rows of s,value")
    p.add_argument("--trace", action="store_true",
                   help="print every fixed-point iterate")
    p.add_argument("--buffer-size", type=float, metavar="BITS")
    p.set_defaults(func=_cmd_overflow)

    p = subs.add_parser("sweep", help="figure data sets as CSV")
    p.add_argument("--figure", type=int, required=True, choices=(2, 3, 4, 5))
    p.add_argument("--ratio-start", type=float)
    p.add_argument("--ratio-stop", type=float)
    p.add_argument("--ratio-step", type=float)
    p.add_argument("--bases", type=_float_list,
                   help="comma-separated exponential bases (figure 2)")
    p.add_argument("--base-start", type=float)
    p.add_argument("--base-stop", type=float)
    p.add_argument("--base-step", type=float)
    p.add_argument("--orders", type=_int_list,
                   help="comma-separated redundancy orders (figure 5)")
    p.add_argument("--output", metavar="FILE")
    p.set_defaults(func=_cmd_sweep)

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (EpcError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
