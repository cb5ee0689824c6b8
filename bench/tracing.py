"""The traced run: spans around the benchmark's own calls into each layer,
plus a per-operation cProfile that attributes self time and call counts to
each epc.* module. Nested layers (bits under codec; huffman, light_tail and
models under overflow) cannot be split any other way without touching the
library. Profiling costs 2-4x, so end-to-end numbers never come from here.
"""
from __future__ import annotations

import contextlib
import cProfile
import os
import time
import traceback
from collections import Counter, defaultdict

from common import FAILED, REFUSED, BudgetExpired

LAYERS = ("bits", "codec", "golomb", "huffman", "light_tail", "models",
          "overflow", "analysis", "numeric")

# per-layer metric -> (module, function qualname, "calls" | "total")
_PROFILED = {
    "bits.read_bit_calls": ("bits", "BitReader.read_bit", "calls"),
    "bits.write_calls": ("bits", "BitWriter.write_bits", "calls"),
    "bits.canonical_s": ("bits", "canonical_codewords", "total"),
    "codec.read_symbol_calls": ("codec", "_read_symbol", "calls"),
    "golomb.codeword_calls": ("golomb", "golomb_codeword", "calls"),
    "huffman.node_compare_calls": ("huffman", "_Node.__lt__", "calls"),
    "models.point_mass_calls": ("models", "point_mass", "calls"),
    "overflow.functional_evals": ("overflow", "overflow_functional", "calls"),
    "overflow.bisect_s": ("overflow", "max_decay_rate", "total"),
    "overflow.bound_s": ("overflow", "decay_rate_bound", "total"),
    "numeric.logaddexp_calls": ("numeric", "logaddexp", "calls"),
}
_HEADER_FUNCS = ("_parse_descriptor", "_decode_table")
_SPAN_TOTALS = ("codec.encode", "codec.decode", "huffman.build",
                "light_tail.build", "models.eval", "overflow.solve",
                "analysis.sweep")

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: every hook is a no-op."""

    def op(self, job):
        return _NULL

    def span(self, name):
        return _NULL

    def add(self, name, value):
        pass

    def outcome(self, job, outcome, exc):
        pass


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t.stack[-1] if t.stack else None
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, parent, t.op_id])
        t.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t.stack.pop()
        return False


class _Op(_Span):
    """Root span of one operation, with its own profiler so that a budget
    expiry (whose progress depends on timing) can be left out of the counts."""

    __slots__ = ("prof",)

    def __enter__(self):
        self.tracer.op_id += 1
        super().__enter__()
        self.prof = cProfile.Profile()
        self.prof.enable()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.prof.disable()
        super().__exit__()
        if exc_type is None or not issubclass(exc_type,
                                              (BudgetExpired, MemoryError)):
            self.tracer.merge(self.prof)
        return False


class Tracer:
    def __init__(self, epc_dir: str) -> None:
        self.epc_dir = os.path.realpath(epc_dir)
        self.spans: list[list] = []   # name, start, end, parent, op id
        self.stack: list[int] = []
        self.op_id = 0
        self.counters: Counter = Counter()
        self.funcs = defaultdict(lambda: [0, 0.0, 0.0])  # calls, self, total
        self.self_s: Counter = Counter()
        self._modules: dict = {}

    def op(self, job):
        return _Op(self, "op." + job.kind)

    def span(self, name):
        return _Span(self, name)

    def add(self, name, value):
        self.counters[name] += value

    def _module(self, code):
        if isinstance(code, str):   # a builtin
            return None
        fn = code.co_filename
        mod = self._modules.get(fn, False)
        if mod is False:
            path = os.path.realpath(fn)
            mod = (os.path.splitext(os.path.basename(path))[0]
                   if os.path.dirname(path) == self.epc_dir else None)
            self._modules[fn] = mod
        return mod

    def merge(self, prof) -> None:
        """Fold one operation's profile in. A module's self time is the
        inline time of its functions plus that of the non-epc callees
        (builtins, generated dataclass methods) they call directly."""
        for entry in prof.getstats():
            mod = self._module(entry.code)
            if mod is None:
                continue
            f = self.funcs[(mod, entry.code.co_qualname)]
            f[0] += entry.callcount
            f[1] += entry.inlinetime
            f[2] += entry.totaltime
            self.self_s[mod] += entry.inlinetime
            for sub in entry.calls or ():
                if self._module(sub.code) is None:
                    self.self_s[mod] += sub.inlinetime

    def outcome(self, job, outcome, exc) -> None:
        """Count, per layer, the calls that ended refused or failed: every
        epc module on the exception's stack had a call end that way. A
        failed output check is charged to the layer that produced it."""
        if outcome not in (REFUSED, FAILED):
            return
        if exc is None or isinstance(exc, (BudgetExpired, MemoryError)):
            # where a budget expiry lands depends on timing, so it is
            # charged to the called layer to keep the counts reproducible
            layers = {job.layer}
        else:
            layers = {self._module(frame.f_code)
                      for frame, _ in traceback.walk_tb(exc.__traceback__)}
            layers.discard(None)
        for layer in layers:
            self.counters[f"{layer}.{outcome}"] += 1

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        totals = Counter()
        for name, start, end, _, _ in self.spans:
            totals[name] += end - start
        out = {f"{layer}.self_s": self.self_s[layer]
               for layer in ("bits", "codec", "golomb", "huffman",
                             "light_tail", "models", "overflow")}
        for span in _SPAN_TOTALS:
            out[span + "_s"] = totals[span]
        for name, (mod, func, what) in _PROFILED.items():
            calls, _, total = self.funcs.get((mod, func), (0, 0.0, 0.0))
            out[name] = calls if what == "calls" else total
        out["codec.header_s"] = sum(self.funcs.get(("codec", f), (0, 0, 0.0))[2]
                                    for f in _HEADER_FUNCS)
        for name in ("huffman.merges", "light_tail.split_total",
                     "overflow.fixed_point_iters"):
            out[name] = self.counters[name]
        build_s = totals["huffman.build"]
        out["huffman.merges_per_s"] = (self.counters["huffman.merges"] / build_s
                                       if build_s else 0.0)
        for layer in LAYERS:
            for outcome in (REFUSED, FAILED):
                out[f"{layer}.{outcome}"] = self.counters[f"{layer}.{outcome}"]
        out["trace_overhead"] = traced_wall / untraced_wall
        return out
