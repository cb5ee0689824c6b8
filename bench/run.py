"""Benchmark for epc: three seeded, single-process, single-thread, closed-loop
workloads. One operation runs at a time, the next starts when it completes,
and every operation's output is checked.

    python3 bench/run.py --workload {stream,design,overflow} --seed N \\
        --seconds S --trace {0,1}

The library is imported from src/ of the checkout that holds this file.
Each invocation:

1. caps its own address space, so that a runaway solve raises MemoryError;
2. sets up several times (fresh `import epc`, seeded inputs, stream codes)
   and reports the median as setup_s;
3. checks the golden outputs (README CLI examples and library tour, frozen
   container bytes), untimed;
4. with --trace 0, runs round(--seconds / PASS_S) whole passes over the job
   list, PASS_S being the workload's pass length on the reference machine,
   and reports each end-to-end metric as the median of its per-pass values.
   The pass count depends on --seconds alone, not on how fast the machine
   is in that minute, so attempted and failed are the same for a seed from
   run to run; with --trace 1, runs one pass untraced and the same
   pass traced (whatever --seconds says) and reports the per-layer metrics;
5. prints a summary, appends a row to .bench_out/record.jsonl and prints the
   result as one JSON object on the last line.

Durations are CPU time of the benchmark's thread, scaled to a reference
probe speed (see common.py); per-layer times in the traced run are wall
time, as cProfile measures them.

Each operation is verified (returned and passed its check), refused (raised
EpcError) or failed (anything else: another exception, a failed check, an
expired budget, MemoryError). Failed operations are counted, never skipped;
known defects stay in the job lists. A failure is allowed only where it
matches one of the known defects in KNOWN_DEFECTS (by job and by error); any
other failure makes the run incorrect. The exit status is 0 unless an output
check or a golden check failed, a failure matched no known defect, or the
files the benchmark needs are missing. The metric names, units and
directions are those of BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path

import design_jobs
import golden
import overflow_jobs
import stream_jobs
from common import (FAILED, PROBE_REF_S, REFUSED, VERIFIED, Budget,
                    BudgetExpired, CheckFailed, clock, probe_s)
from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
SETUP_PROBES = 50
PROBE_REACH = 5   # operations on each side whose probes enter an estimate
ADDRESS_SPACE_CAP = 1 << 30
# the profiler slows operations down up to about 4x; the traced pass's
# budget is widened by this much so that no operation expires for it
TRACED_BUDGET_FACTOR = 5

WORKLOADS = {"stream": stream_jobs, "design": design_jobs,
             "overflow": overflow_jobs}

# printed and recorded beside the metrics of BENCHMARK.json: fail_share is 0
# on stream by construction and the codec rates exist only on stream, so
# they cannot carry a relative bound
EXTRA = [
    ("fail_share", "ratio"),
    ("encode_sym_per_s", "sym/s"),
    ("decode_sym_per_s", "sym/s"),
    ("payload_bits_per_sym", "bit/sym"),
]
TAIL_BEYOND = 10   # samples the tail percentile leaves above it


def _solve(job):
    """(source, arrivals, load) of an overflow solve; the known-defect extras
    carry the Deterministic gap where the grid jobs carry the load."""
    return (job.key[0] if job.key[0] in ("finite", "tailed") else job.key[:2],
            job.key[-2], job.key[-1])


# The failures the program is known to have, each matched by job and by
# error. A failure that matches none of them fails the run. Within a class,
# the job predicate names the grid points measured to fail at every seed
# tried; the finite and tailed sources are seeded draws, so those are
# matched by kind.
KNOWN_DEFECTS = {
    "poisson-tail-cancellation": (
        "Poisson tail_weight subtracts the head from e^{m(a-1)} and cancels "
        "to <= 0, so the reduced weight list is rejected",
        (ValueError,), "weights must be strictly positive",
        lambda job: (job.kind == "light" and job.key[0] == "poisson"
                     and job.key[1] >= 30.0)
        or (job.kind == "solve" and _solve(job) in (
            (("poisson", 5.0), "deterministic", 0.8),
            (("poisson", 20.0), "deterministic", 0.8)))),
    "poisson-entropy-domain": (
        "shannon_entropy(Poisson(1000)) raises a bare math domain error",
        (ValueError,), "math domain error",
        lambda job: job.kind == "entropy" and job.key == ("poisson", 1000.0)),
    "deterministic-bound-underflow": (
        "under Deterministic arrivals exp(-s*gap) underflows to 0 and the "
        "solve takes log(0): a bare math domain error; ExplicitFinite at "
        "every load, the heavier-tailed sources at load 0.5",
        (ValueError,), "math domain error",
        lambda job: job.kind == "solve" and (
            _solve(job)[:2] == ("finite", "deterministic")
            or _solve(job) in {(src, "deterministic", 0.5) for src in (
                ("geometric", 0.99), ("poisson", 5.0), ("poisson", 20.0),
                "tailed")})),
    "poisson-deterministic-runaway": (
        "Poisson x Deterministic: decay_rate_bound returns a huge s0, the "
        "first rebuild asks for an enormous split and never settles, so "
        "the budget expires",
        (BudgetExpired, MemoryError), None,
        lambda job: job.kind == "solve" and _solve(job) in (
            (("poisson", 1.0), "deterministic", 0.5),
            (("poisson", 1.0), "deterministic", 3.82),
            (("poisson", 5.0), "deterministic", 5.77))),
}


def classify(job, exc) -> str:
    """Name the known defect a failed operation belongs to, or
    'unclassified'."""
    for label, (_, types, message, matches) in KNOWN_DEFECTS.items():
        if (isinstance(exc, types) and (message is None or str(exc) == message)
                and matches(job)):
            return label
    return "unclassified"


class Tally:
    """Outcomes, CPU times and probe readings of the operations of one
    pass."""

    def __init__(self) -> None:
        self.outcomes: Counter = Counter()
        self.defects: Counter = Counter()
        self.failed_jobs: dict = {}
        self.check_failures: list[str] = []
        self.probes: list[float] = []   # before each operation and at the end
        self.busy: list[float] = []     # CPU time of each operation and check
        self.expired_s = 0.0   # CPU time of operations whose budget expired
        self.latencies: list[tuple[int, float]] = []   # (op index, CPU s)
        self.accounts: list[tuple[int, dict]] = []     # (op index, counts)

    def attempted(self) -> int:
        return sum(self.outcomes.values())

    def scales(self) -> list[float]:
        """Per operation, the factor from its CPU time to reference probe
        speed: PROBE_REF_S over the median of the probes taken from
        PROBE_REACH operations before it to PROBE_REACH after it.
        Contention changes from one second to the next, so a local window
        tracks it where a mean over the pass does not."""
        h = PROBE_REACH
        return [PROBE_REF_S / statistics.median(
                    self.probes[max(0, i - h):i + h + 2])
                for i in range(len(self.busy))]

    def busy_scaled(self, scales) -> float:
        return sum(b * k for b, k in zip(self.busy, scales))

    def loop_s(self, scales) -> float:
        """The pass's timed loop at reference probe speed. An expired
        operation costs its budget, which does not depend on the machine's
        speed, so it is added unscaled."""
        return self.busy_scaled(scales) + self.expired_s

    def unclassified(self) -> list[str]:
        return [f"{key}: {what}" for key, (label, what)
                in self.failed_jobs.items() if label == "unclassified"]


def run_pass(jobs, wl, epc, tracer, budget, state) -> Tally:
    tally = Tally()
    for i, job in enumerate(jobs):
        tally.probes.append(probe_s())
        start = clock()
        exc = None
        try:
            with tracer.op(job), budget:
                t0 = clock()
                result = wl.run(job, epc, tracer)
                latency = clock() - t0
        except epc.EpcError as e:
            outcome, exc = REFUSED, e
        except (BudgetExpired, MemoryError, Exception) as e:
            outcome, exc = FAILED, e
        else:
            try:
                wl.check(job, result, epc, state)
                outcome = VERIFIED
            except CheckFailed as e:
                outcome = FAILED
                tally.check_failures.append(str(e))
        tracer.outcome(job, outcome, exc)
        tally.outcomes[outcome] += 1
        if outcome == VERIFIED:
            tally.latencies.append((i, latency))
            if hasattr(wl, "account"):
                tally.accounts.append((i, wl.account(result)))
        elif outcome == FAILED:
            label = ("output-check" if exc is None else classify(job, exc))
            tally.defects[label] += 1
            tally.failed_jobs[repr(job.key)] = (
                label, f"{type(exc).__name__}: {exc}" if exc else "check")
        if isinstance(exc, BudgetExpired):
            tally.expired_s += clock() - start
            tally.busy.append(0.0)
        else:
            tally.busy.append(clock() - start)
    tally.probes.append(probe_s())
    return tally


def tail_pct(n: int) -> int:
    """The highest whole percentile of n samples with at least TAIL_BEYOND
    samples above its interpolation interval."""
    return max((p for p in range(50, 100)
                if n - 1 - int((n - 1) * p / 100) >= TAIL_BEYOND), default=50)


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def fresh_epc():
    for name in [m for m in sys.modules if m == "epc" or m.startswith("epc.")]:
        del sys.modules[name]
    return importlib.import_module("epc")


def fingerprint(ctx) -> str:
    h = hashlib.sha256()
    h.update(repr([(job.kind, job.key) for job in ctx["jobs"]]).encode())
    h.update(repr([hash(tuple(d)) for d in ctx.get("data", ())]).encode())
    for name, pool in sorted(ctx.get("pools", {}).items()):
        h.update(f"{name}:{hash(tuple(pool))}".encode())
    return h.hexdigest()


def cap_address_space() -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "platform": platform.platform()}


def pass_metrics(wl, tally) -> dict:
    attempted = tally.attempted()
    scales = tally.scales()
    lat_ms = [x * 1e3 * scales[i] for i, x in tally.latencies]
    out = {
        "ops_per_s": tally.outcomes[VERIFIED] / tally.loop_s(scales),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": percentile(lat_ms, tail_pct(len(lat_ms))),
        "verified_share": tally.outcomes[VERIFIED] / attempted,
        "fail_share": tally.outcomes[FAILED] / attempted,
    }
    if tally.accounts:
        # CPU times (keys ending in _s) are scaled like the latencies
        totals: Counter = Counter()
        for i, counts in tally.accounts:
            for key, value in counts.items():
                totals[key] += value * scales[i] if key.endswith("_s") else value
        out.update(wl.stream_metrics(totals))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    epc_dir = ROOT / "src" / "epc"
    readme = ROOT / "README.md"
    if not (epc_dir / "__init__.py").is_file() or not readme.is_file():
        print(f"error: {ROOT} holds no epc sources (src/epc) or README.md",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    cap_address_space()
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        epc = fresh_epc()
        ctx = wl.setup(epc, random.Random(args.seed))
        elapsed = clock() - t0
        probes = [probe_s() for _ in range(SETUP_PROBES)]
        setup_times.append(elapsed * PROBE_REF_S / statistics.fmean(probes))

    try:
        golden.check(epc, str(readme), str(OUT_DIR))
    except golden.GoldenMismatch as exc:
        print(f"error: golden output mismatch: {exc}", file=sys.stderr)
        return 1

    jobs = ctx["jobs"]
    budget = Budget(wl.BUDGET_S)
    if args.trace:
        untraced = run_pass(jobs, wl, epc, NullTracer(), budget, {})
        tracer = Tracer(str(epc_dir))
        wide = Budget(wl.BUDGET_S * TRACED_BUDGET_FACTOR)
        tallies = [run_pass(jobs, wl, epc, tracer, wide, {})]
        values = tracer.metrics(
            tallies[0].busy_scaled(tallies[0].scales()),
            untraced.busy_scaled(untraced.scales()))
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": tracer.spans}, fh)
    else:
        # a fixed number of whole passes over the same jobs; each metric is
        # the median of its per-pass values, so one disturbed pass does not
        # move it
        state: dict = {}
        tallies = [run_pass(jobs, wl, epc, NullTracer(), budget, state)
                   for _ in range(max(1, round(args.seconds / wl.PASS_S)))]
        per_pass = [pass_metrics(wl, t) for t in tallies]
        values = {name: statistics.median(m[name] for m in per_pass)
                  for name in per_pass[0]}
        values["setup_s"] = statistics.median(setup_times)

    first = tallies[0]
    outcomes = sum((t.outcomes for t in tallies), Counter())
    attempted = sum(outcomes.values())
    check_failures = [msg for t in tallies for msg in t.check_failures]
    unclassified = sorted({msg for t in tallies for msg in t.unclassified()})
    samples = [len(t.latencies) for t in tallies]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, **machine(),
        "why": (wl.__doc__ or "").strip().split("\n\n")[0],
        "job_list": fingerprint(ctx), "jobs_per_pass": len(jobs),
        "passes": len(tallies), "busy_s": [sum(t.busy) for t in tallies],
        "expired_s": [t.expired_s for t in tallies],
        "probe_scale": [statistics.median(t.scales()) for t in tallies],
        # goodput on unscaled thread CPU time, to compare with ops_per_s
        "ops_per_s_raw": statistics.median(
            t.outcomes[VERIFIED] / (sum(t.busy) + t.expired_s)
            for t in tallies),
        "max_latency_s": max(x for t in tallies for _, x in t.latencies),
        "attempted": attempted, **dict(outcomes),
        "latency_samples_per_pass": samples,
        "tail_percentile_per_pass": [tail_pct(n) for n in samples],
        "setup_runs": setup_times,
        "failures_by_class_per_pass": dict(first.defects),
        "failed_jobs": first.failed_jobs,
        "defect_classes": {label: why for label, (why, *_)
                           in KNOWN_DEFECTS.items()},
        "unclassified_failures": unclassified[:20],
        "check_failures": check_failures[:20],
        "metrics": values,
    }
    with open(OUT_DIR / "record.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(tallies)} pass(es) of {len(jobs)} jobs, "
          f"{sum(sum(t.busy) + t.expired_s for t in tallies):.2f} s CPU; "
          f"per pass {first.outcomes[VERIFIED]} verified, "
          f"{first.outcomes[REFUSED]} refused, {first.outcomes[FAILED]} "
          f"failed; tail = p{tail_pct(samples[0])} of {samples[0]} samples "
          f"per pass")
    for label, n in sorted(first.defects.items()):
        print(f"  failed per pass, {label}: {n}")
    gated = [(m["name"], m["unit"])
             for m in spec["per_layer" if args.trace else "end_to_end"]]
    for name, unit in gated + ([] if args.trace else EXTRA):
        value = values.get(name)
        text = "n/a (stream only)" if value is None else f"{value:.6g}"
        print(f"  {name:<28} {text} {unit}")
    for msg in check_failures[:5]:
        print(f"error: output check failed: {msg}", file=sys.stderr)
    for msg in unclassified[:5]:
        print(f"error: failure outside the known defects: {msg}",
              file=sys.stderr)

    correct = not check_failures and not unclassified
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": outcomes[FAILED],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in gated},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
