"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --seeds 1-10 [--workloads stream design]
        [--seconds S] [--out FILE]

Runs bench/run.py once per workload and seed, one run at a time, and prints
for each end-to-end metric the median, the quartiles (statistics.quantiles,
n=4) and their distance as a share of the median, next to the metric's
bound in BENCHMARK.json. A spread at or above a third of the bound is
flagged (setup_s is exempt: only its median is compared between commits).
Beside them it prints the spread of ops_per_s_raw from the run record, the
goodput on unscaled thread CPU time, to show what the probe scaling buys.
--out writes the same numbers, with the machine description, as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds, required=True)
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()

    summary, flagged = {}, 0
    for wl in args.workloads:
        runs, raw = [], []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(args.seconds),
                                     "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            raw.append(json.loads((ROOT / ".bench_out" / "record.jsonl")
                                  .read_text().splitlines()[-1])
                       ["ops_per_s_raw"])
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.5g}" for k, v in runs[-1]["metrics"].items()),
                flush=True)
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            ok = name == "setup_s" or spread < metric["bound"] / 3
            flagged += not ok
            rows[name] = {"median": statistics.median(values), "q1": q1,
                          "q3": q3, "spread": spread,
                          "bound": metric["bound"], "unit": metric["unit"],
                          "values": values}
            print(f"  {wl:<9} {name:<16} median {statistics.median(values):<12.6g}"
                  f" spread {spread:.4f}  bound {metric['bound']}"
                  f"{'' if ok else '  <-- above a third of the bound'}")
        q1, _, q3 = statistics.quantiles(raw, n=4)
        raw_spread = (q3 - q1) / statistics.median(raw)
        print(f"  {wl:<9} {'ops_per_s_raw':<16} median "
              f"{statistics.median(raw):<12.6g} spread {raw_spread:.4f}  "
              f"(unscaled, not gated)")
        summary[wl] = {"runs": len(runs),
                       "ops_per_s_raw": {"median": statistics.median(raw),
                                         "spread": raw_spread, "values": raw},
                       "attempted": [r["attempted"] for r in runs],
                       "failed": [r["failed"] for r in runs],
                       "metrics": rows}
    if args.out:
        record = json.loads((ROOT / ".bench_out" / "record.jsonl")
                            .read_text().splitlines()[-1])
        machine = {k: record[k] for k in ("nproc", "cpu", "python", "platform")}
        Path(args.out).write_text(json.dumps(
            {"machine": machine, "seeds": args.seeds,
             "seconds": args.seconds, "workloads": summary}, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
