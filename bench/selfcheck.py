"""Checks of the benchmark itself.

    python3 bench/selfcheck.py [--workloads stream ...] [--seed N]

For each workload: two untraced runs with the same seed must give the same
job list, attempted and failed counts, fail_share, verified_share and
payload_bits_per_sym; two traced runs with the same seed must give the same
per-layer counts; the next seed must give a different job list; and every
run must print every metric of BENCHMARK.json with its unit. Runs use --seconds 1, so each measures one
pass. Exit status 0 when every check holds.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DETERMINISTIC = ("fail_share", "verified_share", "payload_bits_per_sym")


def run(spec, workload: str, seed: int, trace: int):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_out" / "record.jsonl")
                        .read_text().splitlines()[-1])
    declared = spec["per_layer" if trace else "end_to_end"]
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if printed != want:
        raise SystemExit(f"{workload} trace {trace}: printed {printed}, "
                         f"BENCHMARK.json names {want}")
    return result, record


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    problems = []
    for wl in args.workloads:
        (ra, a), (rb, b) = (run(spec, wl, args.seed, 0) for _ in range(2))
        for name in ("attempted", "failed"):
            if ra[name] != rb[name]:
                problems.append(f"{wl}: same seed, {name} {ra[name]} vs "
                                f"{rb[name]}")
        if a["job_list"] != b["job_list"]:
            problems.append(f"{wl}: same seed, different job lists")
        for name in DETERMINISTIC:
            if a["metrics"].get(name) != b["metrics"].get(name):
                problems.append(f"{wl}: same seed, {name} "
                                f"{a['metrics'].get(name)} vs "
                                f"{b['metrics'].get(name)}")
        _, c = run(spec, wl, args.seed + 1, 0)
        if c["job_list"] == a["job_list"]:
            problems.append(f"{wl}: seeds {args.seed} and {args.seed + 1} "
                            f"give the same job list")
        (ta, _), (tb, _) = (run(spec, wl, args.seed, 1) for _ in range(2))
        for m in spec["per_layer"]:
            if m["unit"] == "count" and \
                    ta["metrics"][m["name"]] != tb["metrics"][m["name"]]:
                problems.append(f"{wl}: same seed, {m['name']} "
                                f"{ta['metrics'][m['name']]['value']} vs "
                                f"{tb['metrics'][m['name']]['value']}")
        print(f"{wl}: checked", flush=True)
    for p in problems:
        print("FAIL " + p)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
