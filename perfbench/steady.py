"""Steadiness mode: run workloads N times and report each metric's spread.

    python3 perfbench/steady.py --runs 10 --out steady.json
    python3 perfbench/steady.py --workload train-qlam-lbf --runs 5 \
        --against parent-steady.json

Each run is one ``run.py`` invocation with its own seed (0, 1, ...,
runs - 1). Afterwards seed 0 runs again: a same-seed digest that differs
fails the check, because two runs of the same code must produce the same
bytes; with --trace 1 (whose digest covers the final stores) so does a
per-layer count that differs. For every metric the report gives the median,
the quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median; with --trace 0 a spread above the metric's bound in
BENCHMARK.json fails the check.

--against compares medians with an earlier report, e.g. one made on the
parent commit: a metric worse by more than its bound fails, and digests of
shared seeds are reported as equal or not (a change may alter them on
purpose, so that alone does not fail).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Per-layer counts, which must repeat exactly for a seed.
COUNT_UNITS = ("1/step", "B/step")


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    info, result = json.loads(lines[-2])["perfbench"], json.loads(lines[-1])
    return {"seed": seed, "result": result, "digest": info.get("digest"), "info": info}


def spread_table(runs, declared):
    table = {}
    for m in declared:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        table[m["name"]] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": m.get("bound"),
            "values": values,
        }
    return table


def worse_by(metric, old, new):
    """Share by which ``new`` is worse than ``old`` (negative when better)."""
    if not old:
        return 0.0
    return (new - old) / old if metric["better"] == "lower" else (old - new) / old


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run workloads repeatedly and report spreads.")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = bench["end_to_end" if args.trace == 0 else "per_layer"]
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    previous = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            previous = json.load(fh)["workloads"]

    failures = []
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in workloads:
        runs = [run_once(workload, s, seconds, args.trace) for s in range(args.runs)]
        repeats = [run_once(workload, 0, seconds, args.trace)]
        for r in runs + repeats:
            if not r["result"]["correct"] or r["result"]["failed"]:
                failures.append(f"{workload} seed {r['seed']}: incorrect or failed steps")
        first = {r["seed"]: r for r in runs}
        for r in repeats:
            again = first[r["seed"]]
            if r["digest"] is None or r["digest"] != again["digest"]:
                failures.append(f"{workload} seed {r['seed']}: same-seed digests differ")
            for m in declared:
                name = m["name"]
                if m["unit"] in COUNT_UNITS and r["result"]["metrics"][name] != again["result"]["metrics"][name]:
                    failures.append(f"{workload} seed {r['seed']}: count {name} did not repeat")
        table = spread_table(runs, declared)
        entry = {"metrics": table, "digests": {str(r["seed"]): r["digest"] for r in runs}}
        print(f"{workload} ({len(runs)} runs, {seconds:g} s each)")
        for m in declared:
            row = table[m["name"]]
            line = f"  {m['name']:<40} median {row['median']:12.5g}  spread {row['spread']:7.2%}"
            if args.trace == 0:
                line += f"  bound {m['bound']:.0%}"
                if row["spread"] > m["bound"]:
                    failures.append(f"{workload} {m['name']}: spread above bound")
            if previous and workload in previous:
                old = previous[workload]["metrics"][m["name"]]["median"]
                change = worse_by(m, old, row["median"])
                line += f"  worse by {change:+.2%}"
                if m.get("bound") is not None and change > m["bound"]:
                    failures.append(f"{workload} {m['name']}: worse than --against by {change:.2%}")
            print(line)
        if previous and workload in previous:
            shared = set(previous[workload]["digests"]) & set(entry["digests"])
            same = all(previous[workload]["digests"][s] == entry["digests"][s] for s in shared)
            entry["same_bytes_as_against"] = same
            print(f"  digests of {len(shared)} shared seeds {'equal' if same else 'DIFFER'}")
        report["workloads"][workload] = entry

    report["failures"] = failures
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
