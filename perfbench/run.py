"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload train-gplq-wolfpack --seed 0 \
        --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 prints
its per-layer metrics. Every pass runs in a fresh process of its own (see
worker.py); this launcher uses the standard library only. The last line of
standard output is the result; the line before it carries the context
(machine, BLAS, code identity), the latency sample counts, p99 and the
same-seed digest. Exits 2 when the checkout holds no openteam sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    BLAS_THREADS,
    SETUP_PROBES,
    THREAD_ENV,
    TIME_BUDGET_S,
    WORKLOADS,
)

OUT_DIR = ROOT / ".perfbench_out"


class RunError(RuntimeError):
    pass


class Launcher:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + TIME_BUDGET_S
        OUT_DIR.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
        self.n = 0
        self.env = dict(os.environ, **{k: str(BLAS_THREADS) for k in THREAD_ENV})

    def child(self, mode, trace=0, spans=None):
        """Run one worker pass; returns its result with ``setup_s`` added."""
        a = self.args
        self.n += 1
        out = self.work / f"{self.n:02d}-{mode}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--mode", mode, "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(trace),
            "--work-dir", str(self.work), "--out", str(out),
        ]
        if spans:
            cmd += ["--spans", str(spans)]
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=sys.stderr.fileno())
        try:
            proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RunError(f"{mode} pass ran out of time") from None
        if not out.is_file():
            raise RunError(f"{mode} pass exited with {proc.returncode} and no result")
        with open(out, encoding="utf-8") as fh:
            res = json.load(fh)
        res["setup_s"] = res["ready"] - spawned if res.get("ready") else None
        return res

    def prepare(self, kind):
        """Eval reads a checkpoint of seed-initialised parameters."""
        if kind == "eval" and self.child("prepare")["problems"]:
            raise RunError("could not write the evaluation checkpoint")

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def end_to_end(launcher, kind):
    """The timed untraced pass between two halves of the setup probes, so
    the setup median samples the host at both ends of the window."""
    launcher.prepare(kind)
    probes = [launcher.child("setup") for _ in range(SETUP_PROBES // 2)]
    main = launcher.child("time")
    probes += [launcher.child("setup") for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setups = [r["setup_s"] for r in probes + [main] if r["setup_s"] is not None]
    problems = main["problems"] + [p for r in probes for p in r["problems"]]
    lat = main.get("step_ms") or {}
    metrics = {
        "steps_per_s": main.get("steps_per_s"),
        "step_ms_p50": lat.get("p50"),
        "step_ms_p90": lat.get("p90"),
        "setup_s": statistics.median(setups) if setups else None,
        "peak_rss_mb": main.get("peak_rss_mb"),
    }
    info = {
        "step_ms_p99": lat.get("p99"),
        "step_ms_samples": lat.get("n"),
        "setup_s_samples": setups,
        "window_s": main.get("window_s"),
        "window_steps": main.get("window_steps"),
        "error_rate": main["failed"] / max(main["attempted"], 1),
        "digest": main.get("digest"),
        "oracle_checked": main.get("oracle_checked"),
        "context": main.get("context"),
    }
    return main, problems, metrics, info


def per_layer(launcher, kind):
    """The same fixed work untraced, then traced; their ratio is the
    tracing overhead."""
    launcher.prepare(kind)
    plain = launcher.child("work")
    spans = OUT_DIR / f"spans-{launcher.args.workload}-seed{launcher.args.seed}.json"
    traced = launcher.child("work", trace=1, spans=spans)
    problems = plain["problems"] + traced["problems"]
    if plain.get("digest") != traced.get("digest"):
        problems.append("traced and untraced passes disagree on the digest")
    metrics = dict(traced.get("layers") or {})
    if plain.get("steps_per_s") and traced.get("steps_per_s"):
        metrics["trace.overhead"] = 1.0 - traced["steps_per_s"] / plain["steps_per_s"]
    info = {
        "counts": traced.get("counts"),
        "window_steps": traced.get("window_steps"),
        "steps_per_s": {"untraced": plain.get("steps_per_s"), "traced": traced.get("steps_per_s")},
        "spans_file": str(spans.relative_to(ROOT)),
        "digest": traced.get("digest"),
        "oracle_checked": traced.get("oracle_checked"),
        "context": traced.get("context"),
    }
    return traced, problems, metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run one openteam benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "openteam" / "__init__.py").is_file():
        print(f"error: no openteam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end" if args.trace == 0 else "per_layer"]

    launcher = Launcher(args)
    try:
        run = per_layer if args.trace else end_to_end
        res, problems, values, info = run(launcher, WORKLOADS[args.workload]["kind"])
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        launcher.close()

    metrics = {}
    for m in declared:
        value = values.get(m["name"])
        if value is None:
            problems.append(f"metric {m['name']} was not measured")
            value = 0.0
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"perfbench": {"workload": args.workload, "problems": problems, **info}}))
    print(
        json.dumps(
            {
                "correct": not problems and res["failed"] == 0,
                "attempted": max(int(res["attempted"]), 1),
                "failed": int(res["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
