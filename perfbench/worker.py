"""One pass of one workload, in a fresh process.

Started by run.py, never by hand. Modes:

  prepare  write the evaluation checkpoint (seed-initialised GPL-Q
           parameters) and its config into --work-dir.
  setup    build everything up to the first step, note the time, stop.
  time     untraced; measure for --seconds after the warm-up.
  work     a fixed amount of work scaled by --seconds, so that counts per
           env step repeat exactly; traced when --trace 1.

The same-seed digest covers the final stores (train) or every evaluation
record (eval) in ``work`` mode. A ``time`` pass stops after a varying amount
of work, so its digest covers a fixed prefix: the checkpoint at the first
boundary after the warm-up (train) or the warm-up call (eval).

The result is one JSON file (--out). ``ready`` is ``time.monotonic()`` at the
first step; on Linux that clock is system-wide, so the launcher subtracts
its own spawn time from it.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from spans import Tracer, clock, rebind  # noqa: E402
from workloads import (  # noqa: E402
    CHECKPOINT_INTERVAL,
    EVAL_BLOCK_STEPS,
    EVAL_WARMUP_EPISODES,
    THREAD_ENV,
    TRAIN_WARMUP_ITERATIONS,
    WORKLOADS,
)

# Every ORACLE_EVERY-th marginalization call is kept (up to ORACLE_SAMPLES)
# and checked against brute-force enumeration after the pass.
ORACLE_EVERY = 97
ORACLE_SAMPLES = 32
ORACLE_TOL = 1e-6


class Stop(Exception):
    """Raised from a wrapper to end a pass once its work is done."""


class Pass:
    """What one process measured and checked."""

    def __init__(self, mode):
        self.mode = mode
        self.ready = None
        self.steps_total = 0
        self.failed = 0
        self.problems = []
        self.samples = []
        self.t0 = self.t1 = None
        self.steps = 0
        self.counts0 = self.counts1 = None
        self.marginal_calls = 0
        self.oracle = []
        self.digest = None

    def first_step(self):
        if self.ready is None:
            self.ready = time.monotonic()
            if self.mode == "setup":
                raise Stop

    def fail(self, what):
        if what not in self.problems:
            self.problems.append(what)


# ---------------------------------------------------------------- checks


def brute_marginal(sing, fac, probs, learner_row, rank):
    """Expected joint value per learner action, by enumerating every joint
    action of the team and summing explicit pairwise tables F_j^T F_k."""
    sing = np.asarray(sing)
    n, actions = sing.shape
    fac = np.asarray(fac).reshape(n, rank, actions)
    joint = np.array(list(itertools.product(range(actions), repeat=n)))
    q = sing[np.arange(n)[None, :], joint].sum(axis=1)
    for j in range(n):
        for k in range(n):
            if j != k:
                q = q + (fac[j].T @ fac[k])[joint[:, j], joint[:, k]]
    weight = np.ones(len(joint))
    mates = [r for r in range(n) if r != learner_row]
    for m, r in enumerate(mates):
        weight = weight * np.asarray(probs)[m][joint[:, r]]
    out = np.zeros(actions)
    for a in range(actions):
        sel = joint[:, learner_row] == a
        out[a] = float((weight[sel] * q[sel]).sum())
    return out


def _rows_case(sing, fac, probs, learner_row, rank, out):
    return (sing, fac, probs, learner_row, rank), np.asarray(out)


def _tables_case(tables, model_out, learner_id, out):
    ids = list(tables.agent_ids)
    mates = [j for j in ids if j != learner_id]
    probs = np.array(
        [model_out.probs.data[model_out.teammate_ids.index(j)] for j in mates]
    ).reshape(len(mates), tables.action_count)
    args = (
        tables.singular_rows.data,
        tables.factor_rows.data,
        probs,
        ids.index(learner_id),
        tables.rank,
    )
    return args, np.asarray(out.data)


def check_oracle(p):
    for build, args, kwargs, out in p.oracle:
        case, got = build(*args, out=out, **kwargs)
        want = brute_marginal(*case)
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        if got.shape != want.shape or not np.all(err <= ORACLE_TOL):
            p.fail(f"marginalization disagrees with enumeration (max rel err {err.max():.3e})")
            return


def _finite_store(store):
    return all(np.all(np.isfinite(t.data)) for _, t in store.items())


def _finite_record(record):
    return all(
        v is None or (isinstance(v, (int, float)) and math.isfinite(v))
        for v in vars(record).values()
    )


# ---------------------------------------------------------------- wrappers


def install_oracle(p):
    """Sample marginalization calls for the post-run enumeration check."""
    from openteam.learner import values

    def sampler(build):
        def make(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                p.marginal_calls += 1
                if p.marginal_calls % ORACLE_EVERY == 0 and len(p.oracle) < ORACLE_SAMPLES:
                    p.oracle.append((build, args, kwargs, out))
                return out

            return wrapper

        return make

    rebind(values, "marginal_values", sampler(_rows_case))
    rebind(values, "marginal_q", sampler(_tables_case))


def install_tracer(tracer):
    """Spans and counts at every layer boundary named in README.md."""
    import openteam.openness as openness
    import openteam.teammates as teammates
    from openteam import nn, tensor
    from openteam.envs import session
    from openteam.harness import checkpoint, metrics
    from openteam.learner import model, values
    from openteam.learner.trainer import GplPolicy

    span = tracer.wrap
    tape_seen = {"tape": None, "n": 0}

    def roster_counts(args, kwargs, result, counts):
        departures, arrivals = result[0], result[1]
        counts["openness.departures"] += len(departures)
        counts["openness.arrivals"] += len(arrivals)

    def embed_counts(args, kwargs, result, counts):
        batch = args[1] if len(args) > 1 else kwargs["batch"]
        counts["learner.model.embed_calls"] += 1
        counts["learner.model.embed_rows"] += batch.shape[0]

    def edge_counts(args, kwargs, result, counts):
        groups = args[2] if len(args) > 2 else kwargs["groups"]
        counts["learner.values.graph_edges"] += sum(n * (n - 1) for _, n in groups)

    def tape_counts(args, kwargs, result, counts):
        tape = (args[0] if args else kwargs["loss"]).tape
        if tape is not tape_seen["tape"]:
            tape_seen["tape"], tape_seen["n"] = tape, 0
        new = tape.nodes[tape_seen["n"]:]
        tape_seen["n"] = len(tape.nodes)
        counts["tensor.tape_nodes"] += len(new)
        for node in new:
            counts["tensor.tape_nodes." + node[0]] += 1

    def checkpoint_bytes(args, kwargs, result, counts):
        path = args[1] if len(args) > 1 else kwargs["path"]
        counts["harness.checkpoint_bytes"] += os.path.getsize(path)

    layers = [
        (session.OpenEnv, "step", "envs.step", None),
        (teammates, "teammate_act", "teammates.act", None),
        (openness, "roster_step", "openness.roster", roster_counts),
        (model, "preprocess", "learner.model.preprocess", None),
        (model, "embed_rows", "learner.model.embed", embed_counts),
        (values, "utility_rows", "learner.values.utility", None),
        (values, "model_rows", "learner.values.agent_model", edge_counts),
        (values, "marginal_values", "learner.values.marginal", None),
        (values, "marginal_q", "learner.values.marginal", None),
        (tensor, "backward", "tensor.backward", tape_counts),
        (nn, "adam_step", "nn.adam", None),
        (nn, "polyak_update", "nn.polyak", None),
        (checkpoint, "save_checkpoint", "harness.checkpoint", checkpoint_bytes),
        (metrics, "append_record", "harness.metrics", None),
        (checkpoint, "load_checkpoint", "harness.load", None),
    ]
    layers += [(cls, "run_iteration", "learner.trainer", None) for cls in trainer_classes()]
    layers += [(GplPolicy, "act", "learner.policy", None)]
    for owner, attr, name, count in layers:
        rebind(owner, attr, lambda fn, name=name, count=count: span(name, fn, count))
    rebind(tensor, "forward_op", lambda fn: tracer.counter("tensor.forward_ops", fn))


def trainer_classes():
    """Every trainer class: anything in the learner modules with run_iteration."""
    from openteam.learner import baseline, trainer

    found = []
    for module in (trainer, baseline):
        for value in vars(module).values():
            if isinstance(value, type) and hasattr(value, "run_iteration") and value not in found:
                found.append(value)
    return found


# ---------------------------------------------------------------- workloads


def train_config(spec, seed):
    from openteam.config import default_config

    return replace(
        default_config(spec["env"], spec["algorithm"]),
        seed=seed,
        checkpoint_interval=CHECKPOINT_INTERVAL,
    )


def digest_step(envs):
    """First checkpoint boundary after the warm-up: every run passes it."""
    warm = TRAIN_WARMUP_ITERATIONS * envs
    return CHECKPOINT_INTERVAL * max(1, math.ceil(warm / CHECKPOINT_INTERVAL))


def run_train(p, spec, args, tracer):
    from openteam.harness.checkpoint import load_checkpoint
    from openteam.harness.metrics import read_records
    from openteam.harness import checkpoint
    from openteam.harness.run import run_training

    cfg = train_config(spec, args.seed)
    envs = cfg.parallel_envs
    warm = TRAIN_WARMUP_ITERATIONS
    fixed = max(1, round(args.seconds * spec["trace_rate"])) if args.mode == "work" else None
    st = {"trainer": None, "iter": 0, "last": None, "g0": 0, "ckpt": None, "ckpt_step": 0}

    def make_iteration(fn):
        def run_iteration(self):
            p.first_step()
            st["trainer"] = self
            try:
                fn(self)
            except Stop:
                raise
            except Exception:
                p.failed += envs
                p.steps_total += envs
                raise
            now = clock()
            p.steps_total += envs
            st["iter"] += 1
            if st["iter"] == warm:
                p.t0, st["g0"] = now, self.global_step
                p.counts0 = tracer.counts.copy() if tracer else None
            elif st["iter"] > warm:
                p.samples.append(now - st["last"])
            st["last"] = now
            done = fixed is not None and st["iter"] >= warm + fixed
            if st["iter"] > warm and (done or (fixed is None and now - p.t0 >= args.seconds)):
                close(now, self)
                raise Stop

        return run_iteration

    def close(now, trainer):
        p.t1, p.steps = now, trainer.global_step - st["g0"]
        p.counts1 = tracer.counts.copy() if tracer else None

    def make_save(fn):
        def save_checkpoint(stores, path, *a, **kw):
            fn(stores, path, *a, **kw)
            step = kw.get("global_step", a[1] if len(a) > 1 else 0)
            if not all(_finite_store(s) for s in stores.values()):
                p.failed += step - st["ckpt_step"]
                p.fail(f"non-finite parameters in checkpoint at step {step}")
            st["ckpt"], st["ckpt_step"] = (path, stores), step

        return save_checkpoint

    for cls in trainer_classes():
        rebind(cls, "run_iteration", make_iteration)
    rebind(checkpoint, "save_checkpoint", make_save)
    install_oracle(p)
    if tracer is not None:
        install_tracer(tracer)

    out_dir = Path(args.work_dir) / f"train-{args.mode}"
    try:
        run_training(cfg, str(out_dir))
    except Stop:
        pass
    if p.mode == "setup":
        return
    if p.t1 is None and st["trainer"] is not None:
        close(st["last"], st["trainer"])

    trainer = st["trainer"]
    if not all(_finite_store(s) for s in trainer.stores().values()):
        p.fail("non-finite final parameters")
    records = read_records(out_dir / "metrics.jsonl")
    if not all(_finite_record(r) for r in records):
        p.fail("non-finite metric record")
    path, stores = st["ckpt"]
    loaded, _ = load_checkpoint(path)
    for name, store in stores.items():
        for pname, t in store.items():
            if loaded[name][pname].data.tobytes() != t.data.tobytes():
                p.fail(f"checkpoint {path} does not round-trip {name}.{pname}")
                break
    check_oracle(p)

    if args.mode == "work":
        h = hashlib.sha256()
        for name, store in sorted(trainer.stores().items()):
            for pname, t in store.items():
                h.update(f"{name}.{pname}".encode())
                h.update(t.data.tobytes())
        for r in records:
            h.update(r.to_json().encode())
        p.digest = {"final_step": trainer.global_step, "sha256": h.hexdigest()}
        return
    step = digest_step(envs)
    ckpt = out_dir / f"ckpt_{step:09d}.otck"
    if ckpt.exists():
        h = hashlib.sha256(ckpt.read_bytes())
        for r in records:
            if r.global_step <= step:
                h.update(r.to_json().encode())
        p.digest = {"global_step": step, "sha256": h.hexdigest()}


def prepare_eval(args, spec):
    from openteam.harness.run import run_training

    cfg = replace(train_config(spec, args.seed), total_steps=0)
    run_training(cfg, args.work_dir)


def run_eval(p, spec, args, tracer):
    from openteam.envs import session
    from openteam.harness.run import evaluate, load_config
    from openteam.learner.trainer import GplPolicy

    work = Path(args.work_dir)
    cfg = load_config(work / "config.json")
    ckpt = str(work / "ckpt_000000000.otck")
    limit = spec["team_limit"]
    st = {"main": False, "act": 0.0, "bad": False, "last": None, "block": []}

    def make_act(fn):
        def act(self, obs):
            p.first_step()
            now = clock()
            if st["main"] and p.t0 is None:
                p.t0 = now
                p.counts0 = tracer.counts.copy() if tracer else None
            st["act"], st["bad"] = now, False
            try:
                action = fn(self, obs)
            except Exception:
                p.failed += 1
                p.steps_total += 1
                raise
            if not np.all(np.isfinite(self.last_qbar)):
                st["bad"] = True
            return action

        return act

    def make_step(fn):
        def step(self, action):
            res = fn(self, action)
            now = clock()
            p.steps_total += 1
            if st["bad"] or not math.isfinite(res.reward):
                p.failed += 1
                p.fail("non-finite action values or reward")
            if st["main"]:
                st["block"].append(now - st["act"])
                if len(st["block"]) == EVAL_BLOCK_STEPS:
                    p.samples.append(sum(st["block"]))
                    st["block"].clear()
                p.steps += 1
                st["last"] = now
            return res

        return step

    rebind(GplPolicy, "act", make_act)
    rebind(session.OpenEnv, "step", make_step)
    install_oracle(p)
    if tracer is not None:
        install_tracer(tracer)

    try:
        start = clock()
        warm = evaluate(ckpt, cfg, EVAL_WARMUP_EPISODES, args.seed, team_limit=limit)
    except Stop:
        return
    warm_s = clock() - start
    if args.mode == "time":
        episodes = max(1, round(args.seconds * EVAL_WARMUP_EPISODES / warm_s))
    else:
        episodes = max(1, round(args.seconds * spec["trace_rate"]))
    st["main"] = True
    record = evaluate(ckpt, cfg, episodes, args.seed + 1, team_limit=limit)
    p.t1 = st["last"]
    p.counts1 = tracer.counts.copy() if tracer else None

    for r in (warm, record):
        if not _finite_record(r) or r.mean_return is None:
            p.fail("non-finite evaluation record")
    check_oracle(p)
    h = hashlib.sha256(Path(ckpt).read_bytes())
    h.update(warm.to_json().encode())
    if args.mode == "work":
        h.update(record.to_json().encode())
        p.digest = {"episodes": EVAL_WARMUP_EPISODES + episodes, "sha256": h.hexdigest()}
    else:
        p.digest = {"episodes": EVAL_WARMUP_EPISODES, "sha256": h.hexdigest()}


# ---------------------------------------------------------------- results


def layer_metrics(p, tracer):
    """Per-layer times (ms per env step) and counts (per env step)."""
    total, own = tracer.window(p.t0, p.t1)
    steps = max(p.steps, 1)
    counts = p.counts1 - p.counts0

    def ms(name):
        return 1000.0 * total[name] / steps

    out = {
        f"{name}_ms": ms(name)
        for name in (
            "envs.step",
            "teammates.act",
            "openness.roster",
            "learner.model.preprocess",
            "learner.model.embed",
            "learner.values.utility",
            "learner.values.agent_model",
            "learner.values.marginal",
            "tensor.backward",
            "nn.adam",
            "nn.polyak",
            "harness.checkpoint",
            "harness.metrics",
        )
    }
    out["learner.trainer.self_ms"] = 1000.0 * own["learner.trainer"] / steps
    out["learner.policy.self_ms"] = 1000.0 * own["learner.policy"] / steps
    loads = tracer.calls("harness.load")
    out["harness.load_ms"] = 1000.0 * sum(loads) / len(loads) if loads else 0.0
    from openteam.tensor import OP_KINDS

    names = [
        "openness.arrivals",
        "openness.departures",
        "learner.model.embed_calls",
        "learner.model.embed_rows",
        "learner.values.graph_edges",
        "tensor.forward_ops",
        "tensor.tape_nodes",
        "harness.checkpoint_bytes",
    ] + [f"tensor.tape_nodes.{k}" for k in OP_KINDS]
    for name in names:
        out[name] = counts[name] / steps
    return out, dict(sorted(counts.items()))


def context(args):
    """Machine, toolchain and code identity for the result."""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
    }


def blas_info():
    """BLAS name and version from numpy's build record, and the thread count
    the loaded OpenBLAS reports (run.py pins it, see workloads.BLAS_THREADS)."""
    import ctypes

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = int(fn())
                return info
    return info


def git_rev():
    """HEAD of the checkout, read from .git without running git (None when
    the checkout is not a repository)."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest():
    """SHA-256 over every source file of the package, so a result names the
    code it measured even where there is no git repository."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def summary(p, args, tracer):
    out = {
        "ready": p.ready,
        "attempted": p.steps_total,
        "failed": p.failed,
        "problems": p.problems,
        "digest": p.digest,
        "oracle_checked": len(p.oracle),
    }
    if p.mode in ("setup", "prepare"):
        return out
    window = (p.t1 - p.t0) if p.t0 is not None and p.t1 is not None else 0.0
    out["window_s"] = window
    out["window_steps"] = p.steps
    out["steps_per_s"] = p.steps / window if window > 0 else 0.0
    if p.samples:
        p50, p90, p99 = np.percentile(np.asarray(p.samples) * 1000.0, [50, 90, 99])
        out["step_ms"] = {"p50": p50, "p90": p90, "p99": p99, "n": len(p.samples)}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["context"] = context(args)
    if tracer is not None and p.t0 is not None and p.t1 is not None:
        out["layers"], out["counts"] = layer_metrics(p, tracer)
        if args.spans:
            tracer.write(args.spans, p.t0)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("prepare", "setup", "time", "work"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload]

    p = Pass(args.mode)
    tracer = Tracer() if args.trace else None
    code = 0
    try:
        if args.mode == "prepare":
            prepare_eval(args, spec)
        elif spec["kind"] == "train":
            run_train(p, spec, args, tracer)
        else:
            run_eval(p, spec, args, tracer)
    except Exception:
        traceback.print_exc()
        p.fail("pass raised: " + traceback.format_exc().strip().splitlines()[-1])
        code = 1
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary(p, args, tracer), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
