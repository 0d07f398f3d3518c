"""Fixed-seed fingerprint of training and evaluation output.

Prints one SHA-256 per (algorithm, env) over the checkpoints and
``metrics.jsonl`` of a short default-config training run, and one over the
``evaluate`` record of its last checkpoint at team limit 5 together with
every learner action taken in that evaluation (plus, for GPL, the pairwise
analysis). The actions count because a briefly trained learner often
scores zero in every episode, which leaves the record blind to behaviour.
One more row per env covers the supervised agent-model fit: the SHA-256 of
the parameters fitted (one epoch, window 4) on all but the last two
episodes of a 2,000-step random-learner collection, and of their
``heldout_nll`` on those two. A last row per env covers the random learner:
the SHA-256 of that collection's learner actions, rewards and done flags,
and of a ``random_policy_record`` at team limit 5 together with every learner
action it took.
A refactor that claims unchanged behaviour must print the same table
before and after.

    PYTHONPATH=src python3 tools/fingerprint.py [--steps 1600] [--every 800]

To check a change against a table saved before it (exit status 1 and the
differing lines if anything moved):

    PYTHONPATH=src python3 tools/fingerprint.py | diff saved.txt -

BLAS is pinned to one thread before numpy loads: digests differ between
thread counts, so compare only tables made with the same setting.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

from openteam.config import ALGORITHMS, ENVS, default_config  # noqa: E402
from openteam.envs.session import OpenEnv  # noqa: E402
from openteam.harness.analyze import analyze_pairwise  # noqa: E402
from openteam.harness.run import evaluate, random_policy_record, run_training  # noqa: E402
from openteam.learner.trainer import (  # noqa: E402
    collect_transitions,
    heldout_nll,
    train_agent_model_supervised,
)
from openteam.openness import LEARNER_ID  # noqa: E402

ACTIONS = []  # learner actions of every environment step, in order
_step = OpenEnv.step


def _recording_step(self, action):
    ACTIONS.append(action)
    return _step(self, action)


def fingerprint(algorithm, env, steps, every, work):
    cfg = replace(
        default_config(env, algorithm), total_steps=steps, checkpoint_interval=every, seed=0
    )
    out = Path(run_training(cfg, work / f"{algorithm}-{env}"))
    train = hashlib.sha256()
    for path in sorted(out.glob("ckpt_*.otck")) + [out / "metrics.jsonl"]:
        train.update(path.name.encode())
        train.update(path.read_bytes())
    last = sorted(out.glob("ckpt_*.otck"))[-1]
    ACTIONS.clear()
    record = evaluate(last, cfg, episodes=3, seed=0, team_limit=5)
    evaluation = hashlib.sha256(record.to_json().encode())
    evaluation.update(json.dumps(ACTIONS).encode())
    if algorithm.startswith("GPL"):
        analysis = analyze_pairwise(last, cfg, episodes=2, seed=0)
        evaluation.update(json.dumps(analysis, sort_keys=True).encode())
    return train.hexdigest(), evaluation.hexdigest()


def fingerprint_supervised(env):
    cfg = default_config(env, "GPL-Q")
    episodes = collect_transitions(cfg, steps=2000, seed=0)
    params = train_agent_model_supervised(cfg, episodes[:-2], seed=0, epochs=1, window=4)
    nll = heldout_nll(params, cfg, episodes[-2:])
    fit = hashlib.sha256(params.vector.tobytes()).hexdigest()
    return fit, hashlib.sha256(repr(nll).encode()).hexdigest()


def fingerprint_random(env):
    cfg = default_config(env, "GPL-Q")
    steps = [
        (res.joint_action[LEARNER_ID], float(res.reward), bool(res.done))
        for episode in collect_transitions(cfg, steps=2000, seed=0)
        for _, res in episode
    ]
    collection = hashlib.sha256(json.dumps(steps).encode()).hexdigest()
    ACTIONS.clear()
    record = random_policy_record(cfg, episodes=3, seed=0, team_limit=5)
    evaluation = hashlib.sha256(record.to_json().encode())
    evaluation.update(json.dumps(ACTIONS).encode())
    return collection, evaluation.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=1600)
    ap.add_argument("--every", type=int, default=800)
    args = ap.parse_args()
    OpenEnv.step = _recording_step
    print(f"# steps={args.steps} every={args.every} OPENBLAS_NUM_THREADS=1")
    print("| algorithm | env | train sha256 | evaluate sha256 |")
    print("|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        for algorithm in ALGORITHMS:
            for env in ENVS:
                train, evaluation = fingerprint(algorithm, env, args.steps, args.every, Path(tmp))
                print(f"| {algorithm} | {env} | {train} | {evaluation} |", flush=True)
    for env in ENVS:
        fit, nll = fingerprint_supervised(env)
        print(f"| supervised | {env} | {fit} | {nll} |", flush=True)
    for env in ENVS:
        collection, evaluation = fingerprint_random(env)
        print(f"| random | {env} | {collection} | {evaluation} |", flush=True)


if __name__ == "__main__":
    main()
