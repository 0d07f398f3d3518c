"""Run orchestration: training runs, evaluation, config hashing."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace

import numpy as np

from .. import nn
from ..config import ConfigError, RunConfig, config_from_dict, config_to_dict
from ..envs.session import RandomPolicy, make_session, rollout
from ..learner.model import env_dims
from ..learner.trainer import GplPolicy, mean_ci, param_layouts, train
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint, shape_diff
from .cli import blas_threads
from .metrics import MetricRecord, append_record


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def _write_json(path, value):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh, indent=2)
        fh.write("\n")


def run_training(cfg: RunConfig, out_dir) -> str:
    """Train per config; writes a config copy, the BLAS library and thread
    count (`blas.json`; training bytes depend on the count), the metric
    stream, and one checkpoint per boundary into `out_dir`. Returns the
    directory."""
    cfg.validate()
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "config.json"), config_to_dict(cfg))
    _write_json(os.path.join(out_dir, "blas.json"), blas_threads())
    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    if os.path.exists(metrics_path):
        os.remove(metrics_path)
    digest = config_hash(cfg)

    def on_record(global_step, stores, record):
        ckpt = os.path.join(out_dir, f"ckpt_{global_step:09d}.otck")
        save_checkpoint(stores, ckpt, config_hash=digest, global_step=global_step)
        append_record(metrics_path, MetricRecord(**record))

    train(cfg, on_record=on_record)
    return out_dir


def _check_compatible(cfg: RunConfig, stores: dict):
    value, model = param_layouts(cfg, env_dims(cfg))
    expected = {"value": nn.layout_shapes(value)}
    if model is not None:
        expected["agent_model"] = nn.layout_shapes(model)
    problems = []
    for name, shapes in expected.items():
        if name not in stores:
            problems.append(f"checkpoint lacks store {name!r}")
            continue
        problems.extend(f"{name}.{p}" for p in shape_diff(shapes, stores[name].shapes()))
    if problems:
        raise CheckpointError(
            "checkpoint incompatible with config:\n  " + "\n  ".join(problems)
        )


def _eval_streams(cfg: RunConfig, seed: int):
    """(evaluation session, policy rng) on the two streams spawned from
    `seed`, in that order."""
    seeds = np.random.SeedSequence(seed).spawn(2)
    session = make_session(cfg.env, cfg.openness_eval, np.random.default_rng(seeds[0]))
    return session, np.random.default_rng(seeds[1])


def load_policy(checkpoint_path, cfg: RunConfig, seed: int):
    """(policy, evaluation session, manifest) of the checkpoint at
    `checkpoint_path`, after checking that its stores fit `cfg`; the session
    and the policy draw from the streams of `seed` (`_eval_streams`)."""
    stores, manifest = load_checkpoint(checkpoint_path)
    _check_compatible(cfg, stores)
    session, rng = _eval_streams(cfg, seed)
    return GplPolicy(cfg, stores["value"], stores.get("agent_model"), rng), session, manifest


def eval_config(cfg: RunConfig, episodes: int, team_limit: int | None) -> RunConfig:
    """`cfg` with its evaluation team limit set to `team_limit` (when given),
    validated before any episode runs or checkpoint is read."""
    if episodes < 1:
        raise ConfigError("need at least one evaluation episode")
    if team_limit is not None:
        cfg = replace(cfg, openness_eval=replace(cfg.openness_eval, team_limit=team_limit))
    return cfg.validate()


def _returns_record(global_step: int, session, policy, episodes: int) -> MetricRecord:
    """Record of the mean return (with 95% CI) of the first `episodes`
    episodes of `policy` playing `session`."""
    returns = [0.0]
    for _, res in rollout(session, policy):
        returns[-1] += res.reward
        if res.done:
            if len(returns) == episodes:
                return MetricRecord(global_step, episodes, *mean_ci(returns))
            returns.append(0.0)


def evaluate(
    checkpoint_path, cfg: RunConfig, episodes: int, seed: int, team_limit: int | None = None
) -> MetricRecord:
    """Mean return (with 95% CI) of the stored policy under the evaluation
    openness process. Pure function of (checkpoint, config, seed)."""
    cfg = eval_config(cfg, episodes, team_limit)
    policy, session, manifest = load_policy(checkpoint_path, cfg, seed)
    return _returns_record(int(manifest.get("global_step", 0)), session, policy, episodes)


def random_policy_record(cfg: RunConfig, episodes: int, seed: int, team_limit=None) -> MetricRecord:
    """Uniform-random learner baseline under the same evaluation process."""
    cfg = eval_config(cfg, episodes, team_limit)
    session, rng = _eval_streams(cfg, seed)
    return _returns_record(0, session, RandomPolicy(session.action_count, rng), episodes)
