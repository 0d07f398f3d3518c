"""Pairwise-utility analysis of a trained coordination-graph checkpoint.

Two per-pair metrics over a pairwise table P (|A| x |A|):

  action_mean(P, a_j)        = sum_b P[a_j, b] / |A|
      the mean contribution of agent j fixing its action, averaged over the
      partner's actions;

  deviation(P, a_j, a_k)     = P[a_j, a_k] - N
      with N the mean over every other cell, N = (sum(P) - P[a_j, a_k])
      / (|A|^2 - 1). A "literal" variant instead sums only cells with both
      coordinates different, while keeping the same denominator.

Trajectories are collected with the greedy policy; per-episode means of both
metrics are correlated (Pearson) against the episode returns.
"""

from __future__ import annotations

import json

import numpy as np

from .. import tensor as T
from ..config import GPL_ALGORITHMS, RunConfig
from ..envs.session import make_session
from ..learner.trainer import GplPolicy
from .checkpoint import CheckpointError, load_checkpoint


def action_mean(table: np.ndarray, a_j: int) -> float:
    table = np.asarray(table)
    return float(table[a_j].sum() / table.shape[1])


def deviation(table: np.ndarray, a_j: int, a_k: int, literal: bool = False) -> float:
    table = np.asarray(table)
    n_actions = table.shape[0]
    cell = table[a_j, a_k]
    if literal:
        mask = np.ones_like(table, dtype=bool)
        mask[a_j, :] = False
        mask[:, a_k] = False
        rest = table[mask].sum()
    else:
        rest = table.sum() - cell
    return float(cell - rest / (n_actions * n_actions - 1))


def _pearson(xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 2 or np.std(xs) == 0 or np.std(ys) == 0:
        return None
    return float(np.corrcoef(xs, ys)[0, 1])


def analyze_pairwise(
    checkpoint_path, cfg: RunConfig, episodes: int = 10, seed: int = 0, literal: bool = False
) -> dict:
    """Greedy-trajectory analysis table for a coordination-graph checkpoint."""
    if cfg.algorithm not in GPL_ALGORITHMS:
        raise CheckpointError(f"analysis needs a coordination-graph run, got {cfg.algorithm!r}")
    stores, manifest = load_checkpoint(checkpoint_path)
    if "agent_model" not in stores:
        raise CheckpointError("checkpoint lacks the agent model store")

    seeds = np.random.SeedSequence(seed).spawn(2)
    session = make_session(cfg.env, cfg.openness_eval, np.random.default_rng(seeds[0]))
    policy = GplPolicy(cfg, stores["value"], stores["agent_model"], np.random.default_rng(seeds[1]))

    episode_rows = []
    for episode in range(episodes):
        obs = session.reset()
        policy.reset(obs)
        total = 0.0
        means, devs, steps = [], [], 0
        done = False
        while not done:
            action = policy.act(obs)
            res = session.step(action)
            tables = policy.last_tables
            joint = res.joint_action
            pair_means, pair_devs = [], []
            ids = tables.agent_ids
            for j in ids:
                for k in ids:
                    if j == k:
                        continue
                    table = T.raw(tables.pairwise(j, k))
                    pair_means.append(action_mean(table, joint[j]))
                    pair_devs.append(deviation(table, joint[j], joint[k], literal=literal))
            if pair_means:
                means.append(float(np.mean(pair_means)))
                devs.append(float(np.mean(pair_devs)))
            policy.observe(res)
            total += res.reward
            obs = res.obs
            done = res.done
            steps += 1
        episode_rows.append(
            {
                "episode": episode,
                "return": total,
                "steps": steps,
                "mean_pair_action_value": float(np.mean(means)) if means else None,
                "mean_pair_deviation": float(np.mean(devs)) if devs else None,
            }
        )

    with_pairs = [r for r in episode_rows if r["mean_pair_action_value"] is not None]
    returns = [r["return"] for r in with_pairs]
    return {
        "global_step": int(manifest.get("global_step", 0)),
        "episodes": episode_rows,
        "correlations": {
            "pair_action_value_vs_return": _pearson(
                [r["mean_pair_action_value"] for r in with_pairs], returns
            ),
            "pair_deviation_vs_return": _pearson(
                [r["mean_pair_deviation"] for r in with_pairs], returns
            ),
        },
        "literal_deviation": literal,
    }


def write_analysis(result: dict, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
