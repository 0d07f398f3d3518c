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

from itertools import permutations

import numpy as np

from .. import tensor as T
from ..config import GPL_ALGORITHMS, RunConfig
from ..envs.session import rollout
from .checkpoint import CheckpointError
from .run import eval_config, load_policy


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
    """Greedy-trajectory analysis table for a coordination-graph checkpoint,
    validated (`eval_config`) and loaded as `evaluate` does (`load_policy`)."""
    cfg = eval_config(cfg, episodes, None)
    if cfg.algorithm not in GPL_ALGORITHMS:
        raise CheckpointError(f"analysis needs a coordination-graph run, got {cfg.algorithm!r}")
    policy, session, manifest = load_policy(checkpoint_path, cfg, seed)

    episode_rows = []
    total, means, devs, steps = 0.0, [], [], 0
    for _, res in rollout(session, policy):
        tables, joint = policy.last_tables, res.joint_action
        pair_means, pair_devs = [], []
        for j, k in permutations(tables.agent_ids, 2):
            table = T.raw(tables.pairwise(j, k))
            pair_means.append(action_mean(table, joint[j]))
            pair_devs.append(deviation(table, joint[j], joint[k], literal=literal))
        if pair_means:
            means.append(float(np.mean(pair_means)))
            devs.append(float(np.mean(pair_devs)))
        total += res.reward
        steps += 1
        if not res.done:
            continue
        episode_rows.append(
            {
                "episode": len(episode_rows),
                "return": total,
                "steps": steps,
                "mean_pair_action_value": float(np.mean(means)) if means else None,
                "mean_pair_deviation": float(np.mean(devs)) if devs else None,
            }
        )
        if len(episode_rows) == episodes:
            break
        total, means, devs, steps = 0.0, [], [], 0

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
