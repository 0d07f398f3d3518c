"""Wolfpack: hunters chase fleeing prey on a 10x10 grid.

A prey is captured when at least two hunters stand on cells 4-adjacent to
it. Every capture pays the learner twice the capturing pack's size if the
learner is in the pack; standing alone next to a prey costs -0.5. Captured
prey respawn at a random empty cell, so the prey count stays constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..openness import LEARNER_ID, Roster
from .base import (
    MOVE_ACTIONS,
    STAY,
    Observation,
    check_joint_action,
    manhattan,
    move_target,
    resolve_moves,
    sample_empty_cell,
)

ACTIONS = (*MOVE_ACTIONS, STAY)
TEAMMATE_TYPES = ("wolf.H1", "wolf.H2", "wolf.H3", "wolf.H4", "wolf.H7", "wolf.H8", "wolf.H9")
# Default openness: teammates stay 25-35 steps and slots wait 15-25.
ACTIVE_RANGE, WAITING_RANGE = (25, 35), (15, 25)


@dataclass
class WolfState:
    width: int
    height: int
    positions: dict[int, tuple[int, int]]  # hunters
    prey: list[tuple[int, int]]
    step: int = 0
    horizon: int = 200

    def occupied_cells(self):
        return set(self.positions.values()) | set(self.prey)

    def copy(self) -> "WolfState":
        return WolfState(
            self.width, self.height, dict(self.positions), list(self.prey), self.step, self.horizon
        )


def cells_needed(cfg) -> int:
    """Cells the world takes beside the team's: one per prey, and a spare one,
    since a capture respawns its prey while the old cell is still taken."""
    return cfg.prey_count + 1


def reset(rng, agent_ids, cfg) -> WolfState:
    """Place the hunters, then the prey, on distinct cells."""
    state = WolfState(cfg.width, cfg.height, {}, [], 0, cfg.horizon)
    for agent_id in agent_ids:
        state.positions[agent_id] = sample_empty_cell(
            rng, state.occupied_cells(), cfg.width, cfg.height
        )
    for _ in range(cfg.prey_count):
        state.prey.append(
            sample_empty_cell(rng, state.occupied_cells(), cfg.width, cfg.height)
        )
    return state


def add_agent(state: WolfState, agent_id: int, rng) -> None:
    state.positions[agent_id] = sample_empty_cell(
        rng, state.occupied_cells(), state.width, state.height
    )


def remove_agent(state: WolfState, agent_id: int) -> None:
    del state.positions[agent_id]


def prey_act(state: WolfState, prey_index: int, rng) -> int:
    """Flee move: maximize the minimum Chebyshev distance to any hunter.

    Each action is scored by the in-grid cell it would reach (off-grid moves
    score like staying); ties are broken uniformly at random.
    """
    pos = state.prey[prey_index]
    hunters = list(state.positions.values())
    scores = []
    for action in ACTIONS:
        r, c = move_target(pos, action, state.width, state.height)
        # Chebyshev distance to the nearest hunter (0 without hunters).
        near = None
        for hr, hc in hunters:
            dr = r - hr if r >= hr else hr - r
            dc = c - hc if c >= hc else hc - c
            if dc > dr:
                dr = dc
            if near is None or dr < near:
                near = dr
        scores.append(0 if near is None else near)
    best = max(scores)
    choices = [a for a, s in zip(ACTIONS, scores) if s == best]
    return int(choices[int(rng.integers(0, len(choices)))])


def wolf_step(state: WolfState, actions: dict[int, int], rng):
    """Move hunters and prey simultaneously, then resolve captures.

    Returns (state', learner reward, done).
    """
    check_joint_action(actions, state.positions, ACTIONS)

    new = state.copy()
    prey_keys = [("prey", i) for i in range(len(new.prey))]
    current = dict(new.positions)
    current.update(dict(zip(prey_keys, new.prey)))
    proposals = {
        a: move_target(new.positions[a], act, new.width, new.height)
        for a, act in actions.items()
        if act in MOVE_ACTIONS
    }
    for key, prey_pos in zip(prey_keys, new.prey):
        action = prey_act(state, key[1], rng)
        if action in MOVE_ACTIONS:
            proposals[key] = move_target(prey_pos, action, new.width, new.height)
    resolved = resolve_moves(current, proposals, set(), new.width, new.height)
    new.positions = {a: resolved[a] for a in new.positions}
    new.prey = [resolved[k] for k in prey_keys]

    reward = 0.0
    for i, prey_pos in enumerate(new.prey):
        pack = [a for a, p in new.positions.items() if manhattan(p, prey_pos) == 1]
        if len(pack) >= 2:
            if LEARNER_ID in pack:
                reward += 2.0 * len(pack)
            new.prey[i] = sample_empty_cell(
                rng, new.occupied_cells(), new.width, new.height
            )
        elif pack == [LEARNER_ID]:
            reward -= 0.5

    new.step += 1
    return new, reward, new.step >= new.horizon


step = wolf_step


def observe(state: WolfState, roster: Roster) -> Observation:
    """u = prey (row, col) slots in index order; x = hunter (row, col)."""
    u = np.array([coord for pos in state.prey for coord in pos], dtype=float)
    x = {
        j: np.array(state.positions[j], dtype=float)
        for j in roster.ids
    }
    return Observation(u=u, x=x, order=roster.ids, learner_id=LEARNER_ID)
