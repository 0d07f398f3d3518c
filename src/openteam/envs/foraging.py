"""Level-based foraging on an 8x8 grid.

Agents and objects carry levels in {1, 2, 3}. Objects are collected when the
levels of the agents simultaneously loading from 4-adjacent cells sum to at
least the object's level; the learner is rewarded with the level of every
object it helps collect. Episodes end when all objects are gone or the
horizon is reached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..openness import LEARNER_ID, Roster
from .base import (
    LBF_ACTIONS,
    LOAD,
    MOVE_ACTIONS,
    Observation,
    manhattan,
    move_target,
    resolve_moves,
    sample_empty_cell,
)

LEVELS = (1, 2, 3)


@dataclass
class FoodItem:
    pos: tuple[int, int]
    level: int
    collected: bool = False


@dataclass
class LbfState:
    width: int
    height: int
    positions: dict[int, tuple[int, int]]
    levels: dict[int, int]
    objects: list[FoodItem]
    step: int = 0
    horizon: int = 50

    def occupied_cells(self):
        cells = set(self.positions.values())
        cells.update(o.pos for o in self.objects if not o.collected)
        return cells

    def copy(self) -> "LbfState":
        return LbfState(
            self.width,
            self.height,
            dict(self.positions),
            dict(self.levels),
            [FoodItem(o.pos, o.level, o.collected) for o in self.objects],
            self.step,
            self.horizon,
        )


def lbf_reset(rng, agent_levels: dict[int, int], cfg) -> LbfState:
    """Place agents then objects on distinct cells; object levels uniform."""
    state = LbfState(cfg.width, cfg.height, {}, dict(agent_levels), [], 0, cfg.horizon)
    for agent_id in agent_levels:
        state.positions[agent_id] = sample_empty_cell(
            rng, state.occupied_cells(), cfg.width, cfg.height
        )
    for _ in range(cfg.n_objects):
        pos = sample_empty_cell(rng, state.occupied_cells(), cfg.width, cfg.height)
        state.objects.append(FoodItem(pos, int(rng.choice(LEVELS))))
    return state


def add_agent(state: LbfState, agent_id: int, rng) -> None:
    state.positions[agent_id] = sample_empty_cell(
        rng, state.occupied_cells(), state.width, state.height
    )
    state.levels[agent_id] = int(rng.choice(LEVELS))


def remove_agent(state: LbfState, agent_id: int) -> None:
    del state.positions[agent_id]
    del state.levels[agent_id]


def lbf_step(state: LbfState, actions: dict[int, int], rng):
    """Resolve moves, then loading; returns (state', learner reward, done)."""
    if set(actions) != set(state.positions):
        raise ValueError(
            f"joint action covers {sorted(actions)} but roster is {sorted(state.positions)}"
        )
    for agent_id, action in actions.items():
        if action not in LBF_ACTIONS:
            raise ValueError(f"invalid action {action} for agent {agent_id}")

    new = state.copy()
    blocked = {o.pos for o in new.objects if not o.collected}
    proposals = {
        a: move_target(new.positions[a], act, new.width, new.height)
        for a, act in actions.items()
        if act in MOVE_ACTIONS
    }
    new.positions = resolve_moves(new.positions, proposals, blocked, new.width, new.height)

    reward = 0.0
    loaders = [a for a, act in actions.items() if act == LOAD]
    for obj in new.objects:
        if obj.collected:
            continue
        crew = [a for a in loaders if manhattan(new.positions[a], obj.pos) == 1]
        if crew and sum(new.levels[a] for a in crew) >= obj.level:
            obj.collected = True
            if LEARNER_ID in crew:
                reward += float(obj.level)

    new.step += 1
    done = all(o.collected for o in new.objects) or new.step >= new.horizon
    return new, reward, done


def encode_lbf_obs(state: LbfState, roster: Roster) -> Observation:
    """u = 3 object slots of (row, col, level), collected slots -1; x = (row, col, level)."""
    u = np.full(3 * len(state.objects), -1.0)
    for i, obj in enumerate(state.objects):
        if not obj.collected:
            u[3 * i : 3 * i + 3] = (obj.pos[0], obj.pos[1], obj.level)
    x = {
        j: np.array(
            [state.positions[j][0], state.positions[j][1], state.levels[j]], dtype=float
        )
        for j in roster.ids
    }
    return Observation(u=u, x=x, order=roster.ids, learner_id=LEARNER_ID)
