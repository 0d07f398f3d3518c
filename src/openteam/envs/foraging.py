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
    LOAD,
    MOVE_ACTIONS,
    STAY,
    Observation,
    check_joint_action,
    manhattan,
    move_target,
    resolve_moves,
    sample_empty_cell,
)

LEVELS = (1, 2, 3)
ACTIONS = (*MOVE_ACTIONS, STAY, LOAD)
TEAMMATE_TYPES = ("lbf.H1", "lbf.H2", "lbf.H3", "lbf.H4", "lbf.H6", "lbf.H7", "lbf.H8", "lbf.H9")
# Default openness: teammates stay 15-25 steps and slots wait 10-20.
ACTIVE_RANGE, WAITING_RANGE = (15, 25), (10, 20)


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


def cells_needed(cfg) -> int:
    """Cells the world takes beside the team's: one per object."""
    return cfg.n_objects


def reset(rng, agent_ids, cfg) -> LbfState:
    """Draw each agent's level, in `agent_ids` order, then place the agents
    and the objects on distinct cells; object levels are uniform."""
    levels = {agent_id: int(rng.choice(LEVELS)) for agent_id in agent_ids}
    state = LbfState(cfg.width, cfg.height, {}, levels, [], 0, cfg.horizon)
    for agent_id in levels:
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
    check_joint_action(actions, state.positions, ACTIONS)

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


step = lbf_step


def observe(state: LbfState, roster: Roster) -> Observation:
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
