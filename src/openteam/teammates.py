"""Scripted teammate policies for both environments.

Each type tag ("wolf.H2", "lbf.H6", ...) maps to one pure policy over the
full state (wolfpack) or a square observation window (foraging). Per-agent
quirks (waiting radius, window size) are sampled once at spawn into a
TeammateMemory and never change afterwards.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .envs.base import (
    DELTAS,
    DOWN,
    LEFT,
    LOAD,
    RIGHT,
    STAY,
    UP,
    manhattan,
    neighbor_table,
    neighbors4,
)
from .envs.foraging import ACTIONS as LBF_ACTIONS, TEAMMATE_TYPES as LBF_TYPES, LbfState
from .envs.wolfpack import ACTIONS as WOLF_ACTIONS, TEAMMATE_TYPES as WOLF_TYPES, WolfState

WAITING_RADII = (3, 4, 5)
WINDOW_SIZES = (3, 5, 7)
_WAITING_TYPES = {"wolf.H7", "wolf.H8", "wolf.H9"}


@dataclass(frozen=True)
class TeammateMemory:
    """Spawn-time traits: wolfpack waiting radius, foraging window size."""

    waiting_radius: int | None = None
    window: int | None = None


def sample_memory(type_id: str, rng) -> TeammateMemory:
    if type_id.startswith("wolf."):
        if type_id in _WAITING_TYPES:
            return TeammateMemory(waiting_radius=int(rng.choice(WAITING_RADII)))
        return TeammateMemory()
    if type_id.startswith("lbf."):
        return TeammateMemory(window=int(rng.choice(WINDOW_SIZES)))
    raise ValueError(f"unknown teammate type: {type_id!r}")


def teammate_act(type_id: str, state, self_id: int, mem: TeammateMemory, rng) -> int:
    if type_id.startswith("wolf."):
        return wolf_act(type_id, state, self_id, mem, rng)
    if type_id.startswith("lbf."):
        return lbf_act(type_id, state, self_id, mem, rng)
    raise ValueError(f"unknown teammate type: {type_id!r}")


# ---------------------------------------------------------------------------
# Wolfpack heuristics. Distances are Manhattan throughout.
# ---------------------------------------------------------------------------


def _uniform(rng, actions) -> int:
    return int(actions[int(rng.integers(0, len(actions)))])


def _nearest_prey(prey, pos):
    best, best_dist = None, None
    for i, prey_pos in enumerate(prey):
        d = manhattan(pos, prey_pos)
        if best_dist is None or d < best_dist:
            best, best_dist = i, d
    return best, best_dist


def _greedy_destination(prey, pos, width, height):
    """Nearest prey and the nearest in-grid cell adjacent to it (row-major ties)."""
    prey_i, _ = _nearest_prey(prey, pos)
    prey_pos = prey[prey_i]
    cells = neighbors4(prey_pos, width, height)
    dest = min(cells, key=lambda c: (manhattan(pos, c), c))
    return prey_pos, dest


def _axis_step(pos, dest, axis) -> int:
    if axis == "row" and dest[0] != pos[0]:
        return UP if dest[0] < pos[0] else DOWN
    if axis == "col" and dest[1] != pos[1]:
        return LEFT if dest[1] < pos[1] else RIGHT
    return STAY


def _move_along_axis(pos, dest, axis) -> int:
    # Fall back to the other axis when the preferred one needs no movement.
    step = _axis_step(pos, dest, axis)
    if step == STAY:
        step = _axis_step(pos, dest, "col" if axis == "row" else "row")
    return step


def _wolf_greedy(state: WolfState, pos) -> int:
    """Move toward the destination along the axis farther from the prey."""
    prey_pos, dest = _greedy_destination(state.prey, pos, state.width, state.height)
    axis = "row" if abs(prey_pos[0] - pos[0]) >= abs(prey_pos[1] - pos[1]) else "col"
    return _move_along_axis(pos, dest, axis)


def _wolf_greedy_prob(state: WolfState, pos, rng) -> int:
    """Like greedy, but the movement axis is Boltzmann-sampled (unit
    temperature) from the two axis distances to the prey."""
    prey_pos, dest = _greedy_destination(state.prey, pos, state.width, state.height)
    dr = abs(prey_pos[0] - pos[0])
    dc = abs(prey_pos[1] - pos[1])
    p_row = math.exp(dr) / (math.exp(dr) + math.exp(dc))
    axis = "row" if rng.random() < p_row else "col"
    return _move_along_axis(pos, dest, axis)


def _bfs_first_step(start, goal, blocked, width, height):
    """First move of a shortest path (None when the goal is unreachable)."""
    if start == goal:
        return STAY
    neighbors = neighbor_table(width, height)
    parent = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in neighbors[cur]:
            if nxt in parent or (nxt in blocked and nxt != goal):
                continue
            parent[nxt] = cur
            if nxt == goal:
                while parent[nxt] != start:
                    nxt = parent[nxt]
                dr, dc = nxt[0] - start[0], nxt[1] - start[1]
                for action, delta in ((UP, (-1, 0)), (DOWN, (1, 0)), (LEFT, (0, -1)), (RIGHT, (0, 1))):
                    if (dr, dc) == delta:
                        return action
            queue.append(nxt)
    return None


@lru_cache(maxsize=1)
def _team_plans(width, height, positions, prey):
    """Collision-free shortest-path first moves for all hunters, nearest-first.

    `positions` holds (agent id, cell) pairs. Hunters are ranked by distance
    to their greedy destination (agent id breaks ties); each plan avoids
    other hunters, prey, and cells already claimed by higher-ranked hunters.
    Pure over its arguments, so every team-aware teammate of one state
    shares one plan.
    """
    cells = dict(positions)
    dests = {a: _greedy_destination(prey, pos, width, height)[1] for a, pos in positions}
    hunters, prey_cells = set(cells.values()), set(prey)
    plans, claimed = {}, set()
    for agent in sorted(cells, key=lambda a: (manhattan(cells[a], dests[a]), a)):
        pos = cells[agent]
        blocked = (hunters - {pos}) | prey_cells | claimed
        step = _bfs_first_step(pos, dests[agent], blocked, width, height)
        if step is None:
            step = STAY
        dr, dc = DELTAS[step]
        claimed.add((pos[0] + dr, pos[1] + dc))
        plans[agent] = step
    return plans


def _wolf_team_aware(state: WolfState, self_id: int) -> int:
    plans = _team_plans(
        state.width, state.height, tuple(state.positions.items()), tuple(state.prey)
    )
    return plans[self_id]


def _waiting(state: WolfState, self_id: int, radius: int) -> bool:
    pos = state.positions[self_id]
    prey_i, dist = _nearest_prey(state.prey, pos)
    if dist > radius:
        return False
    prey_pos = state.prey[prey_i]
    others_close = any(
        manhattan(p, prey_pos) <= radius
        for a, p in state.positions.items()
        if a != self_id
    )
    return not others_close


def wolf_act(type_id: str, state: WolfState, self_id: int, mem: TeammateMemory, rng) -> int:
    if type_id not in WOLF_TYPES:
        raise ValueError(f"unknown wolfpack type: {type_id!r}")
    if not state.prey and type_id != "wolf.H1":
        return _uniform(rng, WOLF_ACTIONS)
    pos = state.positions[self_id]
    if type_id == "wolf.H1":
        return _uniform(rng, WOLF_ACTIONS)
    if type_id == "wolf.H2":
        return _wolf_greedy(state, pos)
    if type_id == "wolf.H3":
        return _wolf_greedy_prob(state, pos, rng)
    if type_id == "wolf.H4":
        return _wolf_team_aware(state, self_id)
    # Waiting variants park probabilistically when already staking out a prey.
    if _waiting(state, self_id, mem.waiting_radius):
        return _uniform(rng, WOLF_ACTIONS)
    if type_id == "wolf.H7":
        return _wolf_greedy(state, pos)
    if type_id == "wolf.H8":
        return _wolf_greedy_prob(state, pos, rng)
    return _wolf_team_aware(state, self_id)


# ---------------------------------------------------------------------------
# Foraging heuristics. Visibility is a square window centered on the agent.
# ---------------------------------------------------------------------------


def _visible(pos, other, window) -> bool:
    half = window // 2
    return abs(pos[0] - other[0]) <= half and abs(pos[1] - other[1]) <= half


def _visible_objects(state: LbfState, pos, window):
    return [
        (i, o)
        for i, o in enumerate(state.objects)
        if not o.collected and _visible(pos, o.pos, window)
    ]


def _visible_agents(state: LbfState, pos, window, exclude=None):
    return [
        a
        for a, p in state.positions.items()
        if a != exclude and _visible(pos, p, window)
    ]


def _centroid(points):
    n = len(points)
    return (sum(p[0] for p in points) / n, sum(p[1] for p in points) / n)


def _fdist(cell, point) -> float:
    return abs(cell[0] - point[0]) + abs(cell[1] - point[1])


def _pick_levelwise(objects, level, origin):
    """Highest level strictly below `level`, else highest level overall;
    nearest to `origin` among equals."""
    below = [(i, o) for i, o in objects if o.level < level]
    pool = below if below else objects
    top = max(o.level for _, o in pool)
    pool = [(i, o) for i, o in pool if o.level == top]
    return min(pool, key=lambda io: (manhattan(origin, io[1].pos), io[0]))


def _pick_farthest(objects, origin):
    return max(objects, key=lambda io: (manhattan(origin, io[1].pos), -io[0]))


def _pick_closest(objects, origin):
    return min(objects, key=lambda io: (manhattan(origin, io[1].pos), io[0]))


def _step_toward(pos, target) -> int:
    """One-step greedy descent, row axis first on ties."""
    dr = target[0] - pos[0]
    dc = target[1] - pos[1]
    if dr != 0 and (abs(dr) >= abs(dc) or dc == 0):
        return UP if dr < 0 else DOWN
    if dc != 0:
        return LEFT if dc < 0 else RIGHT
    return STAY


def _go_collect(pos, obj) -> int:
    if manhattan(pos, obj.pos) == 1:
        return LOAD
    return _step_toward(pos, obj.pos)


def _leader_following(state, self_id, pos, window, rng, leader_rule, target_rule):
    others = _visible_agents(state, pos, window, exclude=self_id)
    if not others:
        return _uniform(rng, LBF_ACTIONS)
    leader = leader_rule(others)
    leader_pos = state.positions[leader]
    objects = _visible_objects(state, pos, window)
    if not objects:
        if manhattan(pos, leader_pos) <= 1:
            return STAY
        return _step_toward(pos, leader_pos)
    _, obj = target_rule(objects, leader, leader_pos)
    return _go_collect(pos, obj)


def lbf_act(type_id: str, state: LbfState, self_id: int, mem: TeammateMemory, rng) -> int:
    if type_id not in LBF_TYPES:
        raise ValueError(f"unknown foraging type: {type_id!r}")
    pos = state.positions[self_id]
    window = mem.window
    level = state.levels[self_id]

    if type_id == "lbf.H1":
        # Follow the highest-level agent (if stronger than self), otherwise
        # the farthest visible one; infer its target as a level-based picker.
        def leader_rule(others):
            top = max(state.levels[a] for a in others)
            if top > level:
                return min(a for a in others if state.levels[a] == top)
            return max(others, key=lambda a: (manhattan(pos, state.positions[a]), -a))

        def target_rule(objects, leader, leader_pos):
            return _pick_levelwise(objects, state.levels[leader], leader_pos)

        return _leader_following(state, self_id, pos, window, rng, leader_rule, target_rule)

    if type_id == "lbf.H2":
        # Follow the farthest visible agent; infer its target as the object
        # farthest from it.
        def leader_rule(others):
            return max(others, key=lambda a: (manhattan(pos, state.positions[a]), -a))

        def target_rule(objects, leader, leader_pos):
            return _pick_farthest(objects, leader_pos)

        return _leader_following(state, self_id, pos, window, rng, leader_rule, target_rule)

    objects = _visible_objects(state, pos, window)
    if type_id == "lbf.H3":
        if not objects:
            return _uniform(rng, LBF_ACTIONS)
        _, obj = _pick_levelwise(objects, level, pos)
        return _go_collect(pos, obj)

    if type_id == "lbf.H4":
        if not objects:
            return _uniform(rng, LBF_ACTIONS)
        _, obj = _pick_farthest(objects, pos)
        return _go_collect(pos, obj)

    if type_id == "lbf.H6":
        if not objects:
            return _uniform(rng, LBF_ACTIONS)
        _, obj = _pick_closest(objects, pos)
        return _go_collect(pos, obj)

    if type_id == "lbf.H7":
        if not objects:
            return _uniform(rng, LBF_ACTIONS)
        players = [state.positions[a] for a in _visible_agents(state, pos, window)]
        center = _centroid(players)
        _, obj = min(objects, key=lambda io: (_fdist(io[1].pos, center), io[0]))
        return _go_collect(pos, obj)

    if type_id == "lbf.H8":
        eligible = [(i, o) for i, o in objects if o.level <= level]
        if not eligible:
            return _uniform(rng, LBF_ACTIONS)
        _, obj = _pick_closest(eligible, pos)
        return _go_collect(pos, obj)

    # lbf.H9: objects the visible team could lift, nearest to the team centroid.
    agents = _visible_agents(state, pos, window)
    team_level = sum(state.levels[a] for a in agents)
    eligible = [(i, o) for i, o in objects if o.level <= team_level]
    if not eligible:
        return _uniform(rng, LBF_ACTIONS)
    center = _centroid([state.positions[a] for a in agents])
    _, obj = min(eligible, key=lambda io: (_fdist(io[1].pos, center), io[0]))
    return _go_collect(pos, obj)
