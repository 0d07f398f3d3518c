"""Shared grid-world plumbing: actions, movement resolution, observations,
and the joint-action check of every world's step."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

# Action indices shared by both environments; each world lists the ones it
# takes (`ACTIONS`). Coordinates are (row, col) with row 0 at the top; "up"
# decreases the row.
UP, DOWN, LEFT, RIGHT, STAY, LOAD = range(6)
DELTAS = {UP: (-1, 0), DOWN: (1, 0), LEFT: (0, -1), RIGHT: (0, 1), STAY: (0, 0)}
MOVE_ACTIONS = (UP, DOWN, LEFT, RIGHT)


@dataclass(frozen=True)
class EnvConfig:
    name: str  # "lbf" or "wolfpack"
    width: int
    height: int
    horizon: int
    n_objects: int = 3
    prey_count: int = 2

    @staticmethod
    def defaults(name: str) -> "EnvConfig":
        if name == "lbf":
            return EnvConfig("lbf", 8, 8, 50)
        if name == "wolfpack":
            return EnvConfig("wolfpack", 10, 10, 200)
        raise ValueError(f"unknown environment: {name!r}")


@dataclass
class Observation:
    """Shared vector `u` plus per-agent vectors `x`, learner slot first."""

    u: np.ndarray
    x: dict[int, np.ndarray]
    order: list[int]
    learner_id: int

    def batch_rows(self):
        """Per-agent concat(x_j, u) rows in roster order."""
        width = len(self.x[self.order[0]])
        rows = np.empty((len(self.order), width + len(self.u)))
        for row, j in zip(rows, self.order):
            row[:width] = self.x[j]
        rows[:, width:] = self.u
        return rows


def check_joint_action(actions: dict, agents, valid) -> None:
    """Raise ValueError unless `actions` gives every one of `agents`, and no
    other agent, an action in `valid`."""
    if set(actions) != set(agents):
        raise ValueError(f"joint action covers {sorted(actions)} but roster is {sorted(agents)}")
    for agent_id, action in actions.items():
        if action not in valid:
            raise ValueError(f"invalid action {action} for agent {agent_id}")


def manhattan(a, b) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def in_bounds(pos, width, height) -> bool:
    return 0 <= pos[0] < height and 0 <= pos[1] < width


@cache
def neighbor_table(width, height):
    """In-grid 4-neighborhood of every in-grid cell, row-major order."""
    return {
        (r, c): tuple(
            p for p in ((r - 1, c), (r, c - 1), (r, c + 1), (r + 1, c)) if in_bounds(p, width, height)
        )
        for r in range(height)
        for c in range(width)
    }


def neighbors4(pos, width, height):
    """In-grid 4-neighborhood of an in-grid cell, row-major order."""
    return neighbor_table(width, height)[pos]


def move_target(pos, action, width, height):
    dr, dc = DELTAS.get(action, (0, 0))
    target = (pos[0] + dr, pos[1] + dc)
    return target if in_bounds(target, width, height) else pos


def resolve_moves(current: dict, proposals: dict, blocked, width, height) -> dict:
    """Simultaneous movement with deterministic conflict handling.

    A proposed move is cancelled (the entity stays) when the target is
    off-grid, statically blocked, equal to any other entity's current cell,
    or targeted by more than one entity. `current` maps every entity to its
    cell; `proposals` maps movers to desired cells.
    """
    targets = {}
    cells = set(current.values())  # a target other than pos found here is another's cell
    for ent, pos in current.items():
        tgt = proposals.get(ent, pos)
        if not in_bounds(tgt, width, height):
            tgt = pos
        if tgt != pos and (tgt in blocked or tgt in cells):
            tgt = pos
        targets[ent] = tgt
    counts = {}
    for tgt in targets.values():
        counts[tgt] = counts.get(tgt, 0) + 1
    return {
        ent: tgt if (tgt == current[ent] or counts[tgt] == 1) else current[ent]
        for ent, tgt in targets.items()
    }


def sample_empty_cell(rng, occupied, width, height):
    cells = [
        (r, c) for r in range(height) for c in range(width) if (r, c) not in occupied
    ]
    if not cells:
        raise RuntimeError("grid is full")
    return cells[int(rng.integers(0, len(cells)))]
