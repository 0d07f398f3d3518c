"""Reference forms kept as bit-exact oracles, and the test session's setup.

Each function is the straightforward form that the package replaced with a
cheaper or more general one: per-call neighbour lists, a team-aware plan
rebuilt for every teammate, an any(...) scan for occupied targets, prey
scores as a min over a generator of Chebyshev distances, and a
single-environment agent-model step.
Tests compare the package against them, either directly or by patching them
all in and replaying whole sessions. Tests reach them through the
``reference_forms`` fixture.

Every test runs with OpenBLAS on one thread, as the ``openteam`` command
does: training bytes differ between thread counts.
"""

from collections import deque
from types import SimpleNamespace

import pytest

from openteam import teammates
from openteam.envs import foraging, wolfpack
from openteam.envs.base import DOWN, LEFT, RIGHT, STAY, UP, WOLF_ACTIONS, manhattan, move_target
from openteam.harness.cli import pin_blas_threads
from openteam.learner.model import Teams, agent_model_forward, preprocess, stacked


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    pin_blas_threads()


def ref_in_bounds(pos, width, height):
    return 0 <= pos[0] < height and 0 <= pos[1] < width


def ref_neighbors4(pos, width, height):
    r, c = pos
    cells = [(r - 1, c), (r, c - 1), (r, c + 1), (r + 1, c)]
    return [p for p in cells if ref_in_bounds(p, width, height)]


def ref_greedy_destination(state, pos):
    prey_i = min(range(len(state.prey)), key=lambda i: (manhattan(pos, state.prey[i]), i))
    prey_pos = state.prey[prey_i]
    cells = ref_neighbors4(prey_pos, state.width, state.height)
    return prey_pos, min(cells, key=lambda c: (manhattan(pos, c), c))


def ref_bfs_first_step(start, goal, blocked, width, height):
    if start == goal:
        return STAY
    parent = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in ref_neighbors4(cur, width, height):
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


def ref_wolf_team_aware(state, self_id):
    plans = {}
    ranked = sorted(
        state.positions,
        key=lambda a: (manhattan(state.positions[a], ref_greedy_destination(state, state.positions[a])[1]), a),
    )
    claimed = set()
    for agent in ranked:
        pos = state.positions[agent]
        _, dest = ref_greedy_destination(state, pos)
        blocked = (set(state.positions.values()) - {pos}) | set(state.prey) | claimed
        step = ref_bfs_first_step(pos, dest, blocked, state.width, state.height)
        if step is None:
            step = STAY
        next_cell = pos
        if step != STAY:
            dr, dc = {UP: (-1, 0), DOWN: (1, 0), LEFT: (0, -1), RIGHT: (0, 1)}[step]
            next_cell = (pos[0] + dr, pos[1] + dc)
        claimed.add(next_cell)
        plans[agent] = step
    return plans[self_id]


def ref_resolve_moves(current, proposals, blocked, width, height):
    targets = {}
    for ent, pos in current.items():
        tgt = proposals.get(ent, pos)
        if not ref_in_bounds(tgt, width, height):
            tgt = pos
        if tgt != pos and (tgt in blocked or any(tgt == p for e, p in current.items() if e != ent)):
            tgt = pos
        targets[ent] = tgt
    counts = {}
    for tgt in targets.values():
        counts[tgt] = counts.get(tgt, 0) + 1
    return {
        ent: tgt if (tgt == current[ent] or counts[tgt] == 1) else current[ent]
        for ent, tgt in targets.items()
    }


def ref_prey_act(state, prey_index, rng):
    pos = state.prey[prey_index]
    hunters = list(state.positions.values())
    scores = []
    for action in WOLF_ACTIONS:
        r, c = move_target(pos, action, state.width, state.height)
        scores.append(min((max(abs(r - hr), abs(c - hc)) for hr, hc in hunters), default=0))
    best = max(scores)
    choices = [a for a, s in zip(WOLF_ACTIONS, scores) if s == best]
    return int(choices[int(rng.integers(0, len(choices)))])


def ref_agent_model_step(params, obs, store, departures, arrivals):
    """Advance the agent model's recurrence in `store` to `obs`; returns
    every agent's predicted action distribution (None when the learner is
    alone) and the rows of the learner's teammates."""
    preprocess(obs, store, departures, arrivals)
    teams = Teams([obs])
    hm, cm, probs = agent_model_forward(params, teams, stacked([store], "model"))
    store.write("model", hm.data, cm.data)
    return probs, teams.mates


def patch_reference_forms(mp: pytest.MonkeyPatch) -> None:
    """Route sessions, teammates and env steps through the reference forms."""
    mp.setattr(teammates, "neighbors4", ref_neighbors4)
    mp.setattr(teammates, "_wolf_team_aware", ref_wolf_team_aware)
    mp.setattr(wolfpack, "prey_act", ref_prey_act)
    mp.setattr(wolfpack, "resolve_moves", ref_resolve_moves)
    mp.setattr(foraging, "resolve_moves", ref_resolve_moves)


@pytest.fixture(scope="session")
def reference_forms():
    return SimpleNamespace(
        neighbors4=ref_neighbors4,
        wolf_team_aware=ref_wolf_team_aware,
        resolve_moves=ref_resolve_moves,
        prey_act=ref_prey_act,
        agent_model_step=ref_agent_model_step,
        patch=patch_reference_forms,
    )
