"""Fixed-length-input Q-learning baselines.

The observation is flattened into one vector with a block per teammate slot:
slots are assigned uniformly at random (without collision) when an agent
arrives and held until it leaves; empty slots are filled with -1. The
QL-AM variant appends the agent model's predicted action distribution to
each teammate block (also -1 when absent). A recurrent embedding followed by
a value head maps the vector to learner action values.

`PaddedStep` is the baselines' value side of the trainer's iteration, for
training (all environments stacked) and acting (one environment) alike:
`padded_rows` then `ql_baseline_forward`. Like GPL, a baseline keeps its
recurrences in one `EmbeddingStore` per environment: the value and target
maps hold the learner's row alone (one-row arrays), and QL-AM's agent-model
map follows the roster. A roster change is applied when it is observed
(`PaddedStep.follow`): arrivals get their slots and the roster maps are
realigned. The trainer runs QL-AM's agent model once over the stacked
rosters of every environment on each pathway and hands its distributions to
`values`.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from .. import tensor as T
from ..config import RunConfig
from .model import EmbeddingStore, embed_rows, init_embedding, preprocess, stacked
from .values import one_hot


class SlotMap:
    """Teammate -> input-slot assignment, stable while an agent is active."""

    def __init__(self, n_slots: int):
        self.n_slots = n_slots
        self.assigned: dict[int, int] = {}

    def free_slots(self):
        used = set(self.assigned.values())
        return [s for s in range(self.n_slots) if s not in used]

    def assign(self, agent_id: int, rng) -> int:
        free = self.free_slots()
        if not free:
            raise ValueError("no free teammate slots left")
        slot = int(free[int(rng.integers(0, len(free)))])
        self.assigned[agent_id] = slot
        return slot

    def release(self, agent_id: int):
        self.assigned.pop(agent_id, None)

    def apply(self, departures, arrivals, rng):
        for agent_id in departures:
            self.release(agent_id)
        for agent_id in arrivals:
            self.assign(agent_id, rng)


def pad_observation(obs, max_agents: int, slot_map: SlotMap, probs=None, width=0) -> np.ndarray:
    """Fixed-length vector: learner block, teammate slots, then u.

    `probs` (teammate id -> action distribution of length `width`) switches
    on the QL-AM layout, appending a distribution to every teammate block.
    """
    teammates = [j for j in obs.order if j != obs.learner_id]
    if len(teammates) > max_agents - 1:
        raise ValueError(f"{len(teammates)} teammates exceed {max_agents - 1} slots")
    x_len = len(obs.x[obs.learner_id])
    block = x_len if probs is None else x_len + width
    slots = np.full((max_agents - 1) * block, -1.0)
    for agent_id in teammates:
        s = slot_map.assigned[agent_id]
        features = obs.x[agent_id]
        if probs is not None:
            features = np.concatenate([features, probs[agent_id]])
        slots[s * block : s * block + block] = features
    return np.concatenate([obs.x[obs.learner_id], slots, obs.u])


def padded_input_len(cfg: RunConfig, dims) -> int:
    """Length of the padded input vector of the configured baseline, from the
    env's (x width, u width, action count) `dims` (`model.env_dims`)."""
    x_len, u_len, action_count = dims
    block = x_len + (action_count if cfg.algorithm == "QL-AM" else 0)
    return x_len + (cfg.max_team_pad - 1) * block + u_len


def padded_rows(obs_list, slot_maps, width, teams=None, probs=None) -> np.ndarray:
    """One padded input row per observation, stacked.

    With the agent model's `teams` batch and its distributions `probs`
    (QL-AM), every teammate block also carries that teammate's predicted
    action distribution of length `width`.
    """
    rows = []
    probs = T.raw(probs)
    for e, (obs, slot_map) in enumerate(zip(obs_list, slot_maps)):
        dists = None
        if teams is not None:
            lo, hi = teams.slices[e]
            learner = teams.learner_rows[lo]
            dists = {obs.order[r - lo]: probs[r] for r in range(lo, hi) if r != learner}
        rows.append(pad_observation(obs, slot_map.n_slots + 1, slot_map, dists, width))
    return np.stack(rows)


def init_baseline_net(input_len, action_count, net_cfg, rng) -> nn.ParamStore:
    values = {}
    init_embedding(input_len, net_cfg.embedding_dim, rng, values)
    head = nn.init_mlp(
        [net_cfg.embedding_dim, *net_cfg.utility_hidden, action_count], rng, prefix="head."
    )
    values.update(head.arrays)
    return nn.ParamStore(values)


def ql_baseline_forward(params, padded, state):
    """(action values (n, |A|), (h', c')) for n padded input rows (or one)."""
    rows = np.atleast_2d(padded)
    expected = params["embed.fc.w0"].shape[0]
    if rows.shape[-1] != expected:
        raise ValueError(f"padded input length {rows.shape[-1]} != expected {expected}")
    h, c = embed_rows(params, rows, *state)
    return nn.mlp_forward(params, h, prefix="head."), (h, c)


class PaddedStep:
    """The padded-input baselines' (QL / QL-AM) value side of an iteration:
    one padded forward over all slots per pathway (see the module
    docstring). `rng` draws the teammates' input slots; `action_count` is the
    env's."""

    store_order = ("value", "target_value", "agent_model")
    mode = "QL"

    def __init__(self, cfg: RunConfig, rng, action_count: int):
        self.cfg = cfg
        self.rng = rng
        self.action_count = action_count

    def begin(self, slot, obs):
        """Fresh episode state at the episode's first observation `obs`."""
        dim = self.cfg.net.embedding_dim
        slot.obs = obs
        slot.store = EmbeddingStore(dim, ("model",) if self.cfg.algorithm == "QL-AM" else ())
        zeros = np.zeros((1, dim))
        for which in ("value", "target"):
            slot.store.write(which, zeros, zeros, [obs.learner_id])
        preprocess(obs, slot.store, [], obs.order)
        slot.slot_map = SlotMap(self.cfg.max_team_pad - 1)
        slot.slot_map.apply([], [j for j in obs.order if j != obs.learner_id], self.rng)

    def follow(self, slot, res):
        """Move on to the observation of step result `res`, applying its
        roster change: arrivals get their slots, and the roster maps of the
        store (QL-AM's agent model) drop departed agents and start arrivals
        from zeros."""
        slot.obs = res.obs
        slot.slot_map.apply(res.departures, res.arrivals, self.rng)
        preprocess(res.obs, slot.store, res.departures, res.arrivals)

    def values(self, params, slots, teams, probs, which):
        """Every slot's learner action values from its padded input row,
        advancing the value recurrence of pathway `which` one step. `teams`
        and `probs` are the agent model's pass (None for QL)."""
        obs_list, slot_maps = [s.obs for s in slots], [s.slot_map for s in slots]
        rows = padded_rows(obs_list, slot_maps, self.action_count, teams, probs)
        stores = [slot.store for slot in slots]
        q, (h, c) = ql_baseline_forward(params, rows, stacked(stores, which))
        h, c = T.raw(h), T.raw(c)
        for i, store in enumerate(stores):
            store.write(which, h[i : i + 1], c[i : i + 1])
        return list(T.raw(q)), q

    def taken(self, q, results, actions):
        """The action value of each learner action taken."""
        return T.sum_axis(q * one_hot(actions, self.action_count), 1)
