"""Fixed-length-input Q-learning baselines.

The observation is flattened into one vector with a block per teammate slot:
slots are assigned uniformly at random (without collision) when an agent
arrives and held until it leaves; empty slots are filled with -1. The
QL-AM variant appends the agent model's predicted action distribution to
each teammate block (also -1 when absent). A recurrent embedding followed by
a value head maps the vector to learner action values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from .. import tensor as T
from ..config import RunConfig
from ..envs.session import make_session
from ..tensor import Tensor
from .model import (
    EmbeddingStore,
    agent_model_step,
    embed_rows,
    env_dims,
    init_embedding,
    init_model_net,
    stack_states,
)
from .values import act, agent_model_loss, one_hot, td_target


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


def padded_input_len(cfg: RunConfig) -> int:
    """Length of the padded input vector of the configured baseline."""
    x_len, u_len, action_count = env_dims(cfg)
    block = x_len + (action_count if cfg.algorithm == "QL-AM" else 0)
    return x_len + (cfg.max_team_pad - 1) * block + u_len


def padded_input(obs, slot_map: SlotMap, action_count: int, model_params, store, pending):
    """The padded input row for `obs`, plus the agent model's output.

    Without `model_params` (QL) the row is `pad_observation`'s. With them
    (QL-AM) the agent model's recurrence in `store` advances to `obs` from
    the `pending` (departures, arrivals), and every teammate block also
    carries that teammate's predicted action distribution. Returns (row,
    every agent's distributions or None, teammate rows).
    """
    max_agents = slot_map.n_slots + 1
    if model_params is None:
        return pad_observation(obs, max_agents, slot_map), None, []
    probs, mates = agent_model_step(model_params, obs, store, *pending)
    dists = {obs.order[r]: probs.data[r] for r in mates}
    return pad_observation(obs, max_agents, slot_map, dists, action_count), probs, mates


def init_baseline_net(input_len, action_count, net_cfg, rng) -> nn.ParamStore:
    values = {}
    init_embedding(input_len, net_cfg.embedding_dim, rng, values)
    head = nn.init_mlp(
        [net_cfg.embedding_dim, *net_cfg.utility_hidden, action_count], rng, prefix="head."
    )
    for name, t in head.items():
        values[name] = t
    return nn.ParamStore(values)


def ql_baseline_forward(params, padded, state):
    """(action values (n, |A|), (h', c')) for n padded input rows (or one)."""
    rows = np.atleast_2d(padded)
    expected = params["embed.fc.w0"].data.shape[0]
    if rows.shape[-1] != expected:
        raise ValueError(f"padded input length {rows.shape[-1]} != expected {expected}")
    h, c = embed_rows(params, rows, *state)
    return nn.mlp_forward(params, h, prefix="head."), (h, c)


@dataclass
class _Slot:
    session: object
    obs: object = None
    slot_map: SlotMap = None
    state: tuple = None  # (h, c) of the online value recurrence
    target_state: tuple = None
    am_store: EmbeddingStore = None
    pending_am: tuple = ((), ())


class PaddedStep:
    """The padded-input baselines' (QL / QL-AM) part of a `Trainer`
    iteration."""

    store_order = ("value", "target_value", "agent_model")

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.with_model = cfg.algorithm == "QL-AM"
        self.seeds = np.random.SeedSequence(cfg.seed).spawn(4 + cfg.parallel_envs)
        self.learner_rng = np.random.default_rng(self.seeds[1])
        self.slot_rng = np.random.default_rng(self.seeds[2])
        self.action_count = env_dims(cfg)[2]
        self.slots = []
        for seed in self.seeds[4:]:
            slot = _Slot(make_session(cfg.env, cfg.openness_train, np.random.default_rng(seed)))
            self._start_episode(slot)
            self.slots.append(slot)

    def init_params(self):
        """Initial (value, agent-model) parameters; no agent model for QL."""
        rng = np.random.default_rng(self.seeds[0])
        x_len, u_len, action_count = env_dims(self.cfg)
        value = init_baseline_net(padded_input_len(self.cfg), action_count, self.cfg.net, rng)
        if not self.with_model:
            return value, None
        return value, init_model_net(x_len + u_len, action_count, self.cfg.net, rng)

    def _start_episode(self, slot):
        dim = self.cfg.net.embedding_dim
        slot.obs = slot.session.reset()
        slot.state = slot.target_state = (np.zeros((1, dim)), np.zeros((1, dim)))
        slot.slot_map = SlotMap(self.cfg.max_team_pad - 1)
        slot.slot_map.apply([], slot.obs.order[1:], self.slot_rng)
        slot.am_store = EmbeddingStore(dim)
        slot.pending_am = ([], list(slot.obs.order))

    def transition(self, trainer, value, model):
        """Act in and step every environment. Returns the step results, the
        action value of each learner action taken, their TD targets and the
        summed teammate-action NLL (None for QL or when no teammate acted)."""
        cfg = self.cfg
        epsilon = cfg.epsilon.value(trainer.global_step, cfg.total_steps)
        rows, fits = [], []
        for slot in self.slots:
            row, probs, mates = padded_input(
                slot.obs, slot.slot_map, self.action_count, model, slot.am_store, slot.pending_am
            )
            rows.append(row)
            fits.append((probs, mates))
        q, (h, c) = ql_baseline_forward(
            value, np.stack(rows), stack_states([slot.state for slot in self.slots])
        )

        actions = []
        for values in q.data:
            trainer.record_qbar(values)
            actions.append(act(values, "QL", epsilon, self.learner_rng))
        results = [slot.session.step(a) for slot, a in zip(self.slots, actions)]
        for e, slot in enumerate(self.slots):
            slot.state = (h.data[e : e + 1], c.data[e : e + 1])
        targets = self._targets(trainer, results)

        taken = T.sum_axis(q * Tensor(one_hot(actions, self.action_count)), 1)
        nlls = []
        for slot, res, (probs, mates) in zip(self.slots, results, fits):
            if mates:
                acted = [res.joint_action[slot.obs.order[r]] for r in mates]
                nlls.append(agent_model_loss(probs, mates, acted))
                trainer.record_nll(float(nlls[-1].data), len(mates))
        return results, taken, targets, sum(nlls[1:], nlls[0]) if nlls else None

    def _targets(self, trainer, results):
        """Bootstrapped targets from the target network at s'."""
        cfg = self.cfg
        targets = [float(res.reward) for res in results]
        live = [e for e, res in enumerate(results) if not res.done]
        if not live:
            return targets
        rows = []
        for e in live:
            slot, res = self.slots[e], results[e]
            # Arrivals need their slots before s' can be padded.
            slot.slot_map.apply(res.departures, res.arrivals, self.slot_rng)
            # s' distributions come from a copy: the next iteration's online
            # pass advances the agent model's state itself.
            store = EmbeddingStore(cfg.net.embedding_dim)
            store.model = dict(slot.am_store.model)
            row, _, _ = padded_input(
                res.obs,
                slot.slot_map,
                self.action_count,
                trainer.model_params,
                store,
                (res.departures, res.arrivals),
            )
            rows.append(row)
        q, (h, c) = ql_baseline_forward(
            trainer.target_params,
            np.stack(rows),
            stack_states([self.slots[e].target_state for e in live]),
        )
        for i, e in enumerate(live):
            self.slots[e].target_state = (h.data[i : i + 1], c.data[i : i + 1])
            targets[e] = td_target(results[e].reward, q.data[i], "QL", cfg.gamma)
        return targets

    def next_obs(self, results):
        """Move every environment on to its next observation."""
        for slot, res in zip(self.slots, results):
            if res.done:
                self._start_episode(slot)
            else:
                slot.obs = res.obs
                slot.pending_am = (res.departures, res.arrivals)


class BaselinePolicy:
    """Greedy acting for a trained padded-input baseline."""

    def __init__(self, cfg: RunConfig, value_params, model_params, rng):
        self.cfg = cfg
        self.value_params = value_params
        self.model_params = model_params
        self.rng = rng
        self.action_count = env_dims(cfg)[2]

    def reset(self, obs):
        dim = self.cfg.net.embedding_dim
        self.state = (np.zeros((1, dim)), np.zeros((1, dim)))
        self.slot_map = SlotMap(self.cfg.max_team_pad - 1)
        self.slot_map.apply([], [j for j in obs.order if j != obs.learner_id], self.rng)
        self.am_store = EmbeddingStore(dim)
        self.pending_am = ([], list(obs.order))

    def act(self, obs) -> int:
        row, _, _ = padded_input(
            obs, self.slot_map, self.action_count, self.model_params, self.am_store, self.pending_am
        )
        q, (h, c) = ql_baseline_forward(self.value_params, row, self.state)
        self.state = (h.data, c.data)
        q = q.data[0]
        best = np.flatnonzero(q == q.max())
        return int(best[self.rng.integers(0, len(best))])

    def observe(self, result):
        if result.done:
            return
        self.slot_map.apply(result.departures, result.arrivals, self.rng)
        self.pending_am = (result.departures, result.arrivals)
