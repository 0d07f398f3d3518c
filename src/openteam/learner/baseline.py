"""Fixed-length-input Q-learning baselines.

The observation is flattened into one vector with a block per teammate slot:
slots are assigned uniformly at random (without collision) when an agent
arrives and held until it leaves; empty slots are filled with -1. The
QL-AM variant appends the agent model's predicted action distribution to
each teammate block (also -1 when absent). A recurrent embedding followed by
a value head maps the vector to learner action values.

Training (all environments stacked) and acting (one environment) share one
padded forward, `padded_inputs` then `ql_baseline_forward`. A roster change
is applied when it is observed (`_Slot.advance`): arrivals get their slots
and, for QL-AM, the agent model's stored states are realigned to the new
roster. QL-AM runs its agent model once over the stacked rosters of every
environment on each pathway, from the stored states: online, where the new
states are written back, and for the target network's s' inputs, where they
are discarded.
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
    Teams,
    agent_model_forward,
    embed_rows,
    env_dims,
    init_embedding,
    preprocess,
    stacked,
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


def padded_rows(obs_list, slot_maps, width, teams=None, probs=None) -> np.ndarray:
    """One padded input row per observation, stacked.

    With the agent model's `teams` batch and its distributions `probs`
    (QL-AM), every teammate block also carries that teammate's predicted
    action distribution of length `width`.
    """
    rows = []
    for e, (obs, slot_map) in enumerate(zip(obs_list, slot_maps)):
        dists = None
        if teams is not None:
            lo, hi = teams.slices[e]
            learner = teams.learner_rows[lo]
            dists = {obs.order[r - lo]: probs.data[r] for r in range(lo, hi) if r != learner}
        rows.append(pad_observation(obs, slot_map.n_slots + 1, slot_map, dists, width))
    return np.stack(rows)


def padded_inputs(model_params, slots, width):
    """Padded input rows of every slot at its current observation.

    Without `model_params` (QL) these are `padded_rows` alone. With them
    (QL-AM) every slot's agent-model recurrence first advances one step from
    its stored states, in one forward over all slots. Returns (rows, agent
    model pass): the pass is (Teams, h', c', distributions), None for QL;
    `write_model_states` keeps the new states.
    """
    obs_list = [slot.obs for slot in slots]
    slot_maps = [slot.slot_map for slot in slots]
    if model_params is None:
        return padded_rows(obs_list, slot_maps, width), None
    teams = Teams(obs_list)
    state = stacked([slot.am_store for slot in slots], "model")
    hm, cm, probs = agent_model_forward(model_params, teams, state)
    rows = padded_rows(obs_list, slot_maps, width, teams, probs)
    return rows, (teams, hm, cm, probs)


def write_model_states(slots, am):
    """Store the new agent-model states of a `padded_inputs` pass (if any)."""
    if am is not None:
        teams, hm, cm, _ = am
        for (lo, hi), slot in zip(teams.slices, slots):
            slot.am_store.write("model", hm.data[lo:hi], cm.data[lo:hi])


def stack_states(states):
    """Concatenate (h, c) pairs row-wise into one (H, C) pair."""
    return np.concatenate([h for h, _ in states]), np.concatenate([c for _, c in states])


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
    session: object  # None when acting
    obs: object = None
    slot_map: SlotMap = None
    state: tuple = None  # (h, c) of the online value recurrence
    target_state: tuple = None
    am_store: EmbeddingStore = None  # QL-AM only; aligned with `obs.order`

    def start(self, obs, cfg: RunConfig, rng):
        """Fresh episode state at the episode's first observation `obs`."""
        dim = cfg.net.embedding_dim
        self.obs = obs
        self.state = self.target_state = (np.zeros((1, dim)), np.zeros((1, dim)))
        self.slot_map = SlotMap(cfg.max_team_pad - 1)
        self.slot_map.apply([], [j for j in obs.order if j != obs.learner_id], rng)
        if cfg.algorithm == "QL-AM":
            self.am_store = EmbeddingStore(dim)
            preprocess(obs, self.am_store, [], obs.order, maps=("model",))

    def advance(self, res, rng):
        """Move on to the next observation of step result `res`, applying its
        roster change: arrivals get their slots, and the agent model's states
        (QL-AM) drop departed agents and start arrivals from zeros."""
        self.obs = res.obs
        self.slot_map.apply(res.departures, res.arrivals, rng)
        if self.am_store is not None:
            preprocess(res.obs, self.am_store, res.departures, res.arrivals, maps=("model",))


class PaddedStep:
    """The padded-input baselines' (QL / QL-AM) part of a `Trainer`
    iteration: one stacked forward over all environments per network and
    pathway (see the module docstring)."""

    store_order = ("value", "target_value", "agent_model")

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.seeds = np.random.SeedSequence(cfg.seed).spawn(4 + cfg.parallel_envs)
        self.learner_rng = np.random.default_rng(self.seeds[1])
        self.slot_rng = np.random.default_rng(self.seeds[2])
        self.action_count = env_dims(cfg)[2]
        self.slots = []
        for seed in self.seeds[4:]:
            slot = _Slot(make_session(cfg.env, cfg.openness_train, np.random.default_rng(seed)))
            slot.start(slot.session.reset(), cfg, self.slot_rng)
            self.slots.append(slot)

    def transition(self, trainer, value, model):
        """Act in and step every environment. Returns the step results, the
        action value of each learner action taken, their TD targets and the
        summed teammate-action NLL (None for QL or when no teammate acted)."""
        cfg = self.cfg
        epsilon = cfg.epsilon.value(trainer.global_step, cfg.total_steps)
        rows, am = padded_inputs(model, self.slots, self.action_count)
        q, (h, c) = ql_baseline_forward(value, rows, stack_states([s.state for s in self.slots]))

        actions = []
        for values in q.data:
            trainer.record_qbar(values)
            actions.append(act(values, "QL", epsilon, self.learner_rng))
        results = [slot.session.step(a) for slot, a in zip(self.slots, actions)]
        for e, slot in enumerate(self.slots):
            slot.state = (h.data[e : e + 1], c.data[e : e + 1])
        write_model_states(self.slots, am)
        targets = self._targets(trainer, results)

        taken = T.sum_axis(q * Tensor(one_hot(actions, self.action_count)), 1)
        nll = None
        if am is not None and am[0].mates:
            teams, _, _, probs = am
            acted = [res.joint_action[j] for obs, res in zip(teams.obs, results) for j in obs.order]
            nll = agent_model_loss(probs, teams.mates, [acted[r] for r in teams.mates])
            trainer.record_nll(float(nll.data), len(teams.mates))
        return results, taken, targets, nll

    def _targets(self, trainer, results):
        """Bootstrapped targets from the target network at s'."""
        cfg = self.cfg
        targets = [float(res.reward) for res in results]
        live = [e for e, res in enumerate(results) if not res.done]
        if not live:
            return targets
        slots = [self.slots[e] for e in live]
        for slot, e in zip(slots, live):
            slot.advance(results[e], self.slot_rng)
        # The online agent model gives the s' distributions; its new states
        # are dropped, as the next online pass advances the stores itself.
        rows, _ = padded_inputs(trainer.model_params, slots, self.action_count)
        q, (h, c) = ql_baseline_forward(
            trainer.target_params, rows, stack_states([slot.target_state for slot in slots])
        )
        for i, (slot, e) in enumerate(zip(slots, live)):
            slot.target_state = (h.data[i : i + 1], c.data[i : i + 1])
            targets[e] = td_target(results[e].reward, q.data[i], "QL", cfg.gamma)
        return targets

    def next_obs(self, results):
        """Start a new episode in every environment whose episode ended."""
        for slot, res in zip(self.slots, results):
            if res.done:
                slot.start(slot.session.reset(), self.cfg, self.slot_rng)


class BaselinePolicy:
    """Greedy acting for a trained padded-input baseline, through the same
    padded forward as training on a single environment."""

    def __init__(self, cfg: RunConfig, value_params, model_params, rng):
        self.cfg = cfg
        self.value_params = value_params
        self.model_params = model_params
        self.rng = rng
        self.action_count = env_dims(cfg)[2]

    def reset(self, obs):
        self.slot = _Slot(None)
        self.slot.start(obs, self.cfg, self.rng)

    def act(self, obs) -> int:
        self.slot.obs = obs
        rows, am = padded_inputs(self.model_params, [self.slot], self.action_count)
        write_model_states([self.slot], am)
        q, (h, c) = ql_baseline_forward(self.value_params, rows, self.slot.state)
        self.slot.state = (h.data, c.data)
        q = q.data[0]
        best = np.flatnonzero(q == q.max())
        return int(best[self.rng.integers(0, len(best))])

    def observe(self, result):
        self.slot.advance(result, self.rng)
