"""An open-team episode driver: environment + roster + scripted teammates.

The session owns one environment instance and its rng, and drives its world
module (`envs.WORLDS`) through the interface every world offers. Each step it
collects teammate actions from their scripted policies, advances the grid,
then runs the openness process: departed agents leave the grid, arriving
agents are placed on random empty cells with freshly sampled traits.
`rollout` is the one loop that plays a session's episodes with a learner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..openness import LEARNER_ID, OpennessConfig, Roster, reset_roster, roster_step
from ..teammates import TeammateMemory, sample_memory, teammate_act
from . import WORLDS
from .base import EnvConfig, Observation


@dataclass
class StepResult:
    obs: Observation
    reward: float
    done: bool
    departures: list[int]
    arrivals: list[int]
    joint_action: dict[int, int]


class OpenEnv:
    """Single-stream open-team environment session."""

    def __init__(self, env_cfg: EnvConfig, openness_cfg: OpennessConfig, rng):
        self.env_cfg = env_cfg
        self.openness = openness_cfg.validate()
        self.rng = rng
        self.roster: Roster | None = None
        self.state = None
        self.memories: dict[int, TeammateMemory] = {}

    @property
    def world(self):
        """The env's world module (looked up, so that a session pickles)."""
        return WORLDS[self.env_cfg.name]

    @property
    def action_count(self) -> int:
        return len(self.world.ACTIONS)

    def reset(self) -> Observation:
        self.roster = reset_roster(self.rng, self.openness)
        self.memories = {
            j: sample_memory(self.roster.agents[j].type_id, self.rng)
            for j in self.roster.teammate_ids
        }
        self.state = self.world.reset(self.rng, self.roster.ids, self.env_cfg)
        return self.observe()

    def observe(self) -> Observation:
        return self.world.observe(self.state, self.roster)

    def teammate_actions(self) -> dict[int, int]:
        return {
            j: teammate_act(
                self.roster.agents[j].type_id, self.state, j, self.memories[j], self.rng
            )
            for j in self.roster.teammate_ids
        }

    def step(self, learner_action: int) -> StepResult:
        joint = {LEARNER_ID: int(learner_action)}
        joint.update(self.teammate_actions())
        self.state, reward, done = self.world.step(self.state, joint, self.rng)

        departures, arrivals = [], []
        if not done:
            departures, arrivals, _ = roster_step(
                self.roster, self.rng, self.openness, self.state.step
            )
            for agent_id in departures:
                self.memories.pop(agent_id, None)
                self.world.remove_agent(self.state, agent_id)
            for agent_id in arrivals:
                self.memories[agent_id] = sample_memory(
                    self.roster.agents[agent_id].type_id, self.rng
                )
                self.world.add_agent(self.state, agent_id, self.rng)
        return StepResult(self.observe(), reward, done, departures, arrivals, joint)


class RandomPolicy:
    """A uniform-random learner, with `GplPolicy`'s `reset`/`act`/`observe`."""

    def __init__(self, action_count: int, rng):
        self.action_count = action_count
        self.rng = rng

    def reset(self, obs):
        pass

    def act(self, obs) -> int:
        return int(self.rng.integers(0, self.action_count))

    def observe(self, result):
        pass


def rollout(session: OpenEnv, policy):
    """(observation, `StepResult`) of each step of `policy` playing `session`,
    episode after episode, without end: each step calls `policy.act`, then
    `session.step`, then `policy.observe`."""
    while True:
        obs = session.reset()
        policy.reset(obs)
        done = False
        while not done:
            res = session.step(policy.act(obs))
            policy.observe(res)
            yield obs, res
            obs, done = res.obs, res.done


def make_session(env_cfg: EnvConfig, openness_cfg: OpennessConfig, seed_or_rng) -> OpenEnv:
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    return OpenEnv(env_cfg, openness_cfg, rng)
