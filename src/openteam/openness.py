"""Agent bookkeeping for open teams.

A roster tracks the permanently present learner plus teammates that arrive
and leave on sampled schedules: each teammate stays for an active duration
drawn uniformly from a configured range, then a fresh waiting duration is
drawn before a new teammate (fresh identity, fresh type) may take the slot.
Re-entry blocked by a full team waits FIFO until space opens.
"""

from __future__ import annotations

from dataclasses import dataclass, field

LEARNER_ID = 0
LEARNER_TYPE = "learner"


@dataclass(frozen=True)
class OpennessConfig:
    active_range: tuple[int, int]
    waiting_range: tuple[int, int]
    team_limit: int
    type_pool: tuple[str, ...]

    def validate(self):
        for lo, hi in (self.active_range, self.waiting_range):
            if lo > hi or lo < 1:
                raise ValueError(f"invalid duration range [{lo}, {hi}]")
        if self.team_limit < 1:
            raise ValueError("team limit must be >= 1")
        if self.team_limit > 1 and not self.type_pool:
            raise ValueError("type pool is empty but team limit allows teammates")
        return self


@dataclass
class AgentEntry:
    agent_id: int
    type_id: str
    arrival_step: int
    remaining: int
    active_duration: int


@dataclass
class WaitingEntry:
    release_step: int
    waiting_duration: int


@dataclass
class Roster:
    """Active agents (learner first, then teammates in arrival order)."""

    agents: dict[int, AgentEntry] = field(default_factory=dict)
    waiting: list[WaitingEntry] = field(default_factory=list)
    next_agent_id: int = 1

    @property
    def ids(self):
        return list(self.agents)

    @property
    def teammate_ids(self):
        return [i for i in self.agents if i != LEARNER_ID]

    def __len__(self):
        return len(self.agents)


def _sample_duration(rng, lo, hi) -> int:
    return int(rng.integers(lo, hi + 1))


def _spawn_teammate(roster: Roster, rng, cfg: OpennessConfig, step: int) -> int:
    agent_id = roster.next_agent_id
    roster.next_agent_id += 1
    duration = _sample_duration(rng, *cfg.active_range)
    type_id = cfg.type_pool[int(rng.integers(0, len(cfg.type_pool)))]
    roster.agents[agent_id] = AgentEntry(agent_id, type_id, step, duration, duration)
    return agent_id


def reset_roster(rng, cfg: OpennessConfig) -> Roster:
    """Learner plus Uniform{0 .. limit-1} initial teammates."""
    cfg.validate()
    roster = Roster()
    roster.agents[LEARNER_ID] = AgentEntry(LEARNER_ID, LEARNER_TYPE, 0, -1, -1)
    for _ in range(int(rng.integers(0, cfg.team_limit))):
        _spawn_teammate(roster, rng, cfg, 0)
    return roster


def roster_step(roster: Roster, rng, cfg: OpennessConfig, step: int):
    """Advance the openness process by one environment step.

    Teammates whose active duration has elapsed depart and enqueue a waiting
    entry; waiting entries whose release step has arrived re-enter (as new
    individuals) while the team limit permits. Returns
    (departure ids, arrival ids, roster).
    """
    departures = []
    for agent_id in list(roster.agents):
        if agent_id == LEARNER_ID:
            continue
        entry = roster.agents[agent_id]
        entry.remaining -= 1
        if entry.remaining <= 0:
            departures.append(agent_id)
            del roster.agents[agent_id]
            wait = _sample_duration(rng, *cfg.waiting_range)
            roster.waiting.append(WaitingEntry(step + wait, wait))

    arrivals = []
    kept = []
    for entry in roster.waiting:
        if entry.release_step <= step and len(roster.agents) < cfg.team_limit:
            arrivals.append(_spawn_teammate(roster, rng, cfg, step))
        else:
            kept.append(entry)
    roster.waiting = kept
    return departures, arrivals, roster
