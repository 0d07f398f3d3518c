"""Open-team grid worlds: wolfpack and level-based foraging.

`WORLDS` maps each env name to its world module. Every world module offers
`session.OpenEnv` the same interface: `ACTIONS`, `reset(rng, ids, cfg)`,
`step(state, joint action, rng)`, `observe(state, roster)`, `add_agent` and
`remove_agent`. It also states the facts a run config reads: its teammate
pool (`TEAMMATE_TYPES`), its default openness durations (`ACTIVE_RANGE`,
`WAITING_RANGE`) and the cells it takes beside the team's (`cells_needed`).
"""

from . import foraging, wolfpack

WORLDS = {"wolfpack": wolfpack, "lbf": foraging}
