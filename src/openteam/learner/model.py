"""Type embeddings under openness.

Every agent's behavior is summarized by a recurrent embedding: two fully
connected layers feed an LSTM cell whose hidden state is the agent's type
vector. Two independent recurrences are kept (one for the value network, one
for the agent model) so their gradients never interfere, plus a target-side
copy of the value recurrence.

Every algorithm holds its recurrent states as id lists and row arrays in one
`EmbeddingStore` per environment. Each roster change is applied to the maps
that follow the roster when it is observed (`preprocess`): one gather drops
the rows of departed agents and starts arriving agents from exact zeros, so
such a map always lists its environment's current roster. A new episode
starts from a fresh store.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from .. import tensor as T
from ..envs.session import make_session
from .values import model_rows


def env_dims(cfg) -> tuple[int, int, int]:
    """(per-agent x width, shared u width, action count) of the configured
    environment, read off the first observation of a probe session (with a
    stream of its own, apart from every run's)."""
    probe = make_session(cfg.env, cfg.openness_train, np.random.default_rng(0))
    obs = probe.reset()
    return len(obs.x[obs.learner_id]), len(obs.u), probe.action_count


class EmbeddingStore:
    """Map `which` of the three recurrences is a list of agent ids
    `ids[which]` and two (n, dim) arrays `h[which]`, `c[which]` whose rows
    follow the ids. The maps named in `roster_maps` list every agent of the
    roster (`preprocess`); any other map holds the learner's row alone (the
    baselines' value recurrence) or stays empty."""

    def __init__(self, dim: int, roster_maps=("value", "model", "target")):
        self.dim = dim
        self.roster_maps = roster_maps
        self.ids = {"value": [], "model": [], "target": []}
        self.h = dict.fromkeys(self.ids, np.zeros((0, dim)))
        self.c = dict.fromkeys(self.ids, np.zeros((0, dim)))

    def write(self, which: str, h_rows, c_rows, ids=None):
        """Replace the rows of map `which` (and its ids, when given)."""
        self.h[which], self.c[which] = h_rows, c_rows
        if ids is not None:
            self.ids[which] = list(ids)


def roster_gather(old_ids, new_ids) -> list:
    """Where each of `new_ids` reads its row from the rows of `old_ids`
    followed by one zero row: a kept id reads its old row, any other id (an
    arrival) the zero row at index `len(old_ids)`."""
    index = {key: r for r, key in enumerate(old_ids)}
    return [index.get(key, len(old_ids)) for key in new_ids]


def preprocess(obs, store: EmbeddingStore, departures, arrivals):
    """Remove departed rows and zero-initialize arrivals, so the store's
    roster maps list `obs`'s roster in its order (maps already listing it
    are left as they are). A fresh store takes a new episode's roster."""
    left = set(departures)
    for which in store.roster_maps:
        if not (left or arrivals) and store.ids[which] == obs.order:
            continue
        # None masks departed rows: a departed agent that arrives restarts.
        old = [None if j in left else j for j in store.ids[which]]
        known = [j for j in old if j is not None] + list(arrivals)
        if len(set(known)) < len(known):
            raise ValueError(f"an agent arriving in {list(arrivals)} already has stored state")
        if set(known) != set(obs.order):
            raise ValueError(f"store keys {sorted(known)} do not match roster {sorted(obs.order)}")
        rows, zero = roster_gather(old, obs.order), np.zeros((1, store.dim))
        h, c = (np.concatenate([m[which], zero])[rows] for m in (store.h, store.c))
        store.write(which, h, c, obs.order)


def stacked(stores, which: str):
    """(H, C) rows of map `which` of every store, in store then roster order;
    (0, dim) when all are empty."""
    return (
        np.concatenate([store.h[which] for store in stores]),
        np.concatenate([store.c[which] for store in stores]),
    )


def embed_rows(params, batch, h, c, prefix="embed."):
    """Two FC layers then one LSTM step over a row batch of agents."""
    x = T.leaky_relu(T.matmul(batch, params[f"{prefix}fc.w0"]) + params[f"{prefix}fc.b0"])
    x = T.leaky_relu(T.matmul(x, params[f"{prefix}fc.w1"]) + params[f"{prefix}fc.b1"])
    return nn.lstm_step(params, x, (h, c), prefix=f"{prefix}lstm.")


class Teams:
    """The input rows of several teams stacked into one batch (one
    concat(x_j, u) row per agent, in roster order), with their bookkeeping."""

    def __init__(self, obs_list):
        self.obs = list(obs_list)
        batches = [obs.batch_rows() for obs in self.obs]
        self.rows = np.concatenate(batches, axis=0)
        self.slices, self.groups, self.learner_rows = [], [], []
        start = 0
        for obs, batch in zip(self.obs, batches):
            n = batch.shape[0]
            self.slices.append((start, start + n))
            self.groups.append((start, n))
            self.learner_rows.extend([start + obs.order.index(obs.learner_id)] * n)
            start += n
        self.mates = [r for r in range(start) if r != self.learner_rows[r]]


def agent_model_forward(params, teams: Teams, state):
    """One agent-model step over every team of `teams` at once.

    Advances the recurrence from the (h, c) rows `state`, aligned with
    `teams.rows`. Returns (h', c', every agent's predicted action
    distribution); the distributions are None when no team has a teammate.
    """
    hm, cm = embed_rows(params, teams.rows, *state)
    probs = model_rows(params, hm, teams.groups) if teams.mates else None
    return hm, cm, probs


def init_embedding(in_dim, width, rng, values, prefix="embed."):
    values.update(nn.init_mlp([in_dim, width, width], rng, prefix=f"{prefix}fc.").arrays)
    values.update(nn.init_lstm(width, width, rng, prefix=f"{prefix}lstm.").arrays)


def init_value_net(in_dim, action_count, net_cfg, rng) -> nn.ParamStore:
    """Type embedding plus singular/pairwise utility heads."""
    values = {}
    init_embedding(in_dim, net_cfg.embedding_dim, rng, values)
    pair_in = 2 * net_cfg.embedding_dim
    for prefix, width in (("sing.", action_count), ("fac.", net_cfg.rank * action_count)):
        values.update(
            nn.init_mlp([pair_in, *net_cfg.utility_hidden, width], rng, prefix=prefix).arrays
        )
    return nn.ParamStore(values)


def init_model_net(in_dim, action_count, net_cfg, rng) -> nn.ParamStore:
    """Type embedding plus message-passing block and action decoder."""
    values = {}
    init_embedding(in_dim, net_cfg.embedding_dim, rng, values)
    graph = nn.init_graph_block(
        net_cfg.embedding_dim, net_cfg.edge_hidden, net_cfg.node_hidden, rng
    )
    values.update({"graph." + name: a for name, a in graph.arrays.items()})
    dec = nn.init_mlp(
        [net_cfg.node_hidden[-1], *net_cfg.decoder_hidden, action_count], rng, prefix="dec."
    )
    values.update(dec.arrays)
    return nn.ParamStore(values)
