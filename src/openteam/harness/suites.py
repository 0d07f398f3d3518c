"""Self-check suites shared by the CLI and the acceptance tests."""

from __future__ import annotations

import itertools

import numpy as np

from .. import nn
from .. import tensor as T
from ..config import NetConfig
from ..learner.model import embed_rows, model_net_layout, value_net_layout
from ..learner.values import (
    AgentModelOutput,
    UtilityTables,
    agent_model_loss,
    joint_q,
    joint_values,
    marginal_q,
    marginal_values,
    model_rows,
    utility_rows,
    value_loss,
)
from ..tensor import Tensor, grad_check

SMALL_NET = NetConfig(
    embedding_dim=6,
    utility_hidden=(8, 7),
    edge_hidden=(5, 6),
    node_hidden=(5, 6),
    decoder_hidden=(6,),
    rank=3,
)


def random_instance(rng, max_teammates=4, max_actions=6):
    """Random utility tables plus teammate action distributions."""
    n_team = int(rng.integers(1, max_teammates + 1))
    actions = int(rng.integers(2, max_actions + 1))
    rank = int(rng.integers(1, 6))
    ids = [0] + [j + 1 for j in range(n_team)]
    tables = UtilityTables(
        0,
        ids,
        actions,
        rank,
        Tensor(rng.normal(size=(len(ids), actions))),
        Tensor(rng.normal(size=(len(ids), rank * actions))),
    )
    probs = rng.dirichlet(np.ones(actions), size=n_team)
    return tables, AgentModelOutput(ids[1:], Tensor(probs))


def enumerate_marginal(tables: UtilityTables, model_out: AgentModelOutput, rng=None):
    """Vectorized enumeration of sum_a joint(a) * prod_j q_j(a_j).

    Materializes every singular vector and pairwise table, walks all teammate
    joint actions, and sums the coordination-graph terms per combination.
    When an rng is given, a few combinations are additionally cross-checked
    against joint_q itself.
    """
    ids = tables.agent_ids
    learner = tables.learner_id
    teammates = [j for j in ids if j != learner]
    m = len(teammates)
    actions = tables.action_count
    sing = {j: tables.singular(j).data for j in ids}
    pair = {
        (j, k): tables.pairwise(j, k).data for j in ids for k in ids if j != k
    }
    probs = {j: model_out.vector(j).data for j in teammates}

    combos = np.array(list(itertools.product(range(actions), repeat=m)), dtype=np.intp)
    n_combo = combos.shape[0]
    weights = np.ones(n_combo)
    base = np.zeros(n_combo)
    for col, j in enumerate(teammates):
        weights *= probs[j][combos[:, col]]
        base += sing[j][combos[:, col]]
    for cj, j in enumerate(teammates):
        for ck, k in enumerate(teammates):
            if j != k:
                base += pair[(j, k)][combos[:, cj], combos[:, ck]]

    out = np.zeros(actions)
    for own_action in range(actions):
        cross = np.zeros(n_combo)
        for col, j in enumerate(teammates):
            cross += pair[(learner, j)][own_action, combos[:, col]]
            cross += pair[(j, learner)][combos[:, col], own_action]
        out[own_action] = float(((sing[learner][own_action] + base + cross) * weights).sum())

    if rng is not None and n_combo:
        for _ in range(3):
            row = int(rng.integers(0, n_combo))
            own_action = int(rng.integers(0, actions))
            joint = {learner: own_action}
            joint.update({j: int(combos[row, col]) for col, j in enumerate(teammates)})
            direct = float(joint_q(tables, joint).data)
            summed = float(sing[learner][own_action] + base[row]) + sum(
                pair[(learner, j)][own_action, combos[row, col]]
                + pair[(j, learner)][combos[row, col], own_action]
                for col, j in enumerate(teammates)
            )
            if abs(direct - summed) > 1e-9 * max(1.0, abs(direct)):
                raise AssertionError(
                    f"enumeration disagrees with joint_q: {direct} vs {summed}"
                )
    return out


def marginalization_suite(instances=1000, seed=0):
    """Worst relative error of `marginal_values` (the marginalization that
    training and acting use) and of its tensor reference `marginal_q`
    against brute-force enumeration."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        tables, model_out = random_instance(rng)
        brute = enumerate_marginal(tables, model_out, rng=rng)
        reference = marginal_q(tables, model_out, 0).data
        fast = marginal_values(
            tables.singular_rows.data, tables.factor_rows.data, model_out.probs.data, 0, tables.rank
        )
        for got in (fast, reference):
            denom = np.maximum(np.maximum(np.abs(brute), np.abs(got)), 1e-9)
            worst = max(worst, float(np.max(np.abs(got - brute) / denom)))
    return worst


def _block_checks(rng, instances):
    """Gradient checks for each parameterized block; yields (label, error)."""
    for i in range(instances):
        # MLP: leaky-relu hidden layers, linear output
        params = nn.draw(nn.mlp_layout([4, 6, 5, 1]), rng)
        x = Tensor(rng.normal(size=(2, 4)))
        names = params.names()
        target = names[i % len(names)]

        def f_mlp(p, *, params=params, target=target, x=x):
            patched = {**params.arrays, target: p}
            out = nn.mlp_forward(patched, x)
            return T.sum_all(out)

        yield f"mlp/{target}", grad_check(f_mlp, params[target])

        # LSTM through 3 unrolled steps
        lstm = nn.draw(nn.lstm_layout(3, 4), rng)
        xs = [Tensor(rng.normal(size=(2, 3))) for _ in range(3)]
        lstm_names = lstm.names()
        target = lstm_names[i % len(lstm_names)]

        def f_lstm(p, *, lstm=lstm, target=target, xs=xs):
            patched = {**lstm.arrays, target: p}
            h = Tensor(np.zeros((2, 4)))
            c = Tensor(np.zeros((2, 4)))
            for x in xs:
                h, c = nn.lstm_step(patched, x, (h, c))
            return T.sum_all(h)

        yield f"lstm/{target}", grad_check(f_lstm, lstm[target])

        # Graph block over 3 nodes
        graph = nn.draw(nn.graph_block_layout(3, [4, 5], [4, 5]), rng)
        nodes = Tensor(rng.normal(size=(3, 3)))
        graph_names = graph.names()
        target = graph_names[i % len(graph_names)]

        def f_graph(p, *, graph=graph, target=target, nodes=nodes):
            patched = {**graph.arrays, target: p}
            return T.sum_all(nn.graph_block_grouped(patched, nodes, [(0, 3)]))

        yield f"graph/{target}", grad_check(f_graph, graph[target])


def _loss_checks(rng, instances):
    """Gradient checks through the composed value and model losses, in the
    batched form training minimizes: two teams stacked into one batch."""
    in_dim, actions = 5, 4
    for i in range(instances):
        sizes = [int(rng.integers(2, 4)), int(rng.integers(1, 3))]
        n_rows = sum(sizes)
        segments = [(0, sizes[0]), (sizes[0], n_rows)]
        learner_rows = [lo for lo, hi in segments for _ in range(lo, hi)]
        mates = [r for r in range(n_rows) if r != learner_rows[r]]
        value_params = nn.draw(value_net_layout(in_dim, actions, SMALL_NET), rng)
        model_params = nn.draw(model_net_layout(in_dim, actions, SMALL_NET), rng)
        batch = rng.normal(size=(n_rows, in_dim))
        h0 = rng.normal(size=(n_rows, SMALL_NET.embedding_dim)) * 0.3
        c0 = rng.normal(size=(n_rows, SMALL_NET.embedding_dim)) * 0.3
        taken = [int(a) for a in rng.integers(0, actions, size=n_rows)]
        targets = rng.normal(size=len(segments))

        vnames = value_params.names()
        target = vnames[i % len(vnames)]

        def f_value(p, *, params=value_params, target=target):
            patched = {**params.arrays, target: p}
            h, _ = embed_rows(patched, batch, h0, c0)
            sing, fac = utility_rows(patched, h, learner_rows)
            joint = joint_values(sing, fac, taken, segments, SMALL_NET.rank)
            return value_loss(joint, targets)

        yield f"value-loss/{target}", grad_check(f_value, value_params[target])

        mnames = model_params.names()
        target = mnames[i % len(mnames)]

        def f_model(p, *, params=model_params, target=target):
            patched = {**params.arrays, target: p}
            h, _ = embed_rows(patched, batch, h0, c0)
            probs = model_rows(patched, h, [(lo, hi - lo) for lo, hi in segments])
            return agent_model_loss(probs, mates, [taken[r] for r in mates])

        yield f"model-loss/{target}", grad_check(f_model, model_params[target])


def gradient_suite(instances=20, seed=0):
    """Max gradient-check error over every block and composed loss."""
    rng = np.random.default_rng(seed)
    worst = ("", 0.0)
    for label, err in _block_checks(rng, instances):
        if err > worst[1]:
            worst = (label, err)
    for label, err in _loss_checks(rng, instances):
        if err > worst[1]:
            worst = (label, err)
    return worst
