"""Joint action values over a fully connected coordination graph.

The joint value of a team is a sum of per-agent singular utilities plus
pairwise utilities over all ordered pairs of distinct agents

    Q(s, a) = sum_j S_j(a_j) + sum_{j != k} P_{jk}(a_j, a_k),

where each pairwise table is a low-rank product P_{jk} = F_j^T F_k of
per-agent K x |A| factors (so P_{kj} is always P_{jk} transposed, and the
ordered-pair sum is twice the unordered one). Marginalizing the teammates'
actions under the agent model's per-teammate distributions q_j gives the
learner's action values in closed form:

    Qbar(a_i) = S_i(a_i) + sum_j <S_j, q_j>
              + 2 * sum_j (F_i^T F_j q_j)(a_i)
              + sum_{j != k} (F_j q_j) . (F_k q_k)      (teammate pairs)

which is exactly the expectation of Q(s, a) over a_{-i}.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .. import nn
from .. import tensor as T
from ..tensor import Tensor

log = logging.getLogger(__name__)

PROB_FLOOR = 1e-12


@dataclass
class UtilityTables:
    """Per-agent singular utility vectors and low-rank pairwise factors
    (Tensors, or plain arrays from a pass off the tape)."""

    learner_id: int
    agent_ids: list[int]
    action_count: int
    rank: int
    singular_rows: Tensor  # (n, |A|)
    factor_rows: Tensor  # (n, K * |A|)

    def row(self, agent_id) -> int:
        return self.agent_ids.index(agent_id)

    def singular(self, agent_id) -> Tensor:
        row = T.select_rows(self.singular_rows, [self.row(agent_id)])
        return T.reshape(row, (self.action_count,))

    def factor(self, agent_id) -> Tensor:
        row = T.select_rows(self.factor_rows, [self.row(agent_id)])
        return T.reshape(row, (self.rank, self.action_count))

    def pairwise(self, j, k) -> Tensor:
        """P_{jk} with P_{jk}[a_j, a_k] = F_j[:, a_j] . F_k[:, a_k]."""
        return T.matmul(T.transpose(self.factor(j)), self.factor(k))


@dataclass
class AgentModelOutput:
    """Per-teammate next-action distributions."""

    teammate_ids: list[int]
    probs: Tensor  # (m, |A|), rows sum to 1

    def vector(self, agent_id) -> Tensor:
        row = T.select_rows(self.probs, [self.teammate_ids.index(agent_id)])
        return T.reshape(row, (self.probs.shape[-1],))


def utility_rows(params, embeddings: Tensor, learner_rows):
    """Singular and factor rows for a batch of agents.

    `learner_rows[r]` is the row index of agent r's learner, so each agent is
    paired with its own team's learner embedding.
    """
    learner = T.select_rows(embeddings, list(learner_rows))
    pair = T.concat_last([embeddings, learner])
    singular = nn.mlp_forward(params, pair, prefix="sing.")
    factors = nn.mlp_forward(params, pair, prefix="fac.")
    return singular, factors


def model_rows(params, embeddings: Tensor, groups) -> Tensor:
    """Action logits-softmax rows for every agent of every group."""
    nbar = nn.graph_block_grouped(params, embeddings, groups, prefix="graph.")
    return T.softmax(nn.mlp_forward(params, nbar, prefix="dec."))


def one_hot(indices, width):
    out = np.zeros((len(indices), width))
    out[np.arange(len(indices)), indices] = 1.0
    return out


def joint_values(singular: Tensor, factors: Tensor, actions, segments, rank: int) -> Tensor:
    """Coordination-graph value of one joint action per team.

    `singular` (n, |A|) and `factors` (n, K*|A|) stack the utility rows of
    several teams; `segments` holds each team's (start, stop) rows and
    `actions[r]` is row r's action. Returns one value per team:
    sum_j S_j(a_j) + sum_{j != k} g_j . g_k with g_j = F_j[:, a_j].
    """
    n_rows = len(actions)
    onehot = one_hot(actions, singular.shape[-1])
    rep = np.repeat(onehot, rank, axis=0)
    fac2 = T.reshape(factors, (n_rows * rank, onehot.shape[1]))
    g = T.reshape(T.sum_axis(fac2 * rep, 1), (n_rows, rank))
    g_team = T.segment_sum(g, segments)  # (teams, rank)
    # Ordered pairs within a team: |sum g|^2 - sum |g|^2.
    pair = T.sum_axis(g_team * g_team, 1) - T.reshape(
        T.segment_sum(T.reshape(T.sum_axis(g * g, 1), (n_rows, 1)), segments),
        (len(segments),),
    )
    singles_rows = T.reshape(T.sum_axis(singular * onehot, 1), (n_rows, 1))
    singles = T.reshape(T.segment_sum(singles_rows, segments), (len(segments),))
    return singles + pair


def joint_q(tables: UtilityTables, joint_action: dict) -> Tensor:
    """Coordination-graph value of one joint action (scalar tensor)."""
    missing = [j for j in tables.agent_ids if j not in joint_action]
    if missing:
        raise ValueError(f"joint action missing agents {missing}")
    actions = [int(joint_action[j]) for j in tables.agent_ids]
    value = joint_values(
        tables.singular_rows, tables.factor_rows, actions, [(0, len(actions))], tables.rank
    )
    return T.reshape(value, ())


def _expected_factors(tables: UtilityTables, rows, probs: Tensor):
    """v_r = F_r q_r for the given rows, as an (m, K) tensor."""
    m = len(rows)
    fac = T.select_rows(tables.factor_rows, rows)
    fac = T.reshape(fac, (m * tables.rank, tables.action_count))
    rep = T.select_rows(probs, np.repeat(np.arange(m), tables.rank))
    v = T.sum_axis(fac * rep, 1)
    return T.reshape(v, (m, tables.rank))


def marginal_q(tables: UtilityTables, model_out: AgentModelOutput, learner_id) -> Tensor:
    """Learner action values: expectation of joint_q under the agent model
    (tensor reference for `marginal_values`)."""
    own = tables.singular(learner_id)
    teammate_ids = [j for j in tables.agent_ids if j != learner_id]
    missing = [j for j in teammate_ids if j not in model_out.teammate_ids]
    if missing:
        raise ValueError(f"no action distribution for agents {missing}")
    if not teammate_ids:
        return own

    rows = [tables.row(j) for j in teammate_ids]
    probs = T.select_rows(
        model_out.probs, [model_out.teammate_ids.index(j) for j in teammate_ids]
    )
    singles = T.sum_all(T.select_rows(tables.singular_rows, rows) * probs)
    v = _expected_factors(tables, rows, probs)
    v_total = T.sum_axis(v, 0)
    # Ordered teammate pairs: |sum v|^2 - sum |v|^2.
    pair_const = T.sum_all(v_total * v_total) - T.sum_all(v * v)
    # Learner-teammate pairs appear in both orders; the table is symmetric.
    own_factor = tables.factor(learner_id)
    cross = T.matmul(T.transpose(own_factor), T.reshape(v_total, (tables.rank, 1)))
    cross = T.scalar_mul(T.reshape(cross, (tables.action_count,)), 2.0)
    return own + cross + (singles + pair_const)


def marginal_values(sing, fac, probs, learner_row: int, rank: int) -> np.ndarray:
    """Learner action values of one team over raw arrays, without gradients.

    This is the marginalization training and acting use; `marginal_q` is
    the same math on tensors, kept as the reference that tests compare with.

    `sing` (n, |A|) and `fac` (n, K*|A|) are the utility rows in roster
    order; `probs` (n-1, |A|) holds the teammate distributions in the same
    order with the learner row skipped (a lone learner needs none).
    """
    n, actions = sing.shape
    own = sing[learner_row].copy()
    if n == 1:
        return own
    rows = [r for r in range(n) if r != learner_row]
    fac3 = fac.reshape(n, rank, actions)
    team_fac = fac3[rows]
    v = np.einsum("mka,ma->mk", team_fac, probs)
    v_total = v.sum(axis=0)
    singles = float((sing[rows] * probs).sum())
    pair_const = float(v_total @ v_total) - float((v * v).sum())
    cross = 2.0 * (fac3[learner_row].T @ v_total)
    return own + cross + (singles + pair_const)


def spi_policy(qbar, tau: float):
    """Boltzmann distribution over action values at temperature tau (a plain
    array for plain values)."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    return T.softmax(T.scalar_mul(qbar, 1.0 / tau))


def td_target(reward, next_qbar, mode, gamma, tau=None) -> float:
    """Bootstrapped target value of a non-terminal transition (a terminal one
    is its bare reward)."""
    if mode not in ("QL", "SPI"):
        raise ValueError(f"unknown target mode {mode!r}")
    q = np.asarray(T.raw(next_qbar))
    if mode == "QL":
        return float(reward + gamma * q.max())
    p = spi_policy(q, tau)
    return float(reward + gamma * float(p @ q))


def value_loss(joint, targets) -> Tensor:
    """Half the summed squared TD error; the targets are constants."""
    diff = joint - np.asarray(targets, dtype=np.float64)
    return T.scalar_mul(T.sum_all(diff * diff), 0.5)


def agent_model_loss(probs: Tensor, rows, actions) -> Tensor:
    """Summed negative log likelihood of `actions[i]` under row `rows[i]` of
    the action distributions `probs`.

    Probabilities are floored at 1e-12 (with a diagnostic) so a dead softmax
    unit cannot produce an infinite loss.
    """
    onehot = one_hot(actions, probs.shape[-1])
    p = T.sum_axis(T.select_rows(probs, rows) * onehot, 1)
    if float(T.raw(p).min()) < PROB_FLOOR:
        log.warning("agent-model probability below floor; clamping at %g", PROB_FLOOR)
    floored = T.relu(p - PROB_FLOOR) + PROB_FLOOR
    return T.scalar_mul(T.sum_all(T.log(floored)), -1.0)


def act(qbar, mode, explore, rng) -> int:
    """Select the learner's action.

    QL: epsilon-greedy with uniform tie-breaking among maximizers.
    SPI: sample the Boltzmann policy at temperature `explore`.
    """
    q = np.asarray(T.raw(qbar))
    if mode == "SPI":
        p = spi_policy(q, explore)
        return int(rng.choice(len(q), p=p))
    if not 0.0 <= explore <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {explore}")
    if rng.random() < explore:
        return int(rng.integers(0, len(q)))
    return greedy(q, rng)


def greedy(q, rng) -> int:
    """An action of maximal value, ties broken uniformly with one draw.

    Raises ValueError when no value equals the maximum, which only a NaN
    among the action values brings about."""
    best = np.flatnonzero(q == q.max())
    if not len(best):
        raise ValueError(f"action values are not finite: {q}")
    return int(best[rng.integers(0, len(best))])
