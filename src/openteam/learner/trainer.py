"""Synchronous training over parallel open-team environments.

`Trainer` runs every algorithm with one iteration. It draws its value and
agent-model networks from their layouts (`param_layouts`, `nn.draw`), value
first, from one stream of its seed. Each iteration it acts in and steps every
environment, follows each continuing one to its next roster, restarts
finished episodes, runs the agent model once per pathway over the stacked
rosters of all environments (`model_pass`) and builds the TD targets. It
turns the value of the actions taken, their targets and the teammate-action
NLL (`teammate_nll`) into losses, accumulates their gradients over a
configured number of iterations and applies them with Adam, after checking
that the losses and gradients are finite; the value-side target copy tracks
the online parameters by Polyak averaging every iteration. It also keeps the
episode returns and learning signals of the metric window.

Every update is made in place, in buffers the trainer allocates once: one
vector per parameter store (value, agent model, target), the two Adam
moments and the gradient sum of each trained store (`Fit`), and one scratch
vector. The trainer's stores are read-only views of those vectors, so they
change with every update; `Trainer.stores` hands out copies, which never
change.

The algorithms differ only in their value side, a step object: `GplStep`
for the coordination-graph learner (GPL-Q / GPL-SPI), `baseline.PaddedStep`
for the padded-input baselines (QL / QL-AM). A step object starts and
follows an environment's slot (`begin`, `follow`), turns observations and
teammate predictions into each learner's action values (`values`) and
gives the value of the actions taken (`taken`); the baselines' step reads
the action count off its world (`envs.WORLDS`), so no step object needs a
probe session. `GplPolicy` runs the same code on one environment to act
for every algorithm.

For GPL the rows of all environments are stacked into one batch: the
embeddings and utility heads run once over it, and each team's rows are
marginalized into its learner's action values. Joint values and losses are
batched too, with per-team segment sums.

Every slot keeps its recurrent states as row arrays in one `EmbeddingStore`
and follows its roster: right after a step the store is realigned to the
next roster (`preprocess`). The target pathway keeps its own recurrent
state, advanced at s' with the target parameters, while the s' teammate
distributions come from the online agent model (advanced one step ahead of
its stored states and then discarded). Only the online pathway is taped:
the target pathway and acting pass the stores' plain arrays
(`ParamStore.arrays`), so they build no Tensor.

The supervised agent-model fit on stored episodes (`window_loss`) and its
held-out score (`heldout_nll`) batch each step's observations through the
same `Teams` and score the teammates' actions with the same `teammate_nll`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from .. import tensor as T
from ..config import GPL_ALGORITHMS, RunConfig
from ..envs.session import make_session
from ..tensor import Tape, Tensor, backward
from .baseline import PaddedStep, SlotMap, baseline_net_layout, padded_input_len
from .model import (
    EmbeddingStore,
    Teams,
    agent_model_forward,
    embed_rows,
    env_dims,
    init_model_net,
    model_net_layout,
    preprocess,
    roster_gather,
    stacked,
    value_net_layout,
)
from .values import (
    UtilityTables,
    act,
    agent_model_loss,
    greedy,
    joint_values,
    marginal_values,
    model_rows,
    td_target,
    utility_rows,
    value_loss,
)

# Supervised agent-model fit: peak Adam step size and targets per update.
SUPERVISED_LR = 2e-3
SUPERVISED_GROUP = 16


@dataclass
class TrainResult:
    stores: dict
    records: list


def param_layouts(cfg: RunConfig, dims):
    """(value, agent model) parameter layouts (`nn.draw`) of the configured
    algorithm for the env widths `dims` (`env_dims`); QL has no agent model
    (None)."""
    x_len, u_len, action_count = dims
    if cfg.algorithm in GPL_ALGORITHMS:
        value = value_net_layout(x_len + u_len, action_count, cfg.net)
    else:
        value = baseline_net_layout(padded_input_len(cfg, dims), action_count, cfg.net)
    if cfg.algorithm == "QL":
        return value, None
    return value, model_net_layout(x_len + u_len, action_count, cfg.net)


class Fit:
    """A trained parameter store and the buffers that update it in place:
    its writable vector, of which `params` is a read-only view, its Adam
    moments (`opt`) and its gradient sum."""

    def __init__(self, store: nn.ParamStore, lr: float):
        self.vector = store.vector.copy()
        self.params = store.with_vector(self.vector[:])
        self.opt = nn.AdamState(self.vector.size, lr=lr)
        self.grad_sum = np.empty(self.vector.size)
        self.summed = False  # whether grad_sum holds gradients not yet applied

    def accumulate(self, leaves, grads):
        """Add the gradients of `leaves` (`params.bind`) in `grads`."""
        self.params.accumulate(self.grad_sum, leaves, grads, fresh=not self.summed)
        self.summed = True

    def adam_step(self, scratch):
        """Apply the summed gradients, if any, and start a new sum; `scratch`
        is at least as long as the vector."""
        if self.summed:
            nn.adam_step(self.vector, self.grad_sum, self.opt, scratch[: self.vector.size])
            self.summed = False


def copy_store(store: nn.ParamStore) -> nn.ParamStore:
    """A store over a copy of `store`'s vector."""
    return store.with_vector(store.vector.copy())


def mean_ci(returns):
    """Mean of `returns` and the half-width of its 95% confidence interval
    (0 for one value); (None, None) when there are none."""
    n = len(returns)
    if not n:
        return None, None
    ci = float(1.96 * np.std(returns, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(returns)), ci


@dataclass
class _Slot:
    """One environment's acting state."""

    session: object  # None when a policy acts
    obs: object = None
    store: EmbeddingStore = None  # every recurrence of every algorithm
    slot_map: SlotMap = None  # baselines only


def joint_actions(teams: Teams, results) -> list:
    """Every agent's action in `results`, in the row order of `teams`."""
    return [res.joint_action[j] for obs, res in zip(teams.obs, results) for j in obs.order]


def teammate_nll(probs, teams: Teams, results):
    """Summed (floored) negative log likelihood of the teammates' actions in
    `results` under their rows of `probs`, in the row order of `teams`."""
    acted = joint_actions(teams, results)
    return agent_model_loss(probs, teams.mates, [acted[r] for r in teams.mates])


def model_pass(params, slots, write):
    """One agent-model step over the stacked rosters of `slots`.

    Returns (their `Teams`, every agent's predicted action distribution),
    or (None, None) without an agent model (QL). The new states are written
    back when `write` (the online pathway) and dropped otherwise (the target
    pathway, which reads the s' distributions one step ahead).
    """
    if params is None:
        return None, None
    teams = Teams([slot.obs for slot in slots])
    stores = [slot.store for slot in slots]
    h, c, probs = agent_model_forward(params, teams, stacked(stores, "model"))
    if write:
        h, c = T.raw(h), T.raw(c)
        for (lo, hi), store in zip(teams.slices, stores):
            store.write("model", h[lo:hi], c[lo:hi])
    return teams, probs


def plain(store):
    """The arrays of parameter store `store` (None stays None), for passes
    that run off the tape."""
    return None if store is None else store.arrays


class GplStep:
    """The coordination-graph learner's (GPL-Q / GPL-SPI) value side of an
    iteration."""

    store_order = ("value", "agent_model", "target_value")

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.mode = "QL" if cfg.algorithm == "GPL-Q" else "SPI"

    def begin(self, slot, obs):
        """Fresh episode state at the episode's first observation `obs`."""
        slot.obs = obs
        slot.store = EmbeddingStore(self.cfg.net.embedding_dim)
        preprocess(obs, slot.store, [], obs.order)

    def follow(self, slot, res):
        """Move on to the observation of step result `res`, realigning every
        recurrence to its roster."""
        slot.obs = res.obs
        preprocess(res.obs, slot.store, res.departures, res.arrivals)

    def values(self, params, slots, teams, probs, which):
        """Every slot's learner action values: advances the value recurrence
        of pathway `which` one step, computes every agent's utility rows and
        marginalizes each team's joint values over its teammates'
        distributions `probs`. Also returns (teams, singular, factor rows)."""
        rank = self.cfg.net.rank
        stores = [slot.store for slot in slots]
        h, c = embed_rows(params, teams.rows, *stacked(stores, which))
        sing, fac = utility_rows(params, h, teams.learner_rows)
        h, c, sing_rows, fac_rows, probs = map(T.raw, (h, c, sing, fac, probs))
        qbars = []
        for (lo, hi), store in zip(teams.slices, stores):
            store.write(which, h[lo:hi], c[lo:hi])
            learner = teams.learner_rows[lo]
            mates = [r for r in range(lo, hi) if r != learner]
            team = (sing_rows[lo:hi], fac_rows[lo:hi], probs[mates] if mates else None)
            qbars.append(marginal_values(*team, learner - lo, rank))
        return qbars, (teams, sing, fac)

    def taken(self, out, results, actions):
        """Each team's joint value of the actions taken."""
        teams, sing, fac = out
        acted = joint_actions(teams, results)
        return joint_values(sing, fac, acted, teams.slices, self.cfg.net.rank)


def make_step(cfg: RunConfig, rng):
    """The configured algorithm's step object; `rng` draws the baselines'
    teammate slots."""
    if cfg.algorithm in GPL_ALGORITHMS:
        return GplStep(cfg)
    return PaddedStep(cfg, rng)


class Trainer:
    """Synchronous trainer for every algorithm (see the module docstring)."""

    def __init__(self, cfg: RunConfig):
        cfg.validate()
        self.cfg = cfg
        # Child 0 draws the initial parameters, child 1 the learner's actions
        # and child 2 the baselines' teammate slots; environment e steps with
        # child k + e. The offset (k = 3 for GPL, 4 for the baselines, which
        # leave child 3 unused) is historical and kept so that runs reproduce.
        k = 3 if cfg.algorithm in GPL_ALGORITHMS else 4
        seeds = np.random.SeedSequence(cfg.seed).spawn(k + cfg.parallel_envs)
        layouts, init_rng = param_layouts(cfg, env_dims(cfg)), np.random.default_rng(seeds[0])
        value, model = (None if lay is None else nn.draw(lay, init_rng) for lay in layouts)
        self.learner_rng = np.random.default_rng(seeds[1])
        self.step = make_step(cfg, np.random.default_rng(seeds[2]))
        self.slots = []
        for seed in seeds[k:]:
            slot = _Slot(make_session(cfg.env, cfg.openness_train, np.random.default_rng(seed)))
            self.step.begin(slot, slot.session.reset())
            self.slots.append(slot)
        # The buffers every update writes in place (see the module
        # docstring); the three stores over them stay the same objects.
        self.value_fit = Fit(value, cfg.lr)
        self.model_fit = None if model is None else Fit(model, cfg.lr)
        self.target = value.vector.copy()
        self.scratch = np.empty(max(value.vector.size, 0 if model is None else model.vector.size))
        self.value_params = self.value_fit.params
        self.model_params = None if model is None else self.model_fit.params
        self.target_params = value.with_vector(self.target[:])
        self.global_step = 0
        self.iteration = 0
        self.episode_returns = [0.0] * cfg.parallel_envs
        self._clear_window()

    def stores(self) -> dict:
        """Copies of the stores, by name, which keep their bytes while
        training goes on. The step fixes the order, and with it the
        checkpoint byte layout."""
        named = {
            "value": self.value_params,
            "agent_model": self.model_params,
            "target_value": self.target_params,
        }
        order = [name for name in self.step.store_order if named[name] is not None]
        return {name: copy_store(named[name]) for name in order}

    def _clear_window(self):
        self.window_returns: list[float] = []
        self.window_nll_sum = 0.0
        self.window_nll_count = 0
        self.window_qbar_sum = 0.0
        self.window_qbar_count = 0

    def record_qbar(self, qbar):
        self.window_qbar_sum += float(qbar.mean())
        self.window_qbar_count += 1

    def record_nll(self, total: float, count: int):
        self.window_nll_sum += total
        self.window_nll_count += count

    def window_stats(self) -> dict:
        """Learning signals since the previous call, which resets them."""
        mean, ci = mean_ci(self.window_returns)
        stats = {
            "episodes": len(self.window_returns),
            "mean_return": mean,
            "ci95": ci,
            "agent_model_nll": (
                self.window_nll_sum / self.window_nll_count if self.window_nll_count else None
            ),
            "mean_qbar": (
                self.window_qbar_sum / self.window_qbar_count if self.window_qbar_count else None
            ),
        }
        self._clear_window()
        return stats

    def transition(self, value, model):
        """Act in and step every environment, then follow each continuing one
        to its next roster. Returns the step results, the value of the actions
        taken, their TD targets and the summed teammate-action NLL (None
        without an agent model or when no teammate acted)."""
        cfg = self.cfg
        step = self.step
        if step.mode == "SPI":
            explore = cfg.tau
        else:
            explore = cfg.epsilon.value(self.global_step, cfg.total_steps)
        teams, probs = model_pass(model, self.slots, write=True)
        qbars, out = step.values(value, self.slots, teams, probs, "value")

        actions = []
        for qbar in qbars:
            actions.append(act(qbar, step.mode, explore, self.learner_rng))
            self.record_qbar(qbar)
        results = [slot.session.step(a) for slot, a in zip(self.slots, actions)]
        for slot, res in zip(self.slots, results):
            if not res.done:
                step.follow(slot, res)
        targets = self._targets(results)

        nll = None
        if teams is not None and teams.mates:
            nll = teammate_nll(probs, teams, results)
            self.record_nll(float(nll.data), len(teams.mates))
        return results, step.taken(out, results, actions), targets, nll

    def _targets(self, results):
        """Bootstrapped targets from the target-parameter pathway at s', from
        the slots already following the s' rosters."""
        cfg = self.cfg
        targets = [float(res.reward) for res in results]
        live = [e for e, res in enumerate(results) if not res.done]
        if not live:
            return targets
        slots = [self.slots[e] for e in live]
        teams, probs = model_pass(plain(self.model_params), slots, write=False)
        qbars, _ = self.step.values(self.target_params.arrays, slots, teams, probs, "target")
        for e, qbar in zip(live, qbars):
            targets[e] = td_target(results[e].reward, qbar, self.step.mode, cfg.gamma, cfg.tau)
        return targets

    def run_iteration(self):
        """One synchronous step across every environment."""
        cfg = self.cfg
        tape = Tape()
        value = self.value_params.bind(tape)
        model = self.model_params.bind(tape) if self.model_params is not None else None
        results, taken, targets, nll = self.transition(value, model)

        scale = 1.0 / (len(results) * cfg.update_interval)
        v_loss = T.scalar_mul(value_loss(taken, targets), scale)
        self.value_fit.accumulate(value, backward(v_loss))
        losses = [v_loss]
        if nll is not None:
            m_loss = T.scalar_mul(nll, scale)
            self.model_fit.accumulate(model, backward(m_loss))
            losses.append(m_loss)

        self.iteration += 1
        self.global_step += len(results)
        if self.iteration % cfg.update_interval == 0:
            self._check_finite(losses)
            self.value_fit.adam_step(self.scratch)
            if self.model_fit is not None:
                self.model_fit.adam_step(self.scratch)
        scratch = self.scratch[: self.target.size]
        nn.polyak_update(self.target, self.value_fit.vector, cfg.polyak_alpha, scratch)

        for e, (slot, res) in enumerate(zip(self.slots, results)):
            self.episode_returns[e] += res.reward
            if res.done:
                self.window_returns.append(self.episode_returns[e])
                self.episode_returns[e] = 0.0
                self.step.begin(slot, slot.session.reset())

    def _check_finite(self, losses):
        """Raise ValueError on a NaN or infinity in this iteration's losses or
        in a store's accumulated gradient, naming the global step and, for a
        gradient, the store and its first such parameter."""
        step = self.global_step
        if not np.isfinite([float(loss.data) for loss in losses]).all():
            raise ValueError(f"non-finite loss at global step {step}")
        for name, fit in (("value", self.value_fit), ("agent_model", self.model_fit)):
            finite = np.isfinite(fit.grad_sum if fit is not None and fit.summed else ())
            if not finite.all():
                bad = fit.params.name_at(int(np.argmin(finite)))
                raise ValueError(
                    f"non-finite gradient at global step {step}: store {name!r}, parameter {bad!r}"
                )


def train(cfg: RunConfig, on_record=None) -> TrainResult:
    """Run the configured algorithm; emits a record at every checkpoint
    boundary (starting with global step 0) through `on_record`."""
    trainer = Trainer(cfg)
    records = []

    def emit():
        stats = trainer.window_stats()
        record = {"global_step": trainer.global_step, **stats}
        records.append(record)
        if on_record is not None:
            on_record(trainer.global_step, trainer.stores(), record)

    emit()
    next_boundary = cfg.checkpoint_interval
    while trainer.global_step < cfg.total_steps:
        trainer.run_iteration()
        while trainer.global_step >= next_boundary and next_boundary <= cfg.total_steps:
            emit()
            next_boundary += cfg.checkpoint_interval
    return TrainResult(trainer.stores(), records)


class GplPolicy:
    """Single-environment acting for every algorithm, for evaluation and
    analysis: the trainer's pass on one slot, then the greedy action
    (sampled from the Boltzmann policy for GPL-SPI)."""

    def __init__(self, cfg: RunConfig, value_params, model_params, rng):
        self.cfg = cfg
        self.value_params = value_params
        self.model_params = model_params
        self.rng = rng
        self.step = make_step(cfg, rng)
        self.slot = _Slot(None)
        self.last_tables = None  # GPL only
        self.last_qbar = None

    def reset(self, obs):
        self.slot = _Slot(None)
        self.step.begin(self.slot, obs)

    def act(self, obs) -> int:
        slot = self.slot
        if obs is not slot.obs:
            raise ValueError("act needs the observation the policy last saw (reset or observe)")
        teams, probs = model_pass(plain(self.model_params), [slot], write=True)
        qbars, out = self.step.values(self.value_params.arrays, [slot], teams, probs, "value")
        qbar = self.last_qbar = qbars[0]
        if isinstance(self.step, GplStep):
            _, singular, factors = out
            self.last_tables = UtilityTables(
                obs.learner_id, list(obs.order), len(qbar), self.cfg.net.rank, singular, factors
            )
        if self.step.mode == "SPI":
            return act(qbar, "SPI", self.cfg.tau, self.rng)
        return greedy(qbar, self.rng)

    def observe(self, result):
        self.step.follow(self.slot, result)


def collect_transitions(cfg: RunConfig, steps: int, seed: int) -> list:
    """Roll out a uniform-random learner; returns a list of episodes, each a
    list of (observation, `StepResult` of the step taken from it). The
    session builds every observation and result afresh, so they are kept as
    they are."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    session = make_session(cfg.env, cfg.openness_train, rng)
    episodes = []
    current = []
    obs = session.reset()
    for _ in range(steps):
        action = int(rng.integers(0, session.action_count))
        res = session.step(action)
        current.append((obs, res))
        obs = res.obs
        if res.done:
            episodes.append(current)
            current = []
            obs = session.reset()
    if current:
        episodes.append(current)
    return episodes


def heldout_nll(model_params, cfg: RunConfig, episodes) -> float:
    """Mean per-action negative log likelihood over stored episodes, each
    stepped through the trainer's online agent-model pass (`model_pass`)."""
    total, count = 0.0, 0
    for episode in episodes:
        first = episode[0][0]
        slot = _Slot(None, first, EmbeddingStore(cfg.net.embedding_dim, ("model",)))
        preprocess(first, slot.store, [], first.order)
        for _, res in episode:
            teams, probs = model_pass(model_params.arrays, [slot], write=True)
            if teams.mates:
                total += float(teammate_nll(probs, teams, [res]))
                count += len(teams.mates)
            if res.done:
                break
            slot.obs = res.obs
            preprocess(slot.obs, slot.store, res.departures, res.arrivals)
    return total / max(count, 1)


def window_loss(params, episodes, targets, window: int, dim: int) -> Tensor:
    """Mean teammate-action NLL at the target steps, each predicted from the
    recurrent state unrolled over the `window` steps that end at it.

    `targets` are (episode, step) pairs into `episodes` (see
    `collect_transitions`); their windows run in lockstep, one `Teams` batch
    over the live windows' observations per unrolled step. The state starts
    from zeros at a window's first step (or at the episode's first step when
    that comes later), rows of agents arriving inside the window start from
    zeros, rows of departed agents are dropped (`roster_gather` over (window,
    agent) keys, as in `preprocess`), and the state stays on the tape
    throughout, so the loss reaches every step of the window.
    """
    keys, h, c = [], np.zeros((0, dim)), np.zeros((0, dim))
    zero = np.zeros((1, dim))
    for back in range(window - 1, -1, -1):
        live = [(k, episodes[e][t - back][0]) for k, (e, t) in enumerate(targets) if t >= back]
        if not live:  # every window starts later
            continue
        teams = Teams([obs for _, obs in live])
        new_keys = [(k, j) for k, obs in live for j in obs.order]
        gather = roster_gather(keys, new_keys)
        h0 = T.select_rows(T.concat_first([h, zero]), gather)
        c0 = T.select_rows(T.concat_first([c, zero]), gather)
        h, c = embed_rows(params, teams.rows, h0, c0)
        keys = new_keys

    # At the last step every window is live, in target order.
    probs = model_rows(params, h, teams.groups)
    nll = teammate_nll(probs, teams, [episodes[e][t][1] for e, t in targets])
    return T.scalar_mul(nll, 1.0 / len(teams.mates))


def train_agent_model_supervised(
    cfg: RunConfig, episodes, seed: int, epochs: int = 2, window: int = 4
):
    """Supervised training of the agent model on stored transitions.

    Every step at which a teammate acts is one target. An epoch visits each
    target once, in an order shuffled across all episodes,
    `SUPERVISED_GROUP` targets per Adam step. A target's teammate actions are
    predicted from the recurrent state unrolled over the `window` steps that
    end at it, and the loss is backpropagated through that whole window (see
    `window_loss`). The state entering a window is zeros, so a prediction
    sees at most `window` steps of history here, while `heldout_nll` and
    `GplPolicy` carry the state over the whole episode. Targets are shuffled
    rather than replayed episode by episode because consecutive steps of one
    episode barely differ: batches of consecutive steps give updates that
    nearly repeat each other.

    The step size ramps up linearly over the first 5% of updates to
    `SUPERVISED_LR`, then falls along a half cosine to zero at the end of
    the last epoch. That peak is the fit's own, not `cfg.lr`: the TD
    learner's 2.5e-4 leaves one epoch far short of what the shuffled windows
    allow. Parameters start from `init_model_net` seeded with `seed`; the
    shuffle draws from a separate stream spawned from the same seed.
    """
    init_rng = np.random.default_rng(np.random.SeedSequence(seed))
    order_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    x_len, u_len, action_count = env_dims(cfg)
    fit = Fit(init_model_net(x_len + u_len, action_count, cfg.net, init_rng), SUPERVISED_LR)
    scratch = np.empty(fit.vector.size)

    targets = [
        (e, t)
        for e, episode in enumerate(episodes)
        for t, (obs, _) in enumerate(episode)
        if len(obs.order) > 1
    ]
    total = epochs * -(-len(targets) // SUPERVISED_GROUP)
    warmup = max(1, total // 20)
    update = 0
    for _ in range(epochs):
        order = order_rng.permutation(len(targets))
        for lo in range(0, len(order), SUPERVISED_GROUP):
            batch = [targets[i] for i in order[lo : lo + SUPERVISED_GROUP]]
            bound = fit.params.bind(Tape())
            grads = backward(window_loss(bound, episodes, batch, window, cfg.net.embedding_dim))
            ramp = min(1.0, (update + 1) / warmup)
            fit.opt.lr = SUPERVISED_LR * ramp * 0.5 * (1.0 + np.cos(np.pi * update / total))
            fit.accumulate(bound, grads)
            fit.adam_step(scratch)
            update += 1
    return copy_store(fit.params)
